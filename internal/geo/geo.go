// Package geo converts between geodetic (WGS84 latitude/longitude),
// Earth-Centered Earth-Fixed (ECEF), and local East-North-Up (ENU) tangent
// plane coordinates. The paper's localization algorithms run in ECEF-derived
// planar coordinates; this package supplies the conversions so that AP
// databases (WiGLE-style lat/lon) and the planar solver interoperate.
package geo

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// WGS84 ellipsoid constants.
const (
	// SemiMajorAxis is the WGS84 equatorial radius a, in metres.
	SemiMajorAxis = 6378137.0
	// Flattening is the WGS84 flattening f.
	Flattening = 1.0 / 298.257223563
)

var (
	// eccSq is the first eccentricity squared, e² = f(2−f).
	eccSq = Flattening * (2 - Flattening)
	// semiMinor is the WGS84 polar radius b = a(1−f).
	semiMinor = SemiMajorAxis * (1 - Flattening)
)

// LatLon is a geodetic coordinate in degrees (WGS84), with optional height
// above the ellipsoid in metres.
type LatLon struct {
	Lat    float64 `json:"lat"`
	Lon    float64 `json:"lon"`
	Height float64 `json:"height,omitempty"`
}

// String implements fmt.Stringer.
func (l LatLon) String() string {
	return fmt.Sprintf("%.6f,%.6f", l.Lat, l.Lon)
}

// ECEF is an Earth-Centered, Earth-Fixed Cartesian coordinate in metres.
type ECEF struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
	Z float64 `json:"z"`
}

// ToECEF converts a geodetic coordinate to ECEF.
func (l LatLon) ToECEF() ECEF {
	lat := l.Lat * math.Pi / 180
	lon := l.Lon * math.Pi / 180
	sinLat, cosLat := math.Sincos(lat)
	sinLon, cosLon := math.Sincos(lon)
	// Prime-vertical radius of curvature.
	n := SemiMajorAxis / math.Sqrt(1-eccSq*sinLat*sinLat)
	return ECEF{
		X: (n + l.Height) * cosLat * cosLon,
		Y: (n + l.Height) * cosLat * sinLon,
		Z: (n*(1-eccSq) + l.Height) * sinLat,
	}
}

// ToLatLon converts an ECEF coordinate to geodetic using Bowring's iterative
// method (converges to sub-millimetre in a few iterations).
func (e ECEF) ToLatLon() LatLon {
	p := math.Hypot(e.X, e.Y)
	lon := math.Atan2(e.Y, e.X)
	if p < 1e-9 {
		// On the polar axis.
		lat := math.Pi / 2
		if e.Z < 0 {
			lat = -lat
		}
		return LatLon{
			Lat:    lat * 180 / math.Pi,
			Lon:    0,
			Height: math.Abs(e.Z) - semiMinor,
		}
	}
	lat := math.Atan2(e.Z, p*(1-eccSq))
	var n, h float64
	for i := 0; i < 8; i++ {
		sinLat := math.Sin(lat)
		n = SemiMajorAxis / math.Sqrt(1-eccSq*sinLat*sinLat)
		h = p/math.Cos(lat) - n
		newLat := math.Atan2(e.Z, p*(1-eccSq*n/(n+h)))
		if math.Abs(newLat-lat) < 1e-13 {
			lat = newLat
			break
		}
		lat = newLat
	}
	return LatLon{
		Lat:    lat * 180 / math.Pi,
		Lon:    lon * 180 / math.Pi,
		Height: h,
	}
}

// HaversineMetres returns the great-circle distance between two geodetic
// coordinates, ignoring height, using a mean Earth radius.
func HaversineMetres(a, b LatLon) float64 {
	const earthRadius = 6371000.0
	lat1 := a.Lat * math.Pi / 180
	lat2 := b.Lat * math.Pi / 180
	dLat := (b.Lat - a.Lat) * math.Pi / 180
	dLon := (b.Lon - a.Lon) * math.Pi / 180
	s := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(lat1)*math.Cos(lat2)*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * earthRadius * math.Asin(math.Min(1, math.Sqrt(s)))
}

// Projection maps geodetic coordinates to a local East-North-Up tangent
// plane anchored at an origin. Over campus scales (a few km) the projection
// distortion is negligible, and the planar solver in package geom applies
// directly.
type Projection struct {
	origin     LatLon
	originECEF ECEF
	// ENU rotation rows (east, north, up) in ECEF frame.
	east, north, up [3]float64
}

// NewProjection returns a local tangent-plane projection anchored at origin.
func NewProjection(origin LatLon) *Projection {
	lat := origin.Lat * math.Pi / 180
	lon := origin.Lon * math.Pi / 180
	sinLat, cosLat := math.Sincos(lat)
	sinLon, cosLon := math.Sincos(lon)
	return &Projection{
		origin:     origin,
		originECEF: origin.ToECEF(),
		east:       [3]float64{-sinLon, cosLon, 0},
		north:      [3]float64{-sinLat * cosLon, -sinLat * sinLon, cosLat},
		up:         [3]float64{cosLat * cosLon, cosLat * sinLon, sinLat},
	}
}

// ToPlane projects a geodetic coordinate to the local plane: X is metres
// east of the origin, Y metres north. The up component is discarded.
func (p *Projection) ToPlane(l LatLon) geom.Point {
	e := l.ToECEF()
	dx := e.X - p.originECEF.X
	dy := e.Y - p.originECEF.Y
	dz := e.Z - p.originECEF.Z
	return geom.Point{
		X: p.east[0]*dx + p.east[1]*dy + p.east[2]*dz,
		Y: p.north[0]*dx + p.north[1]*dy + p.north[2]*dz,
	}
}

// ToLatLon lifts a local plane point back to geodetic coordinates at the
// origin's ellipsoid height.
func (p *Projection) ToLatLon(pt geom.Point) LatLon {
	// Reconstruct ECEF from the ENU offset with zero up component.
	e := ECEF{
		X: p.originECEF.X + p.east[0]*pt.X + p.north[0]*pt.Y,
		Y: p.originECEF.Y + p.east[1]*pt.X + p.north[1]*pt.Y,
		Z: p.originECEF.Z + p.east[2]*pt.X + p.north[2]*pt.Y,
	}
	ll := e.ToLatLon()
	ll.Height = p.origin.Height
	return ll
}
