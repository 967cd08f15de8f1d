package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestToECEFKnownPoints(t *testing.T) {
	tests := []struct {
		name string
		in   LatLon
		want ECEF
		tol  float64
	}{
		{"equatorPrime", LatLon{Lat: 0, Lon: 0}, ECEF{X: SemiMajorAxis, Y: 0, Z: 0}, 1e-6},
		{"equator90E", LatLon{Lat: 0, Lon: 90}, ECEF{X: 0, Y: SemiMajorAxis, Z: 0}, 1e-6},
		{"northPole", LatLon{Lat: 90, Lon: 0}, ECEF{X: 0, Y: 0, Z: 6356752.314245}, 1e-3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := tt.in.ToECEF()
			if math.Abs(got.X-tt.want.X) > tt.tol ||
				math.Abs(got.Y-tt.want.Y) > tt.tol ||
				math.Abs(got.Z-tt.want.Z) > tt.tol {
				t.Errorf("ToECEF(%v) = %+v, want %+v", tt.in, got, tt.want)
			}
		})
	}
}

func TestECEFRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := LatLon{
			Lat:    rng.Float64()*170 - 85,
			Lon:    rng.Float64()*360 - 180,
			Height: rng.Float64() * 2000,
		}
		out := in.ToECEF().ToLatLon()
		return math.Abs(out.Lat-in.Lat) < 1e-9 &&
			math.Abs(out.Lon-in.Lon) < 1e-9 &&
			math.Abs(out.Height-in.Height) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestECEFPolarAxis(t *testing.T) {
	ll := ECEF{X: 0, Y: 0, Z: 6356752.314245 + 100}.ToLatLon()
	if math.Abs(ll.Lat-90) > 1e-9 {
		t.Errorf("lat = %v, want 90", ll.Lat)
	}
	if math.Abs(ll.Height-100) > 1e-3 {
		t.Errorf("height = %v, want 100", ll.Height)
	}
}

func TestHaversine(t *testing.T) {
	// UMass Lowell North Campus to GWU Foggy Bottom: roughly 600 km.
	uml := LatLon{Lat: 42.6555, Lon: -71.3254}
	gwu := LatLon{Lat: 38.8997, Lon: -77.0486}
	d := HaversineMetres(uml, gwu)
	if d < 550e3 || d > 680e3 {
		t.Errorf("UML-GWU distance = %.0f m, want ~600 km", d)
	}
	if got := HaversineMetres(uml, uml); got != 0 {
		t.Errorf("self distance = %v", got)
	}
}

func TestProjectionLocalDistances(t *testing.T) {
	origin := LatLon{Lat: 42.6555, Lon: -71.3254}
	proj := NewProjection(origin)
	// A point 0.001 deg north is about 111 m away.
	north := LatLon{Lat: origin.Lat + 0.001, Lon: origin.Lon}
	p := proj.ToPlane(north)
	if math.Abs(p.X) > 1 {
		t.Errorf("northward point should have ~0 east offset, got %v", p.X)
	}
	if p.Y < 105 || p.Y > 115 {
		t.Errorf("northward offset = %v m, want ~111", p.Y)
	}
	// Plane distance must agree with haversine within 0.1% at campus scale.
	east := LatLon{Lat: origin.Lat, Lon: origin.Lon + 0.005}
	pe := proj.ToPlane(east)
	hav := HaversineMetres(origin, east)
	if math.Abs(pe.Norm()-hav) > 0.005*hav {
		t.Errorf("plane dist %v vs haversine %v", pe.Norm(), hav)
	}
}

func TestProjectionRoundTripProperty(t *testing.T) {
	origin := LatLon{Lat: 42.6555, Lon: -71.3254, Height: 30}
	proj := NewProjection(origin)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := LatLon{
			Lat:    origin.Lat + (rng.Float64()-0.5)*0.02,
			Lon:    origin.Lon + (rng.Float64()-0.5)*0.02,
			Height: origin.Height,
		}
		out := proj.ToLatLon(proj.ToPlane(in))
		// Round trip should be within a couple of metres at campus scale
		// (the plane drops the up component, so tiny curvature error remains).
		return HaversineMetres(in, out) < 2.0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestProjectionOriginMapsToZero(t *testing.T) {
	origin := LatLon{Lat: 38.8997, Lon: -77.0486}
	proj := NewProjection(origin)
	p := proj.ToPlane(origin)
	if p.Norm() > 1e-6 {
		t.Errorf("origin maps to %v, want (0,0)", p)
	}
}
