package sim

import (
	"math/rand"

	"repro/internal/geom"
)

// Mobility produces a device's position as a function of simulation time in
// seconds. Implementations must be deterministic for a given construction
// so traces are reproducible.
type Mobility interface {
	PosAt(t float64) geom.Point
}

// Static keeps a device at one position.
type Static struct {
	P geom.Point
}

var _ Mobility = Static{}

// PosAt implements Mobility.
func (s Static) PosAt(float64) geom.Point { return s.P }

// RouteWalk moves along a polyline of waypoints at constant speed, stopping
// at the final waypoint. This models the paper's experimenter carrying a
// tablet around the campus.
type RouteWalk struct {
	Waypoints []geom.Point
	// SpeedMPS is the walking speed in metres per second.
	SpeedMPS float64

	cumDist []float64
}

var _ Mobility = (*RouteWalk)(nil)

// NewRouteWalk builds a RouteWalk; it needs at least one waypoint.
func NewRouteWalk(waypoints []geom.Point, speedMPS float64) *RouteWalk {
	w := &RouteWalk{
		Waypoints: append([]geom.Point(nil), waypoints...),
		SpeedMPS:  speedMPS,
	}
	w.cumDist = make([]float64, len(w.Waypoints))
	for i := 1; i < len(w.Waypoints); i++ {
		w.cumDist[i] = w.cumDist[i-1] + w.Waypoints[i-1].Dist(w.Waypoints[i])
	}
	return w
}

// Sweep returns the waypoints of a back-and-forth sweep over the square
// [-half, half]²: horizontal passes every step metres, alternating in
// direction, then, with cross, vertical passes that continue the
// alternation, as a drive over a street grid does.
func Sweep(half, step float64, cross bool) []geom.Point {
	var pts []geom.Point
	pass := func(a, b geom.Point) {
		if len(pts)%4 != 0 {
			a, b = b, a
		}
		pts = append(pts, a, b)
	}
	for y := -half; y <= half; y += step {
		pass(geom.Pt(-half, y), geom.Pt(half, y))
	}
	for x := -half; cross && x <= half; x += step {
		pass(geom.Pt(x, half), geom.Pt(x, -half))
	}
	return pts
}

// TotalDuration returns the time to traverse the whole route.
func (w *RouteWalk) TotalDuration() float64 {
	if len(w.cumDist) == 0 || w.SpeedMPS <= 0 {
		return 0
	}
	return w.cumDist[len(w.cumDist)-1] / w.SpeedMPS
}

// PosAt implements Mobility.
func (w *RouteWalk) PosAt(t float64) geom.Point {
	if len(w.Waypoints) == 0 {
		return geom.Point{}
	}
	if len(w.Waypoints) == 1 || w.SpeedMPS <= 0 || t <= 0 {
		return w.Waypoints[0]
	}
	dist := t * w.SpeedMPS
	last := len(w.Waypoints) - 1
	if dist >= w.cumDist[last] {
		return w.Waypoints[last]
	}
	// Find the segment containing dist.
	for i := 1; i <= last; i++ {
		if dist <= w.cumDist[i] {
			segLen := w.cumDist[i] - w.cumDist[i-1]
			if segLen == 0 {
				return w.Waypoints[i]
			}
			f := (dist - w.cumDist[i-1]) / segLen
			a, b := w.Waypoints[i-1], w.Waypoints[i]
			return geom.Point{X: a.X + f*(b.X-a.X), Y: a.Y + f*(b.Y-a.Y)}
		}
	}
	return w.Waypoints[last]
}

// RandomWaypoint is the classic random-waypoint mobility model inside a
// rectangular area: pick a uniform destination, move at the configured
// speed, pause, repeat. The trajectory is precomputed deterministically
// from the seed.
type RandomWaypoint struct {
	route *RouteWalk
}

var _ Mobility = (*RandomWaypoint)(nil)

// NewRandomWaypoint precomputes a random-waypoint trajectory covering at
// least duration seconds inside [min, max].
func NewRandomWaypoint(min, max geom.Point, speedMPS, duration float64, seed int64) *RandomWaypoint {
	rng := rand.New(rand.NewSource(seed))
	pt := func() geom.Point {
		return geom.Point{
			X: min.X + rng.Float64()*(max.X-min.X),
			Y: min.Y + rng.Float64()*(max.Y-min.Y),
		}
	}
	waypoints := []geom.Point{pt()}
	total := 0.0
	for total < duration*speedMPS {
		next := pt()
		total += waypoints[len(waypoints)-1].Dist(next)
		waypoints = append(waypoints, next)
	}
	return &RandomWaypoint{route: NewRouteWalk(waypoints, speedMPS)}
}

// PosAt implements Mobility.
func (r *RandomWaypoint) PosAt(t float64) geom.Point { return r.route.PosAt(t) }
