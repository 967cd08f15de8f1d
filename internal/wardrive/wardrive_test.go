package wardrive

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/sim"
)

func trainingWorld(t *testing.T) *sim.World {
	t.Helper()
	w := sim.NewWorld(1)
	for i, pos := range []geom.Point{geom.Pt(0, 0), geom.Pt(200, 0), geom.Pt(400, 0)} {
		ap, err := sim.NewAP(i, "net", pos, 6, 150)
		if err != nil {
			t.Fatal(err)
		}
		w.AddAP(ap)
	}
	return w
}

func TestCollectAlong(t *testing.T) {
	w := trainingWorld(t)
	route := sim.NewRouteWalk([]geom.Point{geom.Pt(-100, 10), geom.Pt(500, 10)}, 10)
	c := Collector{World: w}
	tuples := c.CollectAlong(route, 5)
	if len(tuples) == 0 {
		t.Fatal("no tuples collected")
	}
	for _, tp := range tuples {
		if len(tp.APs) == 0 {
			t.Error("tuple without APs should have been dropped")
		}
		// Every recorded AP must actually be communicable from the tuple
		// position (no GPS noise configured).
		for _, m := range tp.APs {
			ap, ok := w.APByMAC(m)
			if !ok {
				t.Fatalf("unknown AP %v", m)
			}
			if tp.Pos.Dist(ap.Pos) > ap.MaxRange+1e-9 {
				t.Errorf("AP %v not communicable from %v", m, tp.Pos)
			}
		}
	}
}

func TestCollectAlongDegenerate(t *testing.T) {
	c := Collector{World: trainingWorld(t)}
	if got := c.CollectAlong(nil, 5); got != nil {
		t.Error("nil route should collect nothing")
	}
	route := sim.NewRouteWalk([]geom.Point{geom.Pt(0, 0)}, 1)
	if got := c.CollectAlong(route, 0); got != nil {
		t.Error("non-positive interval should collect nothing")
	}
}

// stops is a route whose probe stops, one per interval, fall on points.
func stops(points ...geom.Point) (*sim.RouteWalk, float64) {
	route := sim.NewRouteWalk(points, 10)
	if len(points) < 2 {
		return route, 1
	}
	return route, route.TotalDuration() / float64(len(points)-1)
}

func TestCollectAlongSkipsDeadZones(t *testing.T) {
	c := Collector{World: trainingWorld(t)}
	tuples := c.CollectAlong(stops(geom.Pt(0, 0), geom.Pt(9999, 9999)))
	if len(tuples) != 1 {
		t.Fatalf("tuples = %d, want 1 (dead zone dropped)", len(tuples))
	}
}

func TestGPSNoise(t *testing.T) {
	w := trainingWorld(t)
	noisy := Collector{World: w, GPSNoiseStdM: 5, RNG: rand.New(rand.NewSource(3))}
	clean := Collector{World: w}
	p := geom.Pt(10, 10)
	nt := noisy.CollectAlong(stops(p))
	ct := clean.CollectAlong(stops(p))
	if len(nt) != 1 || len(ct) != 1 {
		t.Fatal("expected one tuple each")
	}
	if ct[0].Pos != p {
		t.Error("clean collection must record the true position")
	}
	if nt[0].Pos == p {
		t.Error("noisy collection should perturb the position")
	}
	if nt[0].Pos.Dist(p) > 50 {
		t.Errorf("noise too large: %v", nt[0].Pos.Dist(p))
	}
	// Noise configured but no RNG: disabled.
	noRng := Collector{World: w, GPSNoiseStdM: 5}
	if got := noRng.CollectAlong(stops(p)); got[0].Pos != p {
		t.Error("noise without RNG must be disabled")
	}
}

func TestTuplesForAPAndAPsInTraining(t *testing.T) {
	w := trainingWorld(t)
	c := Collector{World: w}
	tuples := c.CollectAlong(stops(geom.Pt(0, 0), geom.Pt(100, 0), geom.Pt(200, 0)))
	aps := APsInTraining(tuples)
	if len(aps) < 2 {
		t.Fatalf("training should hear at least 2 APs, got %v", aps)
	}
	pts := TuplesForAP(tuples, w.APs[0].MAC)
	if len(pts) == 0 {
		t.Fatal("AP 0 should be heard somewhere")
	}
	for _, p := range pts {
		if p.Dist(w.APs[0].Pos) > w.APs[0].MaxRange+1e-9 {
			t.Errorf("training point %v outside AP range", p)
		}
	}
	if got := TuplesForAP(tuples, sim.NewMAC(0xEE, 1)); len(got) != 0 {
		t.Error("unknown AP should have no tuples")
	}
}
