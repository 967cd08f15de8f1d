package repro

// Tracked-trajectory equivalence suite: drives engine.Track over the
// deterministic campus for all five localization algorithms, traced, and
// requires the trajectory to be bit-identical to fixing every window
// independently with the plain per-window algorithm: the engine's window,
// trace and Track plumbing must change no estimate.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/telemetry/trace"
)

func TestTrackedTrajectoryEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline")
	}
	ew := buildEquivWorld(t)
	// 45 s windows stepped every 15 s: consecutive windows overlap, so the
	// victim's Γ slides a few APs per step.
	const (
		windowSec = 45.0
		stepSec   = 15.0
	)

	cases := []struct {
		name string
		loc  core.Localizer
		know core.Knowledge
	}{
		{"m-loc", core.MLocalizer{}, ew.know},
		{"centroid", core.CentroidLocalizer{}, ew.know},
		{"closest-ap", core.ClosestAPLocalizer{}, ew.know},
		{"ap-rad", core.APRadLocalizer{}, ew.aprad},
		{"ap-loc", &core.APLocLocalizer{}, ew.aploc},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tracer, err := trace.New(trace.Config{})
			if err != nil {
				t.Fatal(err)
			}
			// Caching disabled: every fix must run the algorithm.
			e, err := engine.New(engine.Config{
				Know:      tc.know,
				Store:     ew.store,
				Localizer: tc.loc,
				WindowSec: windowSec,
				CacheSize: -1,
				Workers:   1,
				Tracer:    tracer,
			})
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.Track(ew.victim, 0, ew.duration, stepSec)
			if err != nil {
				t.Fatal(err)
			}

			// Reference: every window fixed independently, no state reuse.
			var want []core.TrackPoint
			for i := 0; ; i++ {
				ts := float64(i) * stepSec
				if ts > ew.duration {
					break
				}
				gamma := ew.store.APSetWindow(ew.victim, ts-windowSec/2, ts+windowSec/2)
				if len(gamma) == 0 {
					continue
				}
				est, err := tc.loc.Locate(tc.know, gamma)
				if err != nil {
					continue
				}
				want = append(want, core.TrackPoint{TimeSec: ts, Est: est})
			}
			if len(want) < 5 {
				t.Fatalf("reference trajectory has only %d points; fixture too sparse", len(want))
			}
			if len(got) != len(want) {
				t.Fatalf("Track produced %d points, reference %d", len(got), len(want))
			}
			for i := range want {
				g, w := got[i], want[i]
				if g.TimeSec != w.TimeSec || g.Est.Pos != w.Est.Pos ||
					g.Est.K != w.Est.K || g.Est.Method != w.Est.Method {
					t.Fatalf("point %d: got {t=%v pos=%v k=%d %q}, want {t=%v pos=%v k=%d %q} (not bit-equal)",
						i, g.TimeSec, g.Est.Pos, g.Est.K, g.Est.Method,
						w.TimeSec, w.Est.Pos, w.Est.K, w.Est.Method)
				}
				if len(g.Est.Vertices) != len(w.Est.Vertices) {
					t.Fatalf("point %d: %d vertices, want %d", i, len(g.Est.Vertices), len(w.Est.Vertices))
				}
				for v := range w.Est.Vertices {
					if g.Est.Vertices[v] != w.Est.Vertices[v] {
						t.Fatalf("point %d vertex %d: %v, want %v", i, v, g.Est.Vertices[v], w.Est.Vertices[v])
					}
				}
			}
		})
	}
}
