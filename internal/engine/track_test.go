package engine

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dot11"
	"repro/internal/geom"
	"repro/internal/obs"
)

// lineWalkWorld builds the canonical tracked-device fixture: nAPs on a
// line 30 m apart with 150 m ranges, and one device walking past them so
// the window centred at t = s·30 observes exactly APs s..s+k−1 — a Γ
// that slides by one AP per step.
func lineWalkWorld(nAPs, k int) (core.Knowledge, *obs.Store, dot11.MAC, float64) {
	var aps []core.APInfo
	for i := 0; i < nAPs; i++ {
		aps = append(aps, core.APInfo{
			BSSID:    mac(0xA0, byte(i+1)),
			Pos:      geom.Pt(float64(i)*30, 0),
			MaxRange: 150,
		})
	}
	know := core.NewKnowledge(aps)
	store := obs.NewStore()
	dev := mac(0xD0, 1)
	steps := nAPs - k
	seq := uint16(1)
	for s := 0; s <= steps; s++ {
		ts := float64(s) * 30
		for i := s; i < s+k; i++ {
			store.Ingest(ts, dot11.NewProbeResponse(aps[i].BSSID, dev, "", 1, seq), true)
			seq++
		}
	}
	return know, store, dev, float64(steps) * 30
}

func samePoints(t *testing.T, ctx string, got, want []core.TrackPoint) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d track points, want %d", ctx, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.TimeSec != w.TimeSec || g.Est.Pos != w.Est.Pos ||
			g.Est.K != w.Est.K || g.Est.Method != w.Est.Method {
			t.Fatalf("%s: point %d = %+v, want %+v (not bit-equal)", ctx, i, g, w)
		}
		if len(g.Est.Vertices) != len(w.Est.Vertices) {
			t.Fatalf("%s: point %d has %d vertices, want %d", ctx, i,
				len(g.Est.Vertices), len(w.Est.Vertices))
		}
		for v := range g.Est.Vertices {
			if g.Est.Vertices[v] != w.Est.Vertices[v] {
				t.Fatalf("%s: point %d vertex %d = %v, want %v",
					ctx, i, v, g.Est.Vertices[v], w.Est.Vertices[v])
			}
		}
	}
}

// TestTrackCachedVerticesDetached pins the aliasing contract on the
// cached path: estimates stored in the Γ cache must not alias buffers a
// later fix reuses, or later fixes would corrupt earlier cached results.
func TestTrackCachedVerticesDetached(t *testing.T) {
	know, store, dev, endSec := lineWalkWorld(20, 8)
	cached := testEngine(t, Config{Know: know, Store: store, WindowSec: 30})
	full := testEngine(t, Config{Know: know, Store: store, WindowSec: 30, CacheSize: -1,
		Localizer: core.LocalizerFunc{Method: "m-loc", Func: core.MLoc}})
	want, err := full.Track(dev, 0, endSec, 30)
	if err != nil {
		t.Fatal(err)
	}
	// First Track populates the cache; the second is served from the
	// cache alone.
	first, err := cached.Track(dev, 0, endSec, 30)
	if err != nil {
		t.Fatal(err)
	}
	second, err := cached.Track(dev, 0, endSec, 30)
	if err != nil {
		t.Fatal(err)
	}
	samePoints(t, "cache-filling Track", first, want)
	samePoints(t, "cache-served Track", second, want)
	st := cached.Stats()
	if st.CacheHits == 0 {
		t.Fatalf("second Track hit the cache 0 times: %+v", st)
	}
}
