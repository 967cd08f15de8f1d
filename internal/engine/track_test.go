package engine

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dot11"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/telemetry/trace"
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

// sweepWorld is a device walking a line of APs 10 m apart: at t = 5j it
// is heard with APs j and j+1 (j < 120), except in [300, 360), where it
// is silent.
func sweepWorld() (core.Knowledge, *obs.Store, dot11.MAC) {
	var aps []core.APInfo
	for i := 0; i < 140; i++ {
		aps = append(aps, core.APInfo{BSSID: mac(0xA0, byte(i)), Pos: geom.Pt(float64(i)*10, 0), MaxRange: 100})
	}
	store := obs.NewStore()
	dev := mac(0xD0, 1)
	var recs []obs.Record
	for j := 0; j < 120; j++ {
		if t := float64(5 * j); t < 300 || t >= 360 {
			for _, a := range []int{j, j + 1} {
				recs = append(recs, obs.Record{TimeSec: t, Device: dev, AP: aps[a].BSSID, Kind: obs.KindProbeResponse})
			}
		}
	}
	store.IngestBatch(recs)
	return core.NewKnowledge(aps), store, dev
}

// meddlingLocalizer is M-Loc that, on most calls, changes the tracked
// device's log behind Track's back: it ingests a record before every
// Track window and one 45 s or more past the window being located, both
// behind the log's tail, then runs a map frame over the late record on
// another engine, which re-sorts the log. A Track step runs Locate
// between its window step and the next, so every miss is such a meddling
// between two steps.
type meddlingLocalizer struct {
	core.MLocalizer
	store  *obs.Store
	frames *Engine
	dev    dot11.MAC
}

func (m meddlingLocalizer) Locate(k core.Knowledge, gamma []dot11.MAC) (core.Estimate, error) {
	// Γ's highest AP, j+1, was heard at 5j < the window's end.
	// The late record keeps out of the silent stretch, so some steps stay
	// empty.
	late := 5*float64(gamma[len(gamma)-1][5]) + 45
	if late < 595 && (late < 280 || late >= 380) {
		m.store.IngestBatch([]obs.Record{
			{TimeSec: 10, Device: m.dev, AP: gamma[0], Kind: obs.KindProbeResponse},
			{TimeSec: late, Device: m.dev, AP: mac(0xA0, byte(late/5)+7), Kind: obs.KindAssociation},
		})
		m.frames.SnapshotRange(late-1, late+1)
	}
	return m.MLocalizer.Locate(k, gamma)
}

// TestTrackSweepSurvivesMeddling (-race) tracks a device whose log is
// changed between Track's steps — out-of-order records before and after
// the window, re-sorts by a map frame on another engine — while more
// frames run concurrently. Track must equal a per-step FixRange over
// the final store, with the cache on and off, and the engine's counters
// must hold every step when Track returns: Fixes grows by the step count
// and hits plus misses by the non-empty steps.
func TestTrackSweepSurvivesMeddling(t *testing.T) {
	for _, cacheSize := range []int{0, -1} {
		know, store, dev := sweepWorld()
		frames := testEngine(t, Config{Know: know, Store: store, WindowSec: 45})
		e := testEngine(t, Config{Know: know, Store: store, WindowSec: 45, CacheSize: cacheSize,
			Localizer: meddlingLocalizer{store: store, frames: frames, dev: dev}})
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ts := 0.0; ; ts = math.Mod(ts+7, 600) {
				select {
				case <-stop:
					return
				default:
				}
				frames.Snapshot(ts)
			}
		}()
		const start, end, step = 100.0, 500.0, 1.0
		before := e.Stats()
		got, err := e.Track(dev, start, end, step)
		close(stop)
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
		after := e.Stats()

		ref := testEngine(t, Config{Know: know, Store: store, WindowSec: 45, CacheSize: -1})
		var want []core.TrackPoint
		steps, nonEmpty := 0, 0
		for i := 0; start+float64(i)*step <= end; i++ {
			ts := start + float64(i)*step
			steps++
			if len(store.APSetWindow(dev, ts-22.5, ts+22.5)) > 0 {
				nonEmpty++
			}
			if est, err := ref.FixRange(dev, ts-22.5, ts+22.5); err == nil {
				want = append(want, core.TrackPoint{TimeSec: ts, Est: est})
			}
		}
		samePoints(t, fmt.Sprintf("cache %d", cacheSize), got, want)
		if nonEmpty == steps {
			t.Fatalf("cache %d: no empty step", cacheSize)
		}
		fixes := after.Fixes - before.Fixes
		answered := after.CacheHits + after.CacheMisses - before.CacheHits - before.CacheMisses
		if fixes != uint64(steps) || answered != uint64(nonEmpty) {
			t.Errorf("cache %d: %d fixes and %d hits+misses for %d steps, %d non-empty",
				cacheSize, fixes, answered, steps, nonEmpty)
		}
		if hits := after.CacheHits - before.CacheHits; (cacheSize < 0) != (hits == 0) {
			t.Errorf("cache %d: %d hits", cacheSize, hits)
		}
	}
}

// TestTrackRejectsNonFinite: a NaN or infinite bound or step is an error,
// not a loop whose step time never passes the end.
func TestTrackRejectsNonFinite(t *testing.T) {
	know, store, dev := sweepWorld()
	e := testEngine(t, Config{Know: know, Store: store, WindowSec: 45})
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range [][3]float64{{0, 10, nan}, {-inf, 10, 5}, {0, inf, 5}, {nan, 10, 5}, {0, nan, 5}, {0, 10, inf}} {
		done := make(chan error, 1)
		go func() {
			_, err := e.Track(dev, c[0], c[1], c[2])
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("Track(%v, %v, %v) succeeded, want an error", c[0], c[1], c[2])
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("Track(%v, %v, %v) still running after 2 s", c[0], c[1], c[2])
		}
	}
}

// TestTrackReusedStepsTraced: a traced Track step that reused the previous
// step's answer files a provenance record like any cache hit — the
// window's own Γ and bounds, cacheHit true — and the traced hits are the
// engine's hits.
func TestTrackReusedStepsTraced(t *testing.T) {
	know, store, dev := sweepWorld()
	tracer := testTracer(t, trace.Config{Buffer: 256})
	e := testEngine(t, Config{Know: know, Store: store, WindowSec: 45, Tracer: tracer})
	// Records come every 5 s and the window moves 1 s a step, so four
	// steps in five see the previous step's Γ.
	pts, err := e.Track(dev, 100, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	recs := tracer.Recent(256)
	if len(recs) != 101 || len(pts) != 101 {
		t.Fatalf("%d traces and %d points for 101 steps", len(recs), len(pts))
	}
	var hits uint64
	for _, r := range recs {
		p := r.Provenance
		if p == nil || !p.Located {
			t.Fatalf("trace %+v has no located provenance", r)
		}
		if want := macStrings(store.APSetWindow(dev, p.WindowStart, p.WindowEnd)); !slices.Equal(p.Gamma, want) {
			t.Fatalf("[%v, %v): provenance Γ %v, want %v", p.WindowStart, p.WindowEnd, p.Gamma, want)
		}
		if p.CacheHit {
			hits++
		}
	}
	if st := e.Stats(); hits != st.CacheHits || hits < 80 {
		t.Fatalf("%d traced hits, engine counted %d; want the same, at least 80", hits, st.CacheHits)
	}
}
