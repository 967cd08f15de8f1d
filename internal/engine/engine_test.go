package engine

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dot11"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/telemetry/trace"
)

func mac(hi, lo byte) dot11.MAC { return dot11.MAC{0, 0, 0, 0, hi, lo} }

// gridWorld builds a synthetic campus: nAPs on a grid with 100 m ranges
// and nDevs devices, each with pairwise records at t=50 naming the APs
// within range of its position.
func gridWorld(nAPs, nDevs int) (core.Knowledge, *obs.Store, []dot11.MAC) {
	var aps []core.APInfo
	side := 1
	for side*side < nAPs {
		side++
	}
	for i := 0; i < nAPs; i++ {
		m := mac(0xA0+byte(i/200), byte(i%200))
		pos := geom.Pt(float64(i%side)*70-350, float64(i/side)*70-350)
		aps = append(aps, core.APInfo{BSSID: m, Pos: pos, MaxRange: 100})
	}
	k := core.NewKnowledge(aps)
	store := obs.NewStore()
	devs := make([]dot11.MAC, nDevs)
	for d := 0; d < nDevs; d++ {
		dev := mac(0xD0+byte(d/200), byte(d%200))
		devs[d] = dev
		// Deterministic pseudo-random device position.
		x := float64((d*7919)%700) - 350
		y := float64((d*104729)%700) - 350
		pos := geom.Pt(x, y)
		seq := uint16(1)
		for _, ap := range aps {
			if ap.Pos.Dist(pos) <= ap.MaxRange {
				store.Ingest(50, dot11.NewProbeResponse(ap.BSSID, dev, "", 1, seq), true)
				seq++
			}
		}
	}
	return k, store, devs
}

// shiftedKnowledge is k with every AP moved 500 m east: the same Γ then
// localizes elsewhere.
func shiftedKnowledge(k core.Knowledge) core.Knowledge {
	aps := k.All()
	for i := range aps {
		aps[i].Pos = geom.Pt(aps[i].Pos.X+500, aps[i].Pos.Y)
	}
	return core.NewKnowledge(aps)
}

func testEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewValidatesConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("want error for missing WindowSec")
	}
	if _, err := New(Config{WindowSec: 30, CacheSize: 4096}); err == nil || !strings.Contains(err.Error(), "CacheSize") {
		t.Fatalf("positive CacheSize: err = %v, want one naming CacheSize", err)
	}
	e := testEngine(t, Config{WindowSec: 30})
	if e.Localizer().Name() != "m-loc" {
		t.Errorf("default localizer = %q", e.Localizer().Name())
	}
	if e.Store() == nil {
		t.Error("default store missing")
	}
}

// referenceFix is the sequential, uncached oracle the engine is checked
// against: Γ straight from the store, then the plain Localizer.
func referenceFix(loc core.Localizer, k core.Knowledge, store *obs.Store, dev dot11.MAC, start, end float64) (core.Estimate, error) {
	gamma := store.APSetWindow(dev, start, end)
	if len(gamma) == 0 {
		return core.Estimate{}, core.ErrNoAPs
	}
	return loc.Locate(k, gamma)
}

// referenceTrack steps referenceFix over [startSec, endSec] at
// startSec + i·stepSec, skipping windows that fail.
func referenceTrack(loc core.Localizer, k core.Knowledge, store *obs.Store, windowSec float64, dev dot11.MAC, startSec, endSec, stepSec float64) []core.TrackPoint {
	var out []core.TrackPoint
	for i := 0; startSec+float64(i)*stepSec <= endSec; i++ {
		ts := startSec + float64(i)*stepSec
		if est, err := referenceFix(loc, k, store, dev, ts-windowSec/2, ts+windowSec/2); err == nil {
			out = append(out, core.TrackPoint{TimeSec: ts, Est: est})
		}
	}
	return out
}

func TestFixMatchesTracker(t *testing.T) {
	k, store, devs := gridWorld(60, 10)
	e := testEngine(t, Config{Know: k, Store: store, WindowSec: 30})
	for _, dev := range devs {
		got, gotErr := e.Fix(dev, 50)
		want, wantErr := referenceFix(core.MLocalizer{}, k, store, dev, 35, 65)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%v: engine err %v, reference err %v", dev, gotErr, wantErr)
		}
		if gotErr == nil && got.Pos != want.Pos {
			t.Fatalf("%v: engine %v, reference %v", dev, got.Pos, want.Pos)
		}
	}
	if _, err := e.Fix(devs[0], 500); !errors.Is(err, core.ErrNoAPs) {
		t.Errorf("empty window: %v", err)
	}
}

// TestSnapshotParallelMatchesSequential runs the chunked fan-out over far
// more devices than snapshotChunk × workers, so every worker claims many
// chunks and the last chunk is partial, with the Γ cache on and off.
func TestSnapshotParallelMatchesSequential(t *testing.T) {
	k, store, _ := gridWorld(80, 1234)
	seq := testEngine(t, Config{Know: k, Store: store, WindowSec: 30, Workers: 1, CacheSize: -1})
	want := seq.Snapshot(50)
	if len(want) < 1000 {
		t.Fatalf("sequential snapshot located %d devices, want ≥ 1000", len(want))
	}
	for _, workers := range []int{2, 3, 8} {
		for _, cacheSize := range []int{-1, 0} {
			par := testEngine(t, Config{Know: k, Store: store, WindowSec: 30, Workers: workers, CacheSize: cacheSize})
			for round := 0; round < 2; round++ { // the second round is served from the cache
				if got := par.Snapshot(50); !reflect.DeepEqual(got, want) {
					t.Fatalf("workers=%d cache=%d round %d: parallel snapshot differs: %d vs %d devices",
						workers, cacheSize, round, len(got), len(want))
				}
			}
		}
	}
}

// TestParallelSnapshotDuringIngest is the chunked fan-out's -race check:
// snapshots over more than a thousand devices run while new devices and
// records stream in, and once ingest settles the parallel cached answer
// equals a sequential uncached one.
func TestParallelSnapshotDuringIngest(t *testing.T) {
	k, store, devs := gridWorld(80, 1400)
	e := testEngine(t, Config{Know: k, Store: store, WindowSec: 30, Workers: 3})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ap := mac(0xA0, byte(w))
			for i := 0; i < 1500; i++ {
				dev := devs[i%len(devs)]
				if i%5 == 0 {
					dev = mac(0xF0+byte(w), byte(i/5)) // first sighting
				}
				e.Ingest(float64(40+(i*13)%30), dot11.NewProbeResponse(ap, dev, "", 1, uint16(i)), true)
			}
		}(w)
	}
	for i := 0; i < 4; i++ {
		if len(e.Snapshot(50)) == 0 {
			t.Error("snapshot located nothing mid-stream")
		}
	}
	wg.Wait()
	ref := testEngine(t, Config{Know: k, Store: store, WindowSec: 30, Workers: 1, CacheSize: -1})
	got, want := e.Snapshot(50), ref.Snapshot(50)
	if len(want) < 500 || !reflect.DeepEqual(got, want) {
		t.Fatalf("settled parallel snapshot (%d devices) differs from sequential reference (%d)", len(got), len(want))
	}
}

// TestConcurrentSwapsResetsAndFixes runs SetKnowledge, ResetObservations,
// Snapshot and Fix at once (run it under -race). Afterwards no more fixes
// hit or missed than were answered (empty windows do neither), every
// cache entry ever dropped or held came from a miss, each knowledge change moved the generation once, and a fix on the
// final view equals a fresh Locate against the final knowledge.
func TestConcurrentSwapsResetsAndFixes(t *testing.T) {
	k, store, devs := gridWorld(60, 16)
	bases := [2]core.Knowledge{k, shiftedKnowledge(k)}
	gamma := store.APSetWindow(devs[0], 35, 65)
	e := testEngine(t, Config{Know: k, Store: store, WindowSec: 30, Workers: 2})
	const swaps, rounds = 40, 200
	var wg sync.WaitGroup
	wg.Add(4)
	go func() {
		defer wg.Done()
		for i := 1; i <= swaps; i++ {
			e.SetKnowledge(bases[i%2])
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < swaps; i++ {
			e.ResetObservations()
			for j, ap := range gamma {
				e.Ingest(50, dot11.NewProbeResponse(ap, devs[0], "", 1, uint16(j+1)), true)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds/10; i++ {
			e.Snapshot(50)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			_, err := e.Fix(devs[i%len(devs)], 50)
			if err != nil && !errors.Is(err, core.ErrNoAPs) {
				t.Errorf("fix: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	s := e.Stats()
	if s.Fixes < rounds || s.CacheHits+s.CacheMisses > s.Fixes || s.CacheMisses == 0 {
		t.Errorf("fixes %d, hits %d + misses %d", s.Fixes, s.CacheHits, s.CacheMisses)
	}
	if s.CacheEvictions+uint64(s.CacheEntries) > s.CacheMisses {
		t.Errorf("evictions %d + entries %d exceed the %d misses that filled the cache",
			s.CacheEvictions, s.CacheEntries, s.CacheMisses)
	}
	if s.KnowledgeGen != swaps {
		t.Errorf("KnowledgeGen %d after %d knowledge changes", s.KnowledgeGen, swaps)
	}
	if s.ObsShards != store.ShardCount() {
		t.Errorf("%d store shards after resets, want %d", s.ObsShards, store.ShardCount())
	}
	got, err := e.Fix(devs[0], 50)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.MLocalizer{}.Locate(bases[swaps%2], gamma)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fix on the final view = %v, want the final knowledge's %v", got.Pos, want.Pos)
	}
}

// TestCachedFixZeroAllocs pins the Γ-cache key in its stack buffer: a fix
// answered by the cache, by a fixer that keeps its buffers across fixes as
// the snapshot workers and Track do, allocates nothing.
func TestCachedFixZeroAllocs(t *testing.T) { cachedFixZeroAllocs(t, nil) }

// TestCachedTracedFixZeroAllocs: with a tracer on, a fix the tracer does
// not sample allocates nothing either; it formats no device MAC.
func TestCachedTracedFixZeroAllocs(t *testing.T) {
	tr, err := trace.New(trace.Config{Sample: 0.0001})
	if err != nil {
		t.Fatal(err)
	}
	cachedFixZeroAllocs(t, tr)
}

func cachedFixZeroAllocs(t *testing.T, tr *trace.Tracer) {
	k, store, devs := gridWorld(60, 4)
	e := testEngine(t, Config{Know: k, Store: store, WindowSec: 30, Tracer: tr})
	// Two devices with different Γ, so every fix looks its Γ up in the
	// cache instead of reusing the fixer's last answer.
	if reflect.DeepEqual(store.APSetWindow(devs[0], 35, 65), store.APSetWindow(devs[1], 35, 65)) {
		t.Fatal("fixture devices share a Γ")
	}
	v := e.view.Load()
	f := e.newFixer(v)
	fix := func() {
		for _, dev := range devs[:2] {
			f.reserve(1)
			w := v.store.Sweep(dev)
			if _, err := f.fix(&w, dev, 35, 65); err != nil {
				t.Fatal(err)
			}
		}
		f.flush()
	}
	fix()
	hits := e.Stats().CacheHits
	if avg := testing.AllocsPerRun(200, fix); avg != 0 {
		t.Fatalf("cache-hit fix allocates %.2f times, want 0", avg)
	}
	if e.Stats().CacheHits == hits {
		t.Fatal("fixes were not served from the cache")
	}
}

func TestTrackMatchesTrackerAndSkipsGaps(t *testing.T) {
	k, store, devs := gridWorld(60, 3)
	e := testEngine(t, Config{Know: k, Store: store, WindowSec: 30})
	got, err := e.Track(devs[0], 0, 200, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceTrack(core.MLocalizer{}, k, store, 30, devs[0], 0, 200, 10)
	if len(want) == 0 || len(want) == 21 {
		t.Fatalf("reference track has %d of 21 points, want some windows located and some skipped", len(want))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("engine track %d points, reference %d", len(got), len(want))
	}
	if _, err := e.Track(devs[0], 0, 10, 0); err == nil {
		t.Error("want error for zero step")
	}
}

// TestTrackNoDrift: Track computes step i as startSec + i·stepSec rather
// than accumulating stepSec, so after ten thousand 0.1 s steps every
// timestamp still sits exactly on the step grid. Accumulation would be off
// by ~1e-10 s by then.
func TestTrackNoDrift(t *testing.T) {
	k, store, devs := gridWorld(60, 1)
	// A second sighting near the end of the range, so points exist where
	// accumulated drift would be largest.
	gamma := store.APSetWindow(devs[0], 0, 100)
	for i, ap := range gamma {
		store.Ingest(995, dot11.NewProbeResponse(ap, devs[0], "", 1, uint16(100+i)), true)
	}
	const step = 0.1
	e := testEngine(t, Config{Know: k, Store: store, WindowSec: 30})
	pts, err := e.Track(devs[0], 0, 1000, step)
	if err != nil {
		t.Fatal(err)
	}
	late := 0
	for _, p := range pts {
		if i := math.Round(p.TimeSec / step); p.TimeSec != i*step {
			t.Fatalf("timestamp %v is off the step grid by %.2e", p.TimeSec, p.TimeSec-i*step)
		}
		if p.TimeSec > 900 {
			late++
		}
	}
	if late == 0 {
		t.Fatal("no points near the end of the range")
	}
}

// TestConcurrentIngestWhileSnapshot streams captures into the store while
// snapshots and fixes run — the engine's core concurrency contract, meant
// to run under -race.
func TestConcurrentIngestWhileSnapshot(t *testing.T) {
	k, store, devs := gridWorld(60, 20)
	e := testEngine(t, Config{Know: k, Store: store, WindowSec: 30, Workers: 4})

	const (
		writers         = 3
		framesPerWriter = 2000
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ap := mac(0xA0, byte(w))
			for i := 0; i < framesPerWriter; i++ {
				// Mix in out-of-order timestamps to stress the window index.
				ts := float64(40 + (i*13)%30)
				e.Ingest(ts, dot11.NewProbeResponse(ap, devs[i%len(devs)], "", 1, uint16(i)), true)
				if i%64 == 0 {
					runtime.Gosched()
				}
			}
		}(w)
	}
	for i := 0; i < 15; i++ {
		snap := e.Snapshot(50)
		if len(snap) == 0 {
			t.Error("snapshot located nothing mid-stream")
			break
		}
		if _, err := e.Fix(devs[0], 50); err != nil {
			t.Errorf("fix mid-stream: %v", err)
			break
		}
	}
	wg.Wait()
	// After the stream settles, the parallel cached snapshot must agree
	// with a fresh sequential uncached engine over the same store.
	ref := testEngine(t, Config{Know: k, Store: store, WindowSec: 30, Workers: 1, CacheSize: -1})
	got, want := e.Snapshot(50), ref.Snapshot(50)
	if len(want) == 0 {
		t.Fatal("reference snapshot located nothing")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("settled snapshot (%d devices) differs from sequential reference (%d)",
			len(got), len(want))
	}
}

func TestCacheHitsAndInvalidation(t *testing.T) {
	k, store, devs := gridWorld(60, 4)
	e := testEngine(t, Config{Know: k, Store: store, WindowSec: 30})

	first, err := e.Fix(devs[0], 50)
	if err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.CacheMisses == 0 || s.CacheHits != 0 {
		t.Fatalf("after first fix: %+v", s)
	}
	second, err := e.Fix(devs[0], 50)
	if err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.CacheHits != 1 {
		t.Fatalf("after second fix: %+v", s)
	}
	if first.Pos != second.Pos {
		t.Fatal("cached estimate differs")
	}

	// Shift every AP: the same Γ must now localize elsewhere, so the
	// cache has to be invalidated by the knowledge swap.
	shiftedInfos := k.All()
	for i := range shiftedInfos {
		shiftedInfos[i].Pos = geom.Pt(shiftedInfos[i].Pos.X+500, shiftedInfos[i].Pos.Y)
	}
	e.SetKnowledge(core.NewKnowledge(shiftedInfos))
	third, err := e.Fix(devs[0], 50)
	if err != nil {
		t.Fatal(err)
	}
	if third.Pos == first.Pos {
		t.Fatal("stale estimate served after knowledge update")
	}
	if third.Pos.X-first.Pos.X < 499 {
		t.Fatalf("post-update estimate %v not shifted from %v", third.Pos, first.Pos)
	}
}

func TestCacheDisabled(t *testing.T) {
	k, store, devs := gridWorld(60, 2)
	e := testEngine(t, Config{Know: k, Store: store, WindowSec: 30, CacheSize: -1})
	if _, err := e.Fix(devs[0], 50); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Fix(devs[0], 50); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.CacheHits != 0 || s.CacheMisses != 2 {
		t.Fatalf("cache disabled but stats = %+v", s)
	}
}

func TestRefreshKnowledgeTrainsAPRad(t *testing.T) {
	// Positions known, radii withheld: RefreshKnowledge must estimate them
	// from co-observations and swap the trained base in.
	base := core.NewKnowledge([]core.APInfo{
		{BSSID: mac(0xA0, 1), Pos: geom.Pt(-50, 0)},
		{BSSID: mac(0xA0, 2), Pos: geom.Pt(50, 0)},
		{BSSID: mac(0xA0, 3), Pos: geom.Pt(400, 0)},
	})
	e := testEngine(t, Config{
		Know:      base,
		Localizer: core.APRadLocalizer{Cfg: core.APRadConfig{MaxRadius: 150}},
		WindowSec: 30,
	})
	dev := mac(0xD0, 1)
	e.Ingest(10, dot11.NewProbeResponse(mac(0xA0, 1), dev, "", 1, 1), true)
	e.Ingest(11, dot11.NewProbeResponse(mac(0xA0, 2), dev, "", 6, 2), true)

	// Before training the base has no radii, so M-Loc has no usable discs.
	if _, err := e.Fix(dev, 10); err == nil {
		t.Fatal("want failure before radius training")
	}
	if err := e.RefreshKnowledge(); err != nil {
		t.Fatal(err)
	}
	know := e.Knowledge()
	in1, _ := know.Get(mac(0xA0, 1))
	in2, _ := know.Get(mac(0xA0, 2))
	if sum := in1.MaxRange + in2.MaxRange; sum < 100-1e-6 {
		t.Fatalf("trained radii sum %v < co-observation distance", sum)
	}
	est, err := e.Fix(dev, 10)
	if err != nil {
		t.Fatal(err)
	}
	if est.Method != "ap-rad" {
		t.Errorf("method = %q", est.Method)
	}
	if est.Pos.Dist(geom.Pt(0, 0)) > 60 {
		t.Errorf("estimate %v far from co-observed midpoint", est.Pos)
	}
}

func TestRefreshKnowledgeNoopWithoutTrainer(t *testing.T) {
	k, store, _ := gridWorld(10, 1)
	e := testEngine(t, Config{Know: k, Store: store, WindowSec: 30})
	if err := e.RefreshKnowledge(); err != nil {
		t.Fatal(err)
	}
	if !e.Knowledge().Equal(k) {
		t.Error("no-op refresh changed the knowledge")
	}
}

func TestResetObservations(t *testing.T) {
	k, store, devs := gridWorld(60, 2)
	e := testEngine(t, Config{Know: k, Store: store, WindowSec: 30})
	if _, err := e.Fix(devs[0], 50); err != nil {
		t.Fatal(err)
	}
	e.ResetObservations()
	if n := e.Store().Len(); n != 0 {
		t.Fatalf("store has %d records after reset", n)
	}
	if _, err := e.Fix(devs[0], 50); !errors.Is(err, core.ErrNoAPs) {
		t.Errorf("fix after reset: %v", err)
	}
}

func TestResetObservationsKeepsShardCount(t *testing.T) {
	k, _, _ := gridWorld(10, 1)
	e := testEngine(t, Config{Know: k, Store: obs.NewStoreShards(8), WindowSec: 30})
	e.ResetObservations()
	if got := e.Store().ShardCount(); got != 8 {
		t.Fatalf("shard count after reset = %d, want 8", got)
	}
}

func TestGammaKeyCanonical(t *testing.T) {
	gammaKey := func(g []dot11.MAC) string {
		keys := make([]uint64, len(g))
		for i, m := range g {
			keys[i] = m.Key()
		}
		key := string(appendGammaKey(nil, keys))
		// The key is the MACs' bytes in order, as it was when Γ came as
		// MACs, so a cache entry costs what it did.
		var want []byte
		for _, m := range g {
			want = append(want, m[:]...)
		}
		if key != string(want) {
			t.Fatalf("key of %v = %x, want the MAC bytes %x", g, key, want)
		}
		return key
	}
	a := []dot11.MAC{mac(0, 1), mac(0, 2)}
	b := []dot11.MAC{mac(0, 1), mac(0, 2)}
	if gammaKey(a) != gammaKey(b) {
		t.Error("identical Γ produced different keys")
	}
	if gammaKey(a) == gammaKey(a[:1]) {
		t.Error("different Γ collided")
	}
}

// TestTelemetryCountersTrackCache re-runs the cache-invalidation scenario
// and asserts the process-wide telemetry counters advance in lockstep with
// the engine's own Stats — the exported hit/miss/eviction series must be
// trustworthy before any scaling PR leans on them.
func TestTelemetryCountersTrackCache(t *testing.T) {
	k, store, devs := gridWorld(60, 4)
	e := testEngine(t, Config{Know: k, Store: store, WindowSec: 30})

	base := e.Stats()
	hits0, misses0 := mCacheHits.Value(), mCacheMisses.Value()
	evict0, fixes0 := mCacheEvictions.Value(), mFixes.Value()

	if _, err := e.Fix(devs[0], 50); err != nil { // miss
		t.Fatal(err)
	}
	if _, err := e.Fix(devs[0], 50); err != nil { // hit
		t.Fatal(err)
	}
	shifted := k.All()
	for i := range shifted {
		shifted[i].Pos = geom.Pt(shifted[i].Pos.X+500, shifted[i].Pos.Y)
	}
	e.SetKnowledge(core.NewKnowledge(shifted))    // evicts the one cached entry
	if _, err := e.Fix(devs[0], 50); err != nil { // miss again
		t.Fatal(err)
	}

	s := e.Stats()
	wantHits := s.CacheHits - base.CacheHits
	wantMisses := s.CacheMisses - base.CacheMisses
	wantEvict := s.CacheEvictions - base.CacheEvictions
	wantFixes := s.Fixes - base.Fixes
	if wantHits != 1 || wantMisses != 2 || wantEvict != 1 || wantFixes != 3 {
		t.Fatalf("engine stats delta hits=%d misses=%d evictions=%d fixes=%d",
			wantHits, wantMisses, wantEvict, wantFixes)
	}
	if got := mCacheHits.Value() - hits0; got != wantHits {
		t.Errorf("telemetry hits delta = %d, want %d", got, wantHits)
	}
	if got := mCacheMisses.Value() - misses0; got != wantMisses {
		t.Errorf("telemetry misses delta = %d, want %d", got, wantMisses)
	}
	if got := mCacheEvictions.Value() - evict0; got != wantEvict {
		t.Errorf("telemetry evictions delta = %d, want %d", got, wantEvict)
	}
	if got := mFixes.Value() - fixes0; got != wantFixes {
		t.Errorf("telemetry fixes delta = %d, want %d", got, wantFixes)
	}
	// The entries gauge follows the last insert: the one post-swap miss.
	if s.CacheEntries != 1 || mCacheEntries.Value() != 1 {
		t.Errorf("cache entries = %d, gauge %v, want 1", s.CacheEntries, mCacheEntries.Value())
	}
}

// TestStatsReportWorkers covers the satellite fix: the resolved pool size
// (after the GOMAXPROCS default) is observable, not silent.
func TestStatsReportWorkers(t *testing.T) {
	e := testEngine(t, Config{WindowSec: 30, Workers: 3})
	if got := e.Stats().Workers; got != 3 {
		t.Fatalf("workers = %d", got)
	}
	auto := testEngine(t, Config{WindowSec: 30})
	if got := auto.Stats().Workers; got != runtime.GOMAXPROCS(0) {
		t.Fatalf("auto workers = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if mWorkers.Value() != float64(runtime.GOMAXPROCS(0)) {
		t.Fatalf("worker gauge = %v", mWorkers.Value())
	}
}

// TestSnapshotTelemetry asserts the snapshot counter and latency histogram
// advance per snapshot.
func TestSnapshotTelemetry(t *testing.T) {
	k, store, _ := gridWorld(30, 5)
	e := testEngine(t, Config{Know: k, Store: store, WindowSec: 30})
	snaps0, lat0 := mSnapshots.Value(), mSnapshotSeconds.Count()
	e.Snapshot(50)
	e.Snapshot(50)
	if got := mSnapshots.Value() - snaps0; got != 2 {
		t.Errorf("snapshot counter delta = %d", got)
	}
	if got := mSnapshotSeconds.Count() - lat0; got != 2 {
		t.Errorf("snapshot latency observations delta = %d", got)
	}
}
