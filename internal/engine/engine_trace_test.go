package engine

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dot11"
	"repro/internal/geom"
	"repro/internal/telemetry/trace"
)

func testTracer(t *testing.T, cfg trace.Config) *trace.Tracer {
	t.Helper()
	tr, err := trace.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestFixRangeProvenance is the end-to-end explainability contract: one
// traced FixRange yields a provenance record carrying the algorithm, Γ,
// k, the exact intersected area next to Theorem 2's prediction, the
// cache-hit flag and per-stage timings.
func TestFixRangeProvenance(t *testing.T) {
	k, store, devs := gridWorld(60, 4)
	tracer := testTracer(t, trace.Config{})
	e := testEngine(t, Config{Know: k, Store: store, WindowSec: 30, Tracer: tracer})
	dev := devs[0]

	if _, err := e.FixRange(dev, 40, 60); err != nil {
		t.Fatal(err)
	}
	p, ok := tracer.Explain(dev.String())
	if !ok {
		t.Fatal("no provenance recorded for a traced FixRange")
	}
	if p.Algorithm != "m-loc" {
		t.Errorf("Algorithm = %q, want m-loc", p.Algorithm)
	}
	if p.K == 0 || len(p.Gamma) != p.K {
		t.Errorf("K = %d with %d Γ members, want equal and > 0", p.K, len(p.Gamma))
	}
	if !p.Located || p.Err != "" {
		t.Errorf("Located = %v Err = %q, want a clean fix", p.Located, p.Err)
	}
	if p.VertexCount == 0 {
		t.Error("VertexCount = 0 for an M-Loc fix, want the intersection polygon's vertices")
	}
	if p.IntersectedAreaM2 <= 0 {
		t.Errorf("IntersectedAreaM2 = %v, want > 0", p.IntersectedAreaM2)
	}
	if p.Theorem2AreaM2 <= 0 || p.MeanRadiusM <= 0 {
		t.Errorf("Theorem2AreaM2 = %v MeanRadiusM = %v, want both > 0",
			p.Theorem2AreaM2, p.MeanRadiusM)
	}
	if p.CacheHit {
		t.Error("first fix of a Γ reported a cache hit")
	}
	if p.WindowStart != 40 || p.WindowEnd != 60 {
		t.Errorf("window = [%v, %v], want [40, 60]", p.WindowStart, p.WindowEnd)
	}
	for _, stage := range []string{"window_assembly", "localize", "trace_record"} {
		if _, ok := p.StagesMs[stage]; !ok {
			t.Errorf("StagesMs missing %q: %v", stage, p.StagesMs)
		}
	}
	if p.TraceID == "" {
		t.Error("provenance carries no trace ID")
	}

	// The same window again must resolve through the Γ cache and say so.
	if _, err := e.FixRange(dev, 40, 60); err != nil {
		t.Fatal(err)
	}
	if p, _ := tracer.Explain(dev.String()); !p.CacheHit {
		t.Error("repeat fix of the same Γ not attributed to the cache")
	}
}

// TestFixProvenanceOnFailure: a fix that cannot locate still explains
// itself — the error string is recorded and the expensive fields stay 0.
func TestFixProvenanceOnFailure(t *testing.T) {
	k, store, devs := gridWorld(60, 2)
	tracer := testTracer(t, trace.Config{})
	e := testEngine(t, Config{Know: k, Store: store, WindowSec: 30, Tracer: tracer})

	if _, err := e.Fix(devs[0], 5000); err == nil { // empty window
		t.Fatal("want error for an empty window")
	}
	p, ok := tracer.Explain(devs[0].String())
	if !ok {
		t.Fatal("failed fix left no provenance")
	}
	if p.Located || p.Err == "" {
		t.Errorf("Located = %v Err = %q, want an explained failure", p.Located, p.Err)
	}
	if len(p.Gamma) != 0 || p.IntersectedAreaM2 != 0 {
		t.Errorf("empty-window provenance carries Γ=%v area=%v", p.Gamma, p.IntersectedAreaM2)
	}
}

// TestTrackTracingAndCounters (satellite): Track's fixes feed both the
// telemetry counters and the trace ring, and tracing does not change the
// estimates.
func TestTrackTracingAndCounters(t *testing.T) {
	k, store, devs := gridWorld(60, 3)
	tracer := testTracer(t, trace.Config{Buffer: 64})
	e := testEngine(t, Config{Know: k, Store: store, WindowSec: 30, Tracer: tracer})
	plain := testEngine(t, Config{Know: k, Store: store, WindowSec: 30})

	fixes0 := e.Stats().Fixes
	finished0 := tracer.Stats().Finished
	got, err := e.Track(devs[0], 0, 200, 10)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.Track(devs[0], 0, 200, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("traced track differs from untraced: %d vs %d points", len(got), len(want))
	}

	fixes := e.Stats().Fixes - fixes0
	finished := tracer.Stats().Finished - finished0
	if fixes == 0 {
		t.Fatal("Track incremented no fix counters")
	}
	if finished != fixes {
		t.Errorf("tracer finished %d traces for %d fixes at sample=1", finished, fixes)
	}
	for _, rec := range tracer.Recent(5) {
		if rec.Kind != trace.KindFix {
			t.Errorf("Track produced a %q trace, want %q", rec.Kind, trace.KindFix)
		}
		if rec.Device != devs[0].String() {
			t.Errorf("trace device = %s, want %s", rec.Device, devs[0])
		}
		if len(rec.Spans) == 0 {
			t.Error("fix trace carries no spans")
		}
	}
}

// TestTrackSampled: with 1-in-4 sampling only a quarter of Track's fixes
// trace, and the unsampled ones pay no provenance cost but still fix.
func TestTrackSampled(t *testing.T) {
	k, store, devs := gridWorld(60, 3)
	tracer := testTracer(t, trace.Config{Sample: 0.25, Buffer: 64})
	e := testEngine(t, Config{Know: k, Store: store, WindowSec: 30, Tracer: tracer})

	fixes0 := e.Stats().Fixes
	if _, err := e.Track(devs[0], 0, 400, 10); err != nil {
		t.Fatal(err)
	}
	fixes := e.Stats().Fixes - fixes0
	finished := tracer.Stats().Finished
	wantTraces := fixes / 4
	if finished != wantTraces {
		t.Errorf("1-in-4 sampling finished %d traces for %d fixes, want %d",
			finished, fixes, wantTraces)
	}
}

// TestSnapshotTraceParallel (satellite, -race): concurrent snapshot
// workers trace concurrently tracked devices without losing records or
// corrupting the per-device explain index.
func TestSnapshotTraceParallel(t *testing.T) {
	k, store, _ := gridWorld(80, 50)
	tracer := testTracer(t, trace.Config{Buffer: 128})
	par := testEngine(t, Config{Know: k, Store: store, WindowSec: 30, Workers: 8, CacheSize: -1, Tracer: tracer})
	plain := testEngine(t, Config{Know: k, Store: store, WindowSec: 30, Workers: 1, CacheSize: -1})

	got := par.Snapshot(50)
	want := plain.Snapshot(50)
	if len(got) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("traced parallel snapshot differs: %d vs %d devices", len(got), len(want))
	}
	for dev := range got {
		p, ok := tracer.Explain(dev.String())
		if !ok {
			t.Fatalf("located device %v has no provenance at sample=1", dev)
		}
		if !p.Located || p.Device != dev.String() {
			t.Errorf("provenance for %v: located=%v device=%s", dev, p.Located, p.Device)
		}
	}
}

// TestConcurrentTrackTracing (satellite, -race): many goroutines track
// different devices against one tracer.
func TestConcurrentTrackTracing(t *testing.T) {
	k, store, devs := gridWorld(60, 8)
	tracer := testTracer(t, trace.Config{Sample: 0.5, Buffer: 32})
	e := testEngine(t, Config{Know: k, Store: store, WindowSec: 30, Tracer: tracer})

	var wg sync.WaitGroup
	errs := make(chan error, len(devs))
	for _, dev := range devs {
		wg.Add(1)
		go func(dev [6]byte) {
			defer wg.Done()
			if _, err := e.Track(dev, 0, 200, 20); err != nil {
				errs <- fmt.Errorf("%v: %w", dev, err)
			}
		}(dev)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if tracer.Stats().Finished == 0 {
		t.Error("concurrent tracking finished no traces")
	}
}

// TestUntracedEngineHasNilTracer: without a Config.Tracer every traced
// code path must stay on its nil fast path.
func TestUntracedEngineHasNilTracer(t *testing.T) {
	k, store, devs := gridWorld(60, 2)
	e := testEngine(t, Config{Know: k, Store: store, WindowSec: 30})
	if e.Tracer().Enabled() {
		t.Fatal("engine without a tracer reports tracing enabled")
	}
	if _, err := e.Fix(devs[0], 50); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Tracer().Explain(devs[0].String()); ok {
		t.Error("nil tracer explained a device")
	}
}

// TestProvenanceKnowledgeGen: provenance attributes estimates to the
// knowledge generation they were computed against.
func TestProvenanceKnowledgeGen(t *testing.T) {
	k, store, devs := gridWorld(60, 2)
	tracer := testTracer(t, trace.Config{})
	e := testEngine(t, Config{Know: k, Store: store, WindowSec: 30, Tracer: tracer})

	if _, err := e.Fix(devs[0], 50); err != nil {
		t.Fatal(err)
	}
	p0, _ := tracer.Explain(devs[0].String())
	// Re-setting identical knowledge is a no-op: invalidation is exact, so
	// the generation must not move.
	e.SetKnowledge(k)
	if _, err := e.Fix(devs[0], 50); err != nil {
		t.Fatal(err)
	}
	pSame, _ := tracer.Explain(devs[0].String())
	if pSame.KnowledgeGen != p0.KnowledgeGen {
		t.Errorf("KnowledgeGen %d -> %d across identical SetKnowledge, want unchanged",
			p0.KnowledgeGen, pSame.KnowledgeGen)
	}
	// A real knowledge change bumps the generation the next fix reports.
	shifted := k.All()
	for i := range shifted {
		shifted[i].Pos = geom.Pt(shifted[i].Pos.X+500, shifted[i].Pos.Y)
	}
	e.SetKnowledge(core.NewKnowledge(shifted))
	if _, err := e.Fix(devs[0], 50); err != nil {
		t.Fatal(err)
	}
	p1, _ := tracer.Explain(devs[0].String())
	if p1.KnowledgeGen != p0.KnowledgeGen+1 {
		t.Errorf("KnowledgeGen %d -> %d across SetKnowledge, want +1",
			p0.KnowledgeGen, p1.KnowledgeGen)
	}
}

// TestSnapshotFrameOneKnowledge swaps the knowledge while the first fix
// of a sequential map frame is inside Locate. The frame reads one view:
// every device's provenance carries the generation the frame started on,
// and the frame equals an uncached frame against the starting knowledge.
// The next frame reads the new knowledge.
func TestSnapshotFrameOneKnowledge(t *testing.T) {
	k, store, _ := gridWorld(60, 8)
	devs := store.Devices()
	loc := &gatedLocalizer{entered: make(chan struct{}), release: make(chan struct{})}
	tracer := testTracer(t, trace.Config{})
	e := testEngine(t, Config{Know: k, Store: store, WindowSec: 30, Workers: 1, Localizer: loc, Tracer: tracer})
	loc.armed.Store(true)
	frame := make(chan map[dot11.MAC]core.Estimate, 1)
	go func() { frame <- e.Snapshot(50) }()
	<-loc.entered
	newBase := shiftedKnowledge(k)
	e.SetKnowledge(newBase)
	close(loc.release)
	got := <-frame

	for _, dev := range devs {
		p, ok := tracer.Explain(dev.String())
		if !ok {
			t.Fatalf("device %v has no provenance", dev)
		}
		if p.KnowledgeGen != 0 {
			t.Errorf("device %v: KnowledgeGen %d in a frame that started on generation 0", dev, p.KnowledgeGen)
		}
	}
	ref := func(know core.Knowledge) map[dot11.MAC]core.Estimate {
		return testEngine(t, Config{Know: know, Store: store, WindowSec: 30, Workers: 1, CacheSize: -1}).Snapshot(50)
	}
	if want := ref(k); len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("frame across the swap (%d devices) differs from the starting knowledge's frame (%d)", len(got), len(want))
	}
	if got, want := e.Snapshot(50), ref(newBase); !reflect.DeepEqual(got, want) {
		t.Fatalf("frame after the swap (%d devices) differs from the new knowledge's frame (%d)", len(got), len(want))
	}
	if p, _ := tracer.Explain(devs[0].String()); p.KnowledgeGen != 1 {
		t.Errorf("frame after the swap reports KnowledgeGen %d, want 1", p.KnowledgeGen)
	}
}

// TestTheorem2AreaScaling: the memoized unit-radius quadrature must scale
// as r² (Theorem 2's closed form) and agree across repeated calls.
func TestTheorem2AreaScaling(t *testing.T) {
	a1 := theorem2Area(4, 100)
	if a1 <= 0 {
		t.Fatalf("theorem2Area(4, 100) = %v, want > 0", a1)
	}
	a2 := theorem2Area(4, 200)
	if ratio := a2 / a1; ratio < 3.999 || ratio > 4.001 {
		t.Errorf("doubling r scaled E[CA] by %v, want 4 (r² law)", ratio)
	}
	if theorem2Area(0, 100) != 0 || theorem2Area(4, 0) != 0 {
		t.Error("theorem2Area outside its domain should be 0")
	}
	if again := theorem2Area(4, 100); again != a1 {
		t.Errorf("memoized theorem2Area changed: %v vs %v", again, a1)
	}
}

func TestMeanRange(t *testing.T) {
	k, _, _ := gridWorld(4, 0)
	gamma := k.All()
	macs := []dot11.MAC{gamma[0].BSSID, gamma[1].BSSID}
	if got := meanRange(k, macs); got != 100 {
		t.Errorf("meanRange = %v, want the grid's uniform 100", got)
	}
	if got := meanRange(k, nil); got != 0 {
		t.Errorf("meanRange of empty Γ = %v, want 0", got)
	}
}
