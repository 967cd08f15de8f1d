package engine

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dot11"
	"repro/internal/sniffer"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// stageCounts reads the observation counts of every marauder_stage_seconds
// instance plus marauder_fix_seconds from the process-default registry.
func stageCounts() map[string]uint64 {
	out := map[string]uint64{}
	for key, s := range stageSamples() {
		out[key] = s.Count
	}
	return out
}

// stageSamples reads every marauder_stage_seconds instance (keyed by its
// label string) plus marauder_fix_seconds (keyed "fix").
func stageSamples() map[string]telemetry.Sample {
	out := map[string]telemetry.Sample{}
	for _, s := range telemetry.Default().Snapshot() {
		switch s.Name {
		case "marauder_stage_seconds":
			out[s.Labels] = s
		case "marauder_fix_seconds":
			out["fix"] = s
		}
	}
	return out
}

// everyFix is a tracer that samples every fix, which also times every fix.
func everyFix(t *testing.T) *trace.Tracer { return testTracer(t, trace.Config{}) }

func stageDelta(before, after map[string]uint64, key string) uint64 {
	return after[key] - before[key]
}

func TestStageHistogramsObserveEveryFixWhenSampled(t *testing.T) {
	k, store, devs := gridWorld(40, 8)
	e := testEngine(t, Config{Know: k, Store: store, WindowSec: 30, Tracer: everyFix(t), CacheSize: -1})

	before := stageCounts()
	for _, dev := range devs {
		// Stage timing wraps the fix whether or not it succeeds (a device
		// outside coverage still pays window assembly), so errors don't
		// change the expected counts.
		_, _ = e.Fix(dev, 50)
	}
	after := stageCounts()

	n := uint64(len(devs))
	for _, stage := range []string{`stage="window_assembly"`, `stage="localize"`, `stage="trace_record"`} {
		if got := stageDelta(before, after, stage); got != n {
			t.Errorf("%s observations = %d, want %d", stage, got, n)
		}
	}
	if got := stageDelta(before, after, "fix"); got != n {
		t.Errorf("marauder_fix_seconds observations = %d, want %d", got, n)
	}
}

// TestStageHistogramsTrackStepsUseLocalize: a Track step is an ordinary
// fix, so every step is timed under window_assembly, localize and
// trace_record.
func TestStageHistogramsTrackStepsUseLocalize(t *testing.T) {
	k, store, devs := gridWorld(40, 2)
	e := testEngine(t, Config{Know: k, Store: store, WindowSec: 30, Tracer: everyFix(t), CacheSize: -1})
	before := stageCounts()
	pts, err := e.Track(devs[0], 40, 60, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Fatal("track produced no points")
	}
	after := stageCounts()
	// Every step is timed, located or not: 40, 50 and 60.
	const steps = 3
	for _, stage := range []string{`stage="window_assembly"`, `stage="localize"`, `stage="trace_record"`} {
		if got := stageDelta(before, after, stage); got != steps {
			t.Errorf("%s observations = %d, want %d", stage, got, steps)
		}
	}
}

// TestStageSamplingDefaultsAndDisable: with tracing disabled the fixed
// sampler times every 16th fix; an enabled tracer's sampled fixes are
// timed on top of that.
func TestStageSamplingDefaultsAndDisable(t *testing.T) {
	k, store, devs := gridWorld(40, 1)

	e := testEngine(t, Config{Know: k, Store: store, WindowSec: 30})
	before := stageCounts()
	for i := 0; i < 32; i++ {
		_, _ = e.Fix(devs[0], 50)
	}
	after := stageCounts()
	if got := stageDelta(before, after, "fix"); got != 2 {
		t.Errorf("32 untraced fixes observed %d times, want 2 (1 in 16)", got)
	}

	// At 1-in-2 tracing the traced fixes (every even one) include the
	// sampler's every-16th, so 32 fixes are timed 16 times.
	e = testEngine(t, Config{Know: k, Store: store, WindowSec: 30, Tracer: testTracer(t, trace.Config{Sample: 0.5})})
	before = stageCounts()
	for i := 0; i < 32; i++ {
		_, _ = e.Fix(devs[0], 50)
	}
	after = stageCounts()
	if got := stageDelta(before, after, "fix"); got != 16 {
		t.Errorf("32 fixes at 1-in-2 tracing observed %d times, want 16", got)
	}
}

// TestFixSpanFeedsEveryConsumer: one traced fix's stage histograms, fix
// histogram, trace spans and provenance read the same clock reads. Each
// stage's marauder_stage_seconds sum moves by exactly StagesMs[stage]/1e3
// and marauder_fix_seconds by TotalMs/1e3; an uncached Track step reports
// localize in both places, like any other fix.
func TestFixSpanFeedsEveryConsumer(t *testing.T) {
	k, store, devs := gridWorld(40, 2)
	tracer := everyFix(t)
	e := testEngine(t, Config{Know: k, Store: store, WindowSec: 30, Tracer: tracer, CacheSize: -1})
	check := func(name string, fix func() error, mid string) {
		t.Helper()
		before := stageSamples()
		if err := fix(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		after := stageSamples()
		p, ok := tracer.Explain(devs[0].String())
		if !ok {
			t.Fatalf("%s: no provenance", name)
		}
		stages := []string{"window_assembly", mid, "trace_record"}
		if len(p.StagesMs) != len(stages) {
			t.Errorf("%s: StagesMs = %v, want exactly %v", name, p.StagesMs, stages)
		}
		for _, st := range stages {
			key := `stage="` + st + `"`
			if n := after[key].Count - before[key].Count; n != 1 {
				t.Errorf("%s: %s observed %d times, want 1", name, st, n)
			}
			ms, ok := p.StagesMs[st]
			if !ok {
				t.Errorf("%s: StagesMs has no %s: %v", name, st, p.StagesMs)
			}
			if d := after[key].Sum - before[key].Sum - ms/1e3; math.Abs(d) > 1e-9 {
				t.Errorf("%s: %s histogram moved %v s, StagesMs says %v ms", name, st, after[key].Sum-before[key].Sum, ms)
			}
		}
		if d := after["fix"].Sum - before["fix"].Sum - p.TotalMs/1e3; math.Abs(d) > 1e-9 {
			t.Errorf("%s: fix histogram moved %v s, TotalMs says %v ms", name, after["fix"].Sum-before["fix"].Sum, p.TotalMs)
		}
		rec := tracer.Recent(1)[0]
		if len(rec.Spans) != len(stages) {
			t.Fatalf("%s: trace spans %+v, want %v", name, rec.Spans, stages)
		}
		for i, sp := range rec.Spans {
			if sp.Name != stages[i] {
				t.Errorf("%s: span %d is %q, want %q", name, i, sp.Name, stages[i])
			}
		}
		if rec.Spans[0].Attrs["gamma"] != len(p.Gamma) {
			t.Errorf("%s: window span attrs %v, want gamma=%d", name, rec.Spans[0].Attrs, len(p.Gamma))
		}
	}
	check("Fix", func() error { _, err := e.Fix(devs[0], 50); return err }, "localize")
	check("Track", func() error {
		pts, err := e.Track(devs[0], 50, 50, 10)
		if err == nil && len(pts) != 1 {
			err = fmt.Errorf("%d points, want 1", len(pts))
		}
		return err
	}, "localize")
}

func TestSnapshotObservesStoreScanStage(t *testing.T) {
	k, store, _ := gridWorld(40, 6)
	e := testEngine(t, Config{Know: k, Store: store, WindowSec: 30})
	before := stageCounts()
	if got := e.Snapshot(50); len(got) == 0 {
		t.Fatal("snapshot located nothing")
	}
	after := stageCounts()
	if got := stageDelta(before, after, `stage="store_scan"`); got != 1 {
		t.Errorf("store_scan observed %d times for one snapshot, want 1", got)
	}
}

func TestIngestCapturesObservesIngestStage(t *testing.T) {
	e := testEngine(t, Config{WindowSec: 30})
	f := dot11.NewProbeResponse(mac(1, 1), mac(2, 2), "", 1, 1)
	before := stageCounts()
	n := e.IngestCaptures([]sniffer.Capture{{TimeSec: 1, Frame: f, FromAP: true}})
	if n != 1 {
		t.Fatalf("ingested %d", n)
	}
	after := stageCounts()
	if got := stageDelta(before, after, `stage="ingest"`); got != 1 {
		t.Errorf("ingest stage observed %d times for one batch, want 1", got)
	}
}

// failLoc always errors — the "localizer broke" case the fix-error
// counter must see, as opposed to empty windows it must not.
type failLoc struct{}

func (failLoc) Name() string { return "fail" }
func (failLoc) Locate(core.Knowledge, []dot11.MAC) (core.Estimate, error) {
	return core.Estimate{}, errors.New("boom")
}

func readFixErrors(t *testing.T) uint64 {
	t.Helper()
	for _, s := range telemetry.Default().Snapshot() {
		if s.Name == "marauder_engine_fix_errors_total" {
			return s.Counter
		}
	}
	t.Fatal("marauder_engine_fix_errors_total not registered")
	return 0
}

func TestFixErrorCounterExcludesEmptyWindows(t *testing.T) {
	k, store, devs := gridWorld(40, 1)

	// Empty window (ErrNoAPs) is not an error for the availability SLO.
	e := testEngine(t, Config{Know: k, Store: store, WindowSec: 30})
	before := readFixErrors(t)
	if _, err := e.Fix(devs[0], 5000); !errors.Is(err, core.ErrNoAPs) {
		t.Fatalf("want ErrNoAPs, got %v", err)
	}
	if got := readFixErrors(t) - before; got != 0 {
		t.Errorf("empty window counted as %d fix errors", got)
	}

	// A real localization failure is.
	e = testEngine(t, Config{Know: k, Store: store, WindowSec: 30, Localizer: failLoc{}, CacheSize: -1})
	before = readFixErrors(t)
	if _, err := e.Fix(devs[0], 50); err == nil {
		t.Fatal("failLoc fix succeeded")
	}
	if got := readFixErrors(t) - before; got != 1 {
		t.Errorf("failing fix counted as %d errors, want 1", got)
	}
}
