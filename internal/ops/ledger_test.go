package ops

import (
	"math"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func stage(name string, count uint64, sum float64) telemetry.Sample {
	return telemetry.Sample{Name: "marauder_stage_seconds", Labels: `stage="` + name + `"`, Kind: telemetry.KindHistogram, Count: count, Sum: sum}
}

func fixesTotal(n uint64) telemetry.Sample {
	return telemetry.Sample{Name: "marauder_engine_fixes_total", Kind: telemetry.KindCounter, Counter: n}
}

// TestLedgerFromSnapshots covers each kind of row over a 2 s interval:
// sampled fix-path stages scaled to the fix counter, one with no timed
// fix; every-call stages from their own sums; and layers with no traffic.
func TestLedgerFromSnapshots(t *testing.T) {
	prev := []telemetry.Sample{
		fixesTotal(100),
		stage("window_assembly", 6, 0.5),
		stage("localize", 6, 1),
		stage("ingest", 10, 0.25),
		stage("publish", 3, 0.125),
	}
	cur := []telemetry.Sample{
		fixesTotal(132),
		stage("window_assembly", 8, 0.502), // 2 of 32 fixes timed at 1 ms
		stage("localize", 8, 1.004),        // ... at 2 ms
		stage("ingest", 14, 0.282),         // 4 calls, 32 ms
		stage("publish", 3, 0.125),         // idle
	}
	l := NewLedger(prev, cur, 2*time.Second)
	want := map[string]LedgerRow{
		"window_assembly":   {Items: 32, Seconds: 0.032, SecondsPerItem: 0.001, ItemsPerSec: 16, Share: 0.032 / 0.128},
		"localize":          {Items: 32, Seconds: 0.064, SecondsPerItem: 0.002, ItemsPerSec: 16, Share: 0.064 / 0.128},
		"trace_record":      {Items: 32, ItemsPerSec: 16},
		"store_scan":        {},
		"ingest":            {Items: 4, Seconds: 0.032, SecondsPerItem: 0.008, ItemsPerSec: 2, Share: 0.032 / 0.128},
		"publish":           {},
		"knowledge_refresh": {},
	}
	if l.IntervalSec != 2 || len(l.Layers) != len(want) {
		t.Fatalf("ledger over %v s with %d layers, want 2 s and %d", l.IntervalSec, len(l.Layers), len(want))
	}
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	var shares float64
	for _, r := range l.Layers {
		w, ok := want[r.Layer]
		if !ok {
			t.Fatalf("unexpected layer %q", r.Layer)
		}
		if r.Items != w.Items || !near(r.Seconds, w.Seconds) || !near(r.SecondsPerItem, w.SecondsPerItem) ||
			!near(r.ItemsPerSec, w.ItemsPerSec) || !near(r.Share, w.Share) {
			t.Errorf("%s: %+v, want %+v", r.Layer, r, w)
		}
		shares += r.Share
	}
	if !near(shares, 1) {
		t.Errorf("shares sum to %v, want 1", shares)
	}
	if hot, ok := l.Hottest(); !ok || hot.Layer != "localize" {
		t.Errorf("hottest = %+v, %v; want localize", hot, ok)
	}
}

// TestLedgerIdle: a ledger over an interval with no traffic has no
// hottest layer, and a nil previous snapshot is the process's start.
func TestLedgerIdle(t *testing.T) {
	if _, ok := NewLedger(nil, nil, time.Second).Hottest(); ok {
		t.Error("an empty ledger names a hottest layer")
	}
	l := NewLedger(nil, []telemetry.Sample{stage("publish", 2, 0.5)}, time.Second)
	if hot, ok := l.Hottest(); !ok || hot.Layer != "publish" || hot.Items != 2 || hot.Share != 1 {
		t.Errorf("from start: hottest %+v, %v; want publish with 2 items and all the time", hot, ok)
	}
}
