package slo

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// fakeClock steps time manually.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time          { return c.now }
func (c *fakeClock) Advance(d time.Duration) { c.now = c.now.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{now: time.Unix(1_700_000_000, 0)} }
func mustNew(t *testing.T, cfg Config) *Tracker {
	t.Helper()
	tr, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return tr
}

func TestNilTrackerIsSafe(t *testing.T) {
	var tr *Tracker
	tr.Observe(time.Now(), nil)
	if rep := tr.Report(); len(rep.Objectives) != 0 {
		t.Errorf("nil Report: %+v", rep)
	}
	if rs := tr.HealthReasons(); rs != nil {
		t.Errorf("nil HealthReasons: %v", rs)
	}
}

func TestNewValidates(t *testing.T) {
	cases := []Config{
		{}, // no objectives
		{Objectives: []Objective{{Name: "", Kind: KindLatency, Target: 0.9, Series: "s", ThresholdSeconds: 1}}},
		{Objectives: []Objective{{Name: "x", Kind: "nope", Target: 0.9}}},
		{Objectives: []Objective{{Name: "x", Kind: KindLatency, Target: 1.5, Series: "s", ThresholdSeconds: 1}}},
		{Objectives: []Objective{{Name: "x", Kind: KindLatency, Target: 0.9, Series: "", ThresholdSeconds: 1}}},
		{Objectives: []Objective{{Name: "x", Kind: KindAvailability, Target: 0.9, TotalSeries: "t", BadSeries: ""}}},
		{Objectives: []Objective{ // duplicate name
			{Name: "x", Kind: KindLatency, Target: 0.9, Series: "s", ThresholdSeconds: 1},
			{Name: "x", Kind: KindLatency, Target: 0.9, Series: "s", ThresholdSeconds: 1},
		}},
	}
	for i, cfg := range cases {
		cfg.Registry = telemetry.NewRegistry()
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: bad config accepted", i)
		}
	}
}

func TestAvailabilityTransitions(t *testing.T) {
	reg := telemetry.NewRegistry()
	total := reg.Counter("svc_requests_total", "", nil)
	bad := reg.Counter("svc_errors_total", "", nil)
	clk := newFakeClock()
	tr := mustNew(t, Config{
		Objectives: []Objective{{
			Name: "avail", Kind: KindAvailability, Target: 0.9,
			TotalSeries: "svc_requests_total", BadSeries: "svc_errors_total",
		}},
		Windows:  []time.Duration{time.Minute, 4 * time.Minute},
		Registry: reg,
	})

	state := func() string {
		rep := tr.Report()
		if len(rep.Objectives) != 1 {
			t.Fatalf("objectives: %+v", rep)
		}
		return rep.Objectives[0].State
	}

	// Before any traffic: no data.
	tr.Observe(clk.Now(), reg.Snapshot())
	if got := state(); got != StateNoData {
		t.Fatalf("cold state = %q, want %q", got, StateNoData)
	}
	if rs := tr.HealthReasons(); len(rs) != 0 {
		t.Fatalf("no_data produced health reasons: %v", rs)
	}

	// Phase 1 — objective met: 100 requests/tick, no errors, for 2 min.
	for i := 0; i < 12; i++ {
		clk.Advance(10 * time.Second)
		total.Add(100)
		tr.Observe(clk.Now(), reg.Snapshot())
	}
	if got := state(); got != StateMet {
		t.Fatalf("healthy state = %q, want %q", got, StateMet)
	}
	if rs := tr.HealthReasons(); len(rs) != 0 {
		t.Fatalf("met produced health reasons: %v", rs)
	}

	// Phase 2 — budget burning: an 80-error tick makes the 1m window
	// 80/600 = 13.3% bad (burn 1.33 over the 10% budget), while the 4m
	// window sits at 80/1300 = 6.2% — budget dented but not exhausted.
	clk.Advance(10 * time.Second)
	total.Add(100)
	bad.Add(80)
	tr.Observe(clk.Now(), reg.Snapshot())
	if got := state(); got != StateBurning {
		t.Fatalf("burning state = %q, want %q", got, StateBurning)
	}
	rs := tr.HealthReasons()
	if len(rs) != 1 || !strings.Contains(rs[0], "burning") || !strings.Contains(rs[0], "avail") {
		t.Fatalf("burning health reasons: %v", rs)
	}

	// Phase 3 — exhausted: errors keep coming until the long window's
	// bad fraction exceeds the whole 10%% budget.
	for i := 0; i < 6; i++ {
		clk.Advance(10 * time.Second)
		total.Add(100)
		bad.Add(50)
		tr.Observe(clk.Now(), reg.Snapshot())
	}
	if got := state(); got != StateExhausted {
		t.Fatalf("exhausted state = %q, want %q", got, StateExhausted)
	}
	rep := tr.Report()
	if br := rep.Objectives[0].BudgetRemaining; br > 0 {
		t.Fatalf("exhausted but budget remaining %v", br)
	}
	rs = tr.HealthReasons()
	if len(rs) != 1 || !strings.Contains(rs[0], "exhausted") {
		t.Fatalf("exhausted health reasons: %v", rs)
	}

	// Phase 4 — recovered: clean traffic until the bad interval ages out
	// of the longest (4m) window.
	for i := 0; i < 30; i++ {
		clk.Advance(10 * time.Second)
		total.Add(100)
		tr.Observe(clk.Now(), reg.Snapshot())
	}
	if got := state(); got != StateMet {
		t.Fatalf("recovered state = %q, want %q", got, StateMet)
	}
	if rs := tr.HealthReasons(); len(rs) != 0 {
		t.Fatalf("recovered still has health reasons: %v", rs)
	}
}

func TestLatencyObjectiveSnapsThreshold(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := reg.Histogram("fix_seconds", "", []float64{0.01, 0.05, 0.1}, nil)
	clk := newFakeClock()
	tr := mustNew(t, Config{
		Objectives: []Objective{{
			Name: "fix-latency", Kind: KindLatency, Target: 0.5,
			Series: "fix_seconds", ThresholdSeconds: 0.04, // snaps up to 0.05
		}},
		Windows:  []time.Duration{time.Minute},
		Registry: reg,
	})

	tr.Observe(clk.Now(), reg.Snapshot())
	// 8 fast (≤0.05), 2 slow: 80% good against a 50% target.
	for i := 0; i < 8; i++ {
		h.Observe(0.02)
	}
	h.Observe(0.2)
	h.Observe(0.2)
	clk.Advance(10 * time.Second)
	tr.Observe(clk.Now(), reg.Snapshot())

	rep := tr.Report()
	or := rep.Objectives[0]
	if or.ThresholdSeconds != 0.05 {
		t.Errorf("threshold not snapped to bucket bound: %v", or.ThresholdSeconds)
	}
	if or.State != StateMet {
		t.Errorf("state = %q, want met: %+v", or.State, or)
	}
	w := or.Windows[0]
	if w.Good != 8 || w.Total != 10 {
		t.Errorf("window counts: %+v", w)
	}
	// badFrac 0.2 / budget 0.5 = burn rate 0.4.
	if w.BurnRate < 0.39 || w.BurnRate > 0.41 {
		t.Errorf("burn rate: %v", w.BurnRate)
	}

	// Slow traffic blows the budget: 10 more all over threshold puts the
	// window at 8/20 good (40% < 50% target) — exhausted.
	for i := 0; i < 10; i++ {
		h.Observe(0.2)
	}
	clk.Advance(10 * time.Second)
	tr.Observe(clk.Now(), reg.Snapshot())
	if got := tr.Report().Objectives[0].State; got != StateExhausted {
		t.Errorf("state after slow burst = %q, want exhausted", got)
	}
}

func TestGaugesPublished(t *testing.T) {
	reg := telemetry.NewRegistry()
	total := reg.Counter("req_total", "", nil)
	reg.Counter("req_bad", "", nil)
	clk := newFakeClock()
	tr := mustNew(t, Config{
		Objectives: []Objective{{
			Name: "a", Kind: KindAvailability, Target: 0.99,
			TotalSeries: "req_total", BadSeries: "req_bad",
		}},
		Windows:  []time.Duration{time.Minute, 5 * time.Minute},
		Registry: reg,
	})
	total.Add(50)
	clk.Advance(time.Second)
	tr.Observe(clk.Now(), reg.Snapshot())

	found := map[string]bool{}
	for _, s := range reg.Snapshot() {
		switch s.Name {
		case "marauder_slo_compliance", "marauder_slo_budget_remaining", "marauder_slo_burn_rate":
			found[s.Series()] = true
			if s.Kind != telemetry.KindGauge {
				t.Errorf("%s: kind %s", s.Series(), s.Kind)
			}
		}
	}
	for _, want := range []string{
		`marauder_slo_compliance{slo="a"}`,
		`marauder_slo_budget_remaining{slo="a"}`,
		`marauder_slo_burn_rate{slo="a",window="1m0s"}`,
		`marauder_slo_burn_rate{slo="a",window="5m0s"}`,
	} {
		if !found[want] {
			t.Errorf("gauge %s not published; have %v", want, found)
		}
	}
}

func TestMissingSeriesIsNoData(t *testing.T) {
	reg := telemetry.NewRegistry()
	clk := newFakeClock()
	tr := mustNew(t, Config{
		Objectives: []Objective{{
			Name: "ghost", Kind: KindLatency, Target: 0.9,
			Series: "never_registered_seconds", ThresholdSeconds: 0.1,
		}},
		Registry: reg,
	})
	tr.Observe(clk.Now(), reg.Snapshot())
	if got := tr.Report().Objectives[0].State; got != StateNoData {
		t.Errorf("missing series state = %q, want no_data", got)
	}
}

func TestParseObjectiveSpec(t *testing.T) {
	o, err := ParseObjectiveSpec("latency:fix-p99:marauder_fix_seconds:0.05:0.99")
	if err != nil {
		t.Fatalf("latency spec: %v", err)
	}
	if o.Kind != KindLatency || o.Name != "fix-p99" || o.Series != "marauder_fix_seconds" ||
		o.ThresholdSeconds != 0.05 || o.Target != 0.99 {
		t.Errorf("latency spec parsed: %+v", o)
	}

	o, err = ParseObjectiveSpec(`availability:fixes:marauder_engine_fixes_total{algo="mloc"}:marauder_engine_fix_errors_total:0.999`)
	if err != nil {
		t.Fatalf("availability spec with braces: %v", err)
	}
	if o.TotalSeries != `marauder_engine_fixes_total{algo="mloc"}` || o.BadSeries != "marauder_engine_fix_errors_total" {
		t.Errorf("availability spec parsed: %+v", o)
	}

	for _, bad := range []string{
		"",
		"latency:x:series:0.05",            // too few fields
		"latency:x:series:0.05:0.99:extra", // too many
		"latency:x:series:nope:0.99",       // bad threshold
		"latency:x:series:0.05:2",          // target out of range
		"availability:x:t:b:zero",          // bad target
		"weird:x:series:0.05:0.99",         // unknown kind
	} {
		if _, err := ParseObjectiveSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// TestInfiniteThresholdRejected: an infinite latency threshold would be
// accepted by the number parser, but the report carries the threshold
// and JSON cannot encode +Inf, so every /api/slo request would fail.
func TestInfiniteThresholdRejected(t *testing.T) {
	for _, spec := range []string{"latency:x:lat_seconds:+Inf:0.99", "latency:x:lat_seconds:Inf:0.99"} {
		_, err := ParseObjectiveSpec(spec)
		if err == nil {
			t.Fatalf("spec %q accepted", spec)
		}
		if !strings.Contains(err.Error(), "ThresholdSeconds") {
			t.Errorf("spec %q: error %q does not name the threshold", spec, err)
		}
	}
	_, err := New(Config{Objectives: []Objective{{
		Name: "x", Kind: KindLatency, Target: 0.9, Series: "s", ThresholdSeconds: math.Inf(1)}}})
	if err == nil || !strings.Contains(err.Error(), "ThresholdSeconds") {
		t.Errorf("New with +Inf threshold: err = %v, want one naming ThresholdSeconds", err)
	}
}

// TestRingPrunedToLongestWindow: observing every second keeps about one
// longest window of points, and each window's delta still spans exactly
// that window.
func TestRingPrunedToLongestWindow(t *testing.T) {
	reg := telemetry.NewRegistry()
	total := reg.Counter("req_total", "", nil)
	reg.Counter("req_bad", "", nil)
	clk := newFakeClock()
	tr := mustNew(t, Config{
		Objectives: []Objective{{
			Name: "a", Kind: KindAvailability, Target: 0.99,
			TotalSeries: "req_total", BadSeries: "req_bad",
		}},
		Windows:  []time.Duration{10 * time.Second, time.Minute},
		Registry: reg,
	})
	for i := 0; i < 600; i++ {
		clk.Advance(time.Second)
		total.Inc()
		tr.Observe(clk.Now(), reg.Snapshot())
	}
	if n := len(tr.objs[0].points); n > 62 {
		t.Errorf("ring holds %d points, want at most 62 for a 1m window at 1 s", n)
	}
	for _, w := range tr.Report().Objectives[0].Windows {
		want := map[string]uint64{"10s": 10, "1m0s": 60}[w.Window]
		if w.Total != want {
			t.Errorf("window %s counted %d events, want %d", w.Window, w.Total, want)
		}
	}
}
