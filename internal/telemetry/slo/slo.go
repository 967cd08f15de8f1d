// Package slo tracks service-level objectives against the metrics
// registry: configurable latency and availability targets evaluated over
// multiple sliding windows, with error-budget burn rates in the SRE
// sense (burn rate 1.0 = consuming exactly the budget the target
// allows; >1 = on track to exhaust it before the window ends).
//
// The tracker is strictly poll-based: it reads cumulative counters and
// histogram buckets out of the registry snapshot the process sampler
// hands it each tick, so the fix/ingest hot paths pay nothing for SLO
// tracking — the same snapshot the FTDC recorder appends is the SLO
// input.
// Results are re-published as gauges (marauder_slo_*), which means the
// flight recorder captures budget trajectories automatically.
//
// A nil *Tracker is the disabled state; every method absorbs the call.
package slo

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Objective kinds.
const (
	// KindLatency counts an observation good when it lands at or under
	// ThresholdSeconds in the Series histogram.
	KindLatency = "latency"
	// KindAvailability counts TotalSeries events, of which BadSeries are
	// failures.
	KindAvailability = "availability"
)

// States an objective can be in, ordered by severity.
const (
	StateNoData    = "no_data"
	StateMet       = "met"
	StateBurning   = "burning"
	StateExhausted = "exhausted"
)

// Objective declares one SLO against registry series.
type Objective struct {
	// Name identifies the objective in reports, gauges and health
	// reasons.
	Name string
	// Kind is KindLatency or KindAvailability.
	Kind string
	// Target is the goal fraction of good events, e.g. 0.99.
	Target float64
	// Series is the full series identity (`name` or `name{k="v",…}`) of
	// the latency histogram (KindLatency only).
	Series string
	// ThresholdSeconds is the latency goal; it is snapped to the first
	// histogram bucket bound at or above it, since bucketed data cannot
	// resolve between bounds (KindLatency only).
	ThresholdSeconds float64
	// TotalSeries and BadSeries are the counter series for all events and
	// failed events (KindAvailability only). A BadSeries that never
	// registered reads as zero failures.
	TotalSeries string
	BadSeries   string
}

func (o Objective) validate() error {
	if o.Name == "" {
		return fmt.Errorf("slo: objective missing Name")
	}
	if o.Target <= 0 || o.Target >= 1 {
		return fmt.Errorf("slo: %s: Target must be in (0,1), got %v", o.Name, o.Target)
	}
	switch o.Kind {
	case KindLatency:
		if o.Series == "" || o.ThresholdSeconds <= 0 {
			return fmt.Errorf("slo: %s: latency objective needs Series and ThresholdSeconds", o.Name)
		}
		// The threshold is reported back in /api/slo, and JSON has no
		// infinity: +Inf would fail every report.
		if math.IsInf(o.ThresholdSeconds, 0) {
			return fmt.Errorf("slo: %s: ThresholdSeconds must be finite, got %v", o.Name, o.ThresholdSeconds)
		}
	case KindAvailability:
		if o.TotalSeries == "" || o.BadSeries == "" {
			return fmt.Errorf("slo: %s: availability objective needs TotalSeries and BadSeries", o.Name)
		}
	default:
		return fmt.Errorf("slo: %s: unknown Kind %q", o.Name, o.Kind)
	}
	return nil
}

// Config assembles a Tracker.
type Config struct {
	// Objectives are the SLOs to track. Required, non-empty.
	Objectives []Objective
	// Windows are the sliding evaluation windows, shortest to longest;
	// the longest is the budget window. Nil means {5m, 30m, 2h}.
	Windows []time.Duration
	// Registry is the gauge sink; nil means the process-wide default.
	Registry *telemetry.Registry
}

// burnThreshold is the burn rate above which an objective is
// "burning": consuming its budget faster than is sustainable.
const burnThreshold = 1.0

// point is one cumulative observation of an objective's counters.
type point struct {
	t           time.Time
	good, total uint64
}

// tracked is an objective plus its ring of cumulative points and its
// published gauges.
type tracked struct {
	obj    Objective
	points []point

	compliance *telemetry.Gauge
	budget     *telemetry.Gauge
	burn       []*telemetry.Gauge // aligned with Config.Windows
}

// WindowReport is one window's view of one objective.
type WindowReport struct {
	// Window is the duration in Go syntax, e.g. "5m0s".
	Window string `json:"window"`
	// Good and Total are the event deltas across the window.
	Good  uint64 `json:"good"`
	Total uint64 `json:"total"`
	// GoodFraction is Good/Total (1 when Total is 0 — no events is not a
	// violation).
	GoodFraction float64 `json:"goodFraction"`
	// BurnRate is badFraction/(1-target): 1.0 burns the budget exactly at
	// the sustainable rate.
	BurnRate float64 `json:"burnRate"`
}

// ObjectiveReport is the full /api/slo view of one objective.
type ObjectiveReport struct {
	Name   string  `json:"name"`
	Kind   string  `json:"kind"`
	Target float64 `json:"target"`
	// ThresholdSeconds is the effective (bucket-snapped) latency goal;
	// omitted for availability objectives.
	ThresholdSeconds float64 `json:"thresholdSeconds,omitempty"`
	// State is no_data, met, burning or exhausted.
	State string `json:"state"`
	// BudgetRemaining is the error budget left over the longest window,
	// 1 = untouched, ≤0 = exhausted.
	BudgetRemaining float64        `json:"budgetRemaining"`
	Windows         []WindowReport `json:"windows"`
}

// Report is the /api/slo payload.
type Report struct {
	// TickedAt is the time of the last registry sample.
	TickedAt time.Time `json:"tickedAt"`
	// Windows echoes the configured window set.
	Windows    []string          `json:"windows"`
	Objectives []ObjectiveReport `json:"objectives"`
}

// Tracker evaluates objectives on each observed snapshot. All methods
// are nil-safe.
type Tracker struct {
	cfg     Config
	maxKeep time.Duration

	mu      sync.Mutex
	objs    []*tracked
	last    Report
	hasTick bool
}

// New validates objectives and registers the SLO gauges.
func New(cfg Config) (*Tracker, error) {
	if len(cfg.Objectives) == 0 {
		return nil, fmt.Errorf("slo: Config.Objectives is required")
	}
	names := map[string]bool{}
	for _, o := range cfg.Objectives {
		if err := o.validate(); err != nil {
			return nil, err
		}
		if names[o.Name] {
			return nil, fmt.Errorf("slo: duplicate objective %q", o.Name)
		}
		names[o.Name] = true
	}
	if len(cfg.Windows) == 0 {
		cfg.Windows = []time.Duration{5 * time.Minute, 30 * time.Minute, 2 * time.Hour}
	}
	ws := append([]time.Duration(nil), cfg.Windows...)
	sort.Slice(ws, func(i, j int) bool { return ws[i] < ws[j] })
	cfg.Windows = ws
	for _, w := range ws {
		if w <= 0 {
			return nil, fmt.Errorf("slo: non-positive window %v", w)
		}
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.Default()
	}
	t := &Tracker{cfg: cfg, maxKeep: ws[len(ws)-1]}
	for _, o := range cfg.Objectives {
		tr := &tracked{
			obj: o,
			compliance: cfg.Registry.Gauge("marauder_slo_compliance",
				"Good-event fraction over the longest SLO window.",
				telemetry.Labels{"slo": o.Name}),
			budget: cfg.Registry.Gauge("marauder_slo_budget_remaining",
				"Error budget remaining over the longest SLO window (1=untouched, <=0 exhausted).",
				telemetry.Labels{"slo": o.Name}),
		}
		for _, w := range cfg.Windows {
			tr.burn = append(tr.burn, cfg.Registry.Gauge("marauder_slo_burn_rate",
				"Error-budget burn rate per window (1.0 = sustainable).",
				telemetry.Labels{"slo": o.Name, "window": w.String()}))
		}
		t.objs = append(t.objs, tr)
	}
	return t, nil
}

// observe extracts (good, total) for one objective from a snapshot.
func observe(obj Objective, snap []telemetry.Sample) (good, total uint64, threshold float64) {
	threshold = obj.ThresholdSeconds
	switch obj.Kind {
	case KindLatency:
		for _, s := range snap {
			if s.Kind != telemetry.KindHistogram || s.Series() != obj.Series {
				continue
			}
			// Snap the goal to the first bound at or above it: the
			// cumulative count there is "observations ≤ bound", the closest
			// answerable version of "≤ threshold".
			i := sort.SearchFloat64s(s.Bounds, obj.ThresholdSeconds)
			if i < len(s.Bounds) {
				threshold = s.Bounds[i]
				good = s.Cumulative[i]
			} else if n := len(s.Cumulative); n > 0 {
				// Threshold beyond the last finite bound: everything under
				// +Inf counts good, which the report makes visible by
				// echoing the original threshold.
				good = s.Cumulative[n-1]
			}
			total = s.Count
			return
		}
	case KindAvailability:
		var bad uint64
		for _, s := range snap {
			if s.Kind != telemetry.KindCounter {
				continue
			}
			switch s.Series() {
			case obj.TotalSeries:
				total = s.Counter
			case obj.BadSeries:
				bad = s.Counter
			}
		}
		if bad > total {
			bad = total
		}
		good = total - bad
		return
	}
	return
}

// Observe evaluates snap, a registry snapshot taken at now: it advances
// every objective's ring and rebuilds the report and gauges. Successive
// calls must not go back in time.
func (t *Tracker) Observe(now time.Time, snap []telemetry.Sample) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	rep := Report{TickedAt: now}
	for _, w := range t.cfg.Windows {
		rep.Windows = append(rep.Windows, w.String())
	}
	for _, tr := range t.objs {
		good, total, threshold := observe(tr.obj, snap)
		tr.points = append(tr.points, point{t: now, good: good, total: total})
		// Prune, keeping the newest point before the longest window's
		// boundary so every window's delta has a baseline.
		cut := now.Add(-t.maxKeep)
		if i := sort.Search(len(tr.points), func(i int) bool { return !tr.points[i].t.Before(cut) }); i > 1 {
			tr.points = tr.points[i-1:]
		}

		or := ObjectiveReport{
			Name:   tr.obj.Name,
			Kind:   tr.obj.Kind,
			Target: tr.obj.Target,
			State:  StateNoData,
		}
		if tr.obj.Kind == KindLatency {
			or.ThresholdSeconds = threshold
		}
		latest := tr.points[len(tr.points)-1]
		burning := false
		for wi, w := range t.cfg.Windows {
			base := baseline(tr.points, now.Add(-w))
			wr := WindowReport{Window: w.String(), GoodFraction: 1}
			if latest.total >= base.total && latest.good >= base.good {
				wr.Total = latest.total - base.total
				wr.Good = latest.good - base.good
			}
			if wr.Total > 0 {
				wr.GoodFraction = float64(wr.Good) / float64(wr.Total)
			}
			wr.BurnRate = (1 - wr.GoodFraction) / (1 - tr.obj.Target)
			if wr.Total > 0 && wr.BurnRate > burnThreshold {
				burning = true
			}
			tr.burn[wi].Set(wr.BurnRate)
			or.Windows = append(or.Windows, wr)
		}
		long := or.Windows[len(or.Windows)-1]
		or.BudgetRemaining = 1 - long.BurnRate
		tr.compliance.Set(long.GoodFraction)
		tr.budget.Set(or.BudgetRemaining)
		switch {
		case long.Total == 0:
			or.State = StateNoData
		case or.BudgetRemaining <= 0:
			or.State = StateExhausted
		case burning:
			or.State = StateBurning
		default:
			or.State = StateMet
		}
		rep.Objectives = append(rep.Objectives, or)
	}
	t.last = rep
	t.hasTick = true
}

// baseline returns the newest point at or before the cutoff, falling
// back to the oldest point when the ring doesn't reach back that far
// (early in the process lifetime the window is effectively "since
// start", the standard cold-start behavior for sliding SLO windows).
func baseline(points []point, cutoff time.Time) point {
	i := sort.Search(len(points), func(i int) bool { return points[i].t.After(cutoff) })
	return points[max(i-1, 0)]
}

// Report returns the latest evaluation (zero Report before the first
// Observe or on a nil tracker).
func (t *Tracker) Report() Report {
	if t == nil {
		return Report{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.last
}

// HealthReasons lists degraded-state strings for /api/health: one per
// objective burning or exhausted, empty when all objectives are met (or
// the tracker is nil/unticked).
func (t *Tracker) HealthReasons() []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.hasTick {
		return nil
	}
	var out []string
	for _, or := range t.last.Objectives {
		switch or.State {
		case StateExhausted:
			out = append(out, fmt.Sprintf("slo %s: error budget exhausted (%.1f%% good over %s, target %.2f%%)",
				or.Name, 100*or.Windows[len(or.Windows)-1].GoodFraction, or.Windows[len(or.Windows)-1].Window, 100*or.Target))
		case StateBurning:
			worst, at := 0.0, ""
			for _, w := range or.Windows {
				if w.BurnRate > worst {
					worst, at = w.BurnRate, w.Window
				}
			}
			out = append(out, fmt.Sprintf("slo %s: error budget burning (burn rate %.2g over %s)", or.Name, worst, at))
		}
	}
	return out
}

// DefaultObjectives returns the pipeline's built-in SLOs against series
// the engine always registers: 99% of fixes inside 50 ms end to end, and
// 99.9% of fixes succeeding (empty observation windows excluded — a
// device outside coverage is not a pipeline failure). The latency series
// is sampled 1-in-N with the stage histograms, which leaves the good
// fraction unbiased.
func DefaultObjectives() []Objective {
	return []Objective{
		{
			Name: "fix-latency", Kind: KindLatency, Target: 0.99,
			Series: "marauder_fix_seconds", ThresholdSeconds: 0.05,
		},
		{
			Name: "fix-availability", Kind: KindAvailability, Target: 0.999,
			TotalSeries: "marauder_engine_fixes_total",
			BadSeries:   "marauder_engine_fix_errors_total",
		},
	}
}

// ParseObjectiveSpec parses the flag syntax shared by the cmds:
//
//	latency:<name>:<series>:<thresholdSeconds>:<target>
//	availability:<name>:<totalSeries>:<badSeries>:<target>
//
// Series may contain label braces; colons inside braces are not split.
func ParseObjectiveSpec(spec string) (Objective, error) {
	parts := splitOutsideBraces(spec, ':')
	if len(parts) != 5 {
		return Objective{}, fmt.Errorf("slo: spec %q: want 5 colon-separated fields, got %d", spec, len(parts))
	}
	var o Objective
	o.Kind, o.Name = parts[0], parts[1]
	target, err := parseFrac(parts[4])
	if err != nil {
		return Objective{}, fmt.Errorf("slo: spec %q: target: %w", spec, err)
	}
	o.Target = target
	switch o.Kind {
	case KindLatency:
		o.Series = parts[2]
		thr, err := parseFrac(parts[3])
		if err != nil {
			return Objective{}, fmt.Errorf("slo: spec %q: threshold: %w", spec, err)
		}
		o.ThresholdSeconds = thr
	case KindAvailability:
		o.TotalSeries, o.BadSeries = parts[2], parts[3]
	}
	if err := o.validate(); err != nil {
		return Objective{}, err
	}
	return o, nil
}

func parseFrac(s string) (float64, error) {
	var v float64
	if _, err := fmt.Sscanf(s, "%g", &v); err != nil || math.IsNaN(v) {
		return 0, fmt.Errorf("bad number %q", s)
	}
	return v, nil
}

// splitOutsideBraces splits on sep, treating {…} as opaque so label sets
// survive.
func splitOutsideBraces(s string, sep byte) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '{':
			depth++
		case '}':
			if depth > 0 {
				depth--
			}
		case sep:
			if depth == 0 {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}
