// Package telemetry is the reproduction's observability layer: a
// dependency-free metrics registry (atomic counters, gauges and
// fixed-bucket histograms) with Prometheus text-format and expvar-style
// JSON exposition, plus slog setup shared by the commands.
//
// The paper's Marauder's map is an always-on tracking pipeline
// (capture → observe → localize → display); this package is how a running
// deployment answers "what is the pipeline doing right now" — ingest
// rates, snapshot latencies, Γ-cache effectiveness, per-algorithm
// localization error — without stopping it for a benchmark.
//
// Metrics register on a process-wide default registry at package init of
// the instrumented packages, so an exposition endpoint always serves the
// full series set (zero-valued until the first event). Everything is
// stdlib-only and safe for concurrent use; the hot-path cost of an update
// is one atomic add.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Labels attach dimensions to a metric instance (e.g. route, algo).
// A nil map means an unlabeled instance.
type Labels map[string]string

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 value that may go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the value by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets (cumulative at
// exposition time, Prometheus-style) and tracks their sum and count.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; +Inf bucket is implicit
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, buckets: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since start — the one-liner for
// latency instrumentation: defer h.ObserveSince(time.Now()).
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Seconds())
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Bounds returns the bucket upper bounds (without the implicit +Inf).
func (h *Histogram) Bounds() []float64 { return append([]float64(nil), h.bounds...) }

// Cumulative returns the cumulative per-bucket counts aligned with
// Bounds() plus a final +Inf entry equal to Count(). The snapshot is not
// atomic across buckets; under concurrent observation it is approximate
// the way any scrape of a live histogram is.
func (h *Histogram) Cumulative() []uint64 {
	out := make([]uint64, len(h.buckets))
	var cum uint64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		out[i] = cum
	}
	return out
}

// LatencyBuckets spans 10 µs … 10 s in roughly 1-2.5-5 steps — wide enough
// for a cached Γ lookup and a full AP-Rad linear program alike.
func LatencyBuckets() []float64 {
	return []float64{
		1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
		1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
		0.1, 0.25, 0.5, 1, 2.5, 5, 10,
	}
}

// DistanceBuckets spans 1 m … 500 m — the paper's localization-error
// range (its campus is ~700 m across; M-Loc lands around 30-60 m).
func DistanceBuckets() []float64 {
	return []float64{1, 2, 5, 10, 15, 25, 40, 60, 90, 130, 180, 250, 350, 500}
}

// metricKind discriminates a family's instances.
type metricKind int

const (
	kindCounter metricKind = iota + 1
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "unknown"
}

// family groups every labeled instance of one metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	bounds []float64 // histogram families only

	instances map[string]any // canonical label string -> *Counter/*Gauge/*Histogram
}

// Registry holds metric families. The zero value is not usable; call
// NewRegistry, or use Default for the process-wide registry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	// resolutions counts Counter, Gauge and Histogram calls: the lookups
	// a per-event path must not make.
	resolutions atomic.Uint64
}

// Resolutions reports how many times a metric has been resolved by name
// and labels through the registry (Counter, Gauge and Histogram calls).
// Per-event paths hold resolved handles, so a steady pipeline leaves it
// still.
func (r *Registry) Resolutions() uint64 { return r.resolutions.Load() }

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var std = NewRegistry()

// Default returns the process-wide registry that the pipeline packages
// (engine, obs, mapserver, sniffer) register on at init.
func Default() *Registry { return std }

// labelKey canonicalizes labels into a deterministic map key / exposition
// string: sorted `k="v"` pairs, values escaped.
func labelKey(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(labels[k]))
		b.WriteByte('"')
	}
	return b.String()
}

// labelEscaper escapes a label value per the Prometheus text format:
// backslash, double quote and newline.
var labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)

// escapeLabelValue escapes per the Prometheus text format: backslash,
// double quote and newline.
func escapeLabelValue(v string) string { return labelEscaper.Replace(v) }

// getOrCreate returns the instance for (name, labels), creating family
// and instance as needed. It panics when the same name is re-registered
// as a different kind — that is a programming error, and silently
// returning a fresh metric would split the series.
func (r *Registry) getOrCreate(name, help string, kind metricKind, bounds []float64, labels Labels) any {
	r.resolutions.Add(1)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{
			name:      name,
			help:      help,
			kind:      kind,
			bounds:    append([]float64(nil), bounds...),
			instances: make(map[string]any),
		}
		sort.Float64s(f.bounds)
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: %s registered as %s, requested as %s", name, f.kind, kind))
	}
	key := labelKey(labels)
	if m, ok := f.instances[key]; ok {
		return m
	}
	var m any
	switch kind {
	case kindCounter:
		m = &Counter{}
	case kindGauge:
		m = &Gauge{}
	case kindHistogram:
		m = newHistogram(f.bounds)
	}
	f.instances[key] = m
	return m
}

// Counter returns the counter for (name, labels), registering it on first
// use. help is retained from the first registration of the name.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	return r.getOrCreate(name, help, kindCounter, nil, labels).(*Counter)
}

// Gauge returns the gauge for (name, labels), registering it on first use.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	return r.getOrCreate(name, help, kindGauge, nil, labels).(*Gauge)
}

// Histogram returns the histogram for (name, labels), registering it on
// first use. bounds are the bucket upper bounds and are fixed by the first
// registration of the name; later calls reuse the family's bounds.
func (r *Registry) Histogram(name, help string, bounds []float64, labels Labels) *Histogram {
	return r.getOrCreate(name, help, kindHistogram, bounds, labels).(*Histogram)
}

// Cardinalities reports the label-set instance count per metric family —
// the input for cardinality guard tests: a family whose instance count
// grows with user data (MACs, device IDs) instead of a fixed label
// vocabulary will eventually OOM the registry and every scraper of it.
func (r *Registry) Cardinalities() map[string]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int, len(r.families))
	for name, f := range r.families {
		out[name] = len(f.instances)
	}
	return out
}

// familySnapshot is an exposition-time copy of one family: the metric
// pointers themselves stay live (their values are read atomically), only
// the registry's maps are copied out from under the lock.
type familySnapshot struct {
	name      string
	help      string
	kind      metricKind
	labelKeys []string // sorted canonical label strings
	instances map[string]any
}

// snapshotFamilies copies the family list in sorted-name order with
// sorted instance keys, for deterministic exposition that races with
// concurrent registration.
func (r *Registry) snapshotFamilies() []familySnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]familySnapshot, 0, len(r.families))
	for _, f := range r.families {
		fs := familySnapshot{
			name:      f.name,
			help:      f.help,
			kind:      f.kind,
			labelKeys: make([]string, 0, len(f.instances)),
			instances: make(map[string]any, len(f.instances)),
		}
		for k, m := range f.instances {
			fs.labelKeys = append(fs.labelKeys, k)
			fs.instances[k] = m
		}
		sort.Strings(fs.labelKeys)
		out = append(out, fs)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
