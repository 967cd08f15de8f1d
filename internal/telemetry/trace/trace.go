// Package trace is the reproduction's per-estimate explainability layer: a
// stdlib-only, sampled, ring-buffered span tracer plus the provenance
// record that makes a single localization auditable after the fact.
//
// Metrics (package telemetry) say how fast the pipeline runs; this package
// records *why* one device landed where it did — which communicable AP set
// Γ was observed, how many discs intersected, whether the Γ cache or a
// fresh algorithm run produced the estimate, and where the wall time went
// across ingest, window assembly, localization and publish.
//
// The tracer is built for an always-on tracking pipeline serving millions
// of estimates: tracing is off unless a *Tracer is installed, sampling is
// deterministic (every Nth localization), and a disabled or unsampled path
// costs one nil check / one atomic add. Every exported method is safe on a
// nil *Tracer and a nil *Trace. The tracer reads no clock itself: a trace
// is finished with the start time, duration and spans its caller already
// measured for its latency histograms, so a traced operation and its
// metrics report the same timestamps.
package trace

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// LogKey is the shared slog attribute key under which every component logs
// trace identifiers, so log lines, metrics and trace dumps correlate on
// one field.
const LogKey = "trace_id"

// Trace kinds: what pipeline activity a trace covers.
const (
	// KindFix is one localization request (Fix/FixRange/Track step or one
	// device of a map-frame snapshot). Fix traces carry a Provenance.
	KindFix = "fix"
	// KindIngest is one batched capture ingest.
	KindIngest = "ingest"
	// KindRefresh is one knowledge re-training run.
	KindRefresh = "refresh"
	// KindPublish is one map-frame publication to the display.
	KindPublish = "publish"
)

// Process-wide tracer metrics, shared by all tracers in the process.
var (
	mSampled = telemetry.Default().Counter(
		"marauder_trace_sampled_total",
		"Pipeline operations that were selected for tracing.", nil)
	mSkipped = telemetry.Default().Counter(
		"marauder_trace_skipped_total",
		"Pipeline operations that the sampler passed over.", nil)
	mOverwritten = telemetry.Default().Counter(
		"marauder_trace_ring_overwritten_total",
		"Finished traces dropped by the ring buffer to admit newer ones.", nil)
)

// Config assembles a Tracer.
type Config struct {
	// Sample is the fraction of operations traced, in (0, 1]. It resolves
	// to deterministic every-Nth sampling with N = round(1/Sample), so a
	// given rate yields a predictable trace stream. 0 means trace all.
	Sample float64
	// Buffer is the finished-trace ring capacity (default 256).
	Buffer int
	// Devices caps the per-device latest-provenance index (default 4096).
	// At the cap the index is wholesale-cleared and refilled: it is
	// written only for sampled fixes, so it keeps no eviction bookkeeping.
	Devices int
}

// Tracer samples pipeline operations and retains the most recent finished
// traces in a ring buffer, plus the latest provenance per device. Safe for
// concurrent use; a nil *Tracer is a valid, disabled tracer.
type Tracer struct {
	every   uint64 // sample every Nth start
	cap     int
	devCap  int
	seq     atomic.Uint64 // sampling counter
	idSeq   atomic.Uint64 // trace-ID counter
	idSeed  uint64
	mu      sync.Mutex
	ring    []*Record // fixed-capacity ring of finished traces
	next    int       // ring write index
	total   uint64    // finished traces ever recorded
	explain map[string]*Provenance
}

// New builds a Tracer from the configuration.
func New(cfg Config) (*Tracer, error) {
	if cfg.Sample < 0 || cfg.Sample > 1 {
		return nil, fmt.Errorf("trace: Sample must be in (0, 1], got %v", cfg.Sample)
	}
	every := uint64(1)
	if cfg.Sample > 0 {
		every = uint64(1/cfg.Sample + 0.5)
		if every < 1 {
			every = 1
		}
	}
	buf := cfg.Buffer
	if buf == 0 {
		buf = 256
	}
	if buf < 0 {
		return nil, fmt.Errorf("trace: Buffer must be > 0, got %d", cfg.Buffer)
	}
	devCap := cfg.Devices
	if devCap == 0 {
		devCap = 4096
	}
	if devCap < 0 {
		return nil, fmt.Errorf("trace: Devices must be > 0, got %d", cfg.Devices)
	}
	return &Tracer{
		every:   every,
		cap:     buf,
		devCap:  devCap,
		idSeed:  uint64(time.Now().UnixNano()),
		ring:    make([]*Record, buf),
		explain: make(map[string]*Provenance),
	}, nil
}

// Enabled reports whether the tracer records anything at all.
func (t *Tracer) Enabled() bool { return t != nil }

// SampleEvery returns the resolved sampling stride N (trace every Nth
// operation); 0 when disabled.
func (t *Tracer) SampleEvery() int {
	if t == nil {
		return 0
	}
	return int(t.every)
}

// Start begins a trace of the given kind when the sampler selects this
// operation, and returns nil otherwise (including on a nil tracer). device
// is the subject device MAC for fix traces, "" for pipeline-level kinds.
func (t *Tracer) Start(kind, device string) *Trace {
	if t == nil {
		return nil
	}
	if n := t.seq.Add(1); t.every > 1 && n%t.every != 0 {
		mSkipped.Inc()
		return nil
	}
	mSampled.Inc()
	return &Trace{tracer: t, id: t.newID(), kind: kind, device: device}
}

// newID derives a 16-hex-digit trace ID from the process seed and an
// atomic counter, mixed with a splitmix64 finalizer so consecutive IDs
// don't share prefixes.
func (t *Tracer) newID() string {
	z := t.idSeed + t.idSeq.Add(1)*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return fmt.Sprintf("%016x", z)
}

// record files a finished trace into the ring and, when it carries
// provenance, into the per-device explain index.
func (t *Tracer) record(rec *Record) {
	t.mu.Lock()
	if t.ring[t.next] != nil {
		mOverwritten.Inc()
	}
	t.ring[t.next] = rec
	t.next = (t.next + 1) % t.cap
	t.total++
	if p := rec.Provenance; p != nil && p.Device != "" {
		if len(t.explain) >= t.devCap {
			if _, known := t.explain[p.Device]; !known {
				t.explain = make(map[string]*Provenance)
			}
		}
		t.explain[p.Device] = p
	}
	t.mu.Unlock()
}

// Recent returns up to n finished traces, newest first. n ≤ 0 means the
// whole ring.
func (t *Tracer) Recent(n int) []Record {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n <= 0 || n > t.cap {
		n = t.cap
	}
	out := make([]Record, 0, n)
	for i := 0; i < t.cap && len(out) < n; i++ {
		rec := t.ring[(t.next-1-i+2*t.cap)%t.cap]
		if rec == nil {
			break
		}
		out = append(out, *rec)
	}
	return out
}

// Explain returns the latest recorded provenance for the device (by MAC
// string), if any trace of it survived sampling and the index cap.
func (t *Tracer) Explain(device string) (*Provenance, bool) {
	if t == nil {
		return nil, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.explain[device]
	return p, ok
}

// Stats summarizes the tracer's activity.
type Stats struct {
	// SampleEvery is the resolved sampling stride N.
	SampleEvery int `json:"sampleEvery"`
	// Buffer is the ring capacity.
	Buffer int `json:"buffer"`
	// Finished is how many traces were recorded since construction.
	Finished uint64 `json:"finished"`
	// Buffered is how many finished traces the ring currently holds.
	Buffered int `json:"buffered"`
	// Devices is the size of the per-device explain index.
	Devices int `json:"devices"`
}

// Stats reports the tracer's counters; the zero Stats on a nil tracer.
func (t *Tracer) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	buffered := 0
	for _, r := range t.ring {
		if r != nil {
			buffered++
		}
	}
	return Stats{
		SampleEvery: int(t.every),
		Buffer:      t.cap,
		Finished:    t.total,
		Buffered:    buffered,
		Devices:     len(t.explain),
	}
}

// Span is one timed stage inside a trace.
type Span struct {
	// Name is the stage, named as the marauder_stage_seconds label it
	// shares ("window_assembly", "localize", ...).
	Name string `json:"name"`
	// StartUS is the offset from the trace start, in microseconds.
	StartUS int64 `json:"startUs"`
	// DurUS is the stage duration in microseconds.
	DurUS int64 `json:"durUs"`
	// Attrs are optional stage annotations (counts, flags).
	Attrs map[string]any `json:"attrs,omitempty"`
}

// Record is a finished trace as served by /api/trace.
type Record struct {
	ID     string `json:"id"`
	Kind   string `json:"kind"`
	Device string `json:"device,omitempty"`
	// Start is the trace start in Unix microseconds.
	Start int64 `json:"startUnixUs"`
	// DurUS is the whole trace duration in microseconds.
	DurUS int64  `json:"durUs"`
	Spans []Span `json:"spans,omitempty"`
	// Provenance explains the estimate (fix traces only).
	Provenance *Provenance `json:"provenance,omitempty"`
}

// Trace is one in-flight traced operation. Create with Tracer.Start; a nil
// *Trace (unsampled) absorbs every call.
type Trace struct {
	tracer *Tracer
	id     string
	kind   string
	device string
	done   atomic.Bool
}

// ID returns the trace identifier ("" on a nil trace) — the value logged
// under LogKey.
func (tr *Trace) ID() string {
	if tr == nil {
		return ""
	}
	return tr.id
}

// Finish closes the trace and files it with the tracer. start and dur are
// the operation's wall-clock extent, read by the caller from the same
// clock pair that feeds its latency histogram; spans are its stages, with
// StartUS offsets from start, and are kept as passed. prov (optional) attaches the estimate's
// provenance record and indexes it by device; its StagesMs and TotalMs
// are the caller's to fill. Finishing twice or finishing a nil trace is a
// no-op.
func (tr *Trace) Finish(start time.Time, dur time.Duration, prov *Provenance, spans ...Span) {
	if tr == nil || !tr.done.CompareAndSwap(false, true) {
		return
	}
	if prov != nil {
		prov.TraceID = tr.id
		if prov.Device == "" {
			prov.Device = tr.device
		}
	}
	tr.tracer.record(&Record{
		ID:         tr.id,
		Kind:       tr.kind,
		Device:     tr.device,
		Start:      start.UnixMicro(),
		DurUS:      dur.Microseconds(),
		Spans:      spans,
		Provenance: prov,
	})
}
