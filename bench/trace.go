package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// spanName names a span. It is an index, not a string, so that the span
// log holds no pointer and the collector never scans it.
type spanName uint8

const (
	spanFrame spanName = iota
	spanSend
	spanEncode
	spanDecode
	spanIngest
	spanObsIngest
	spanSnapshot
	spanPublish
	spanServe
	spanDevices
	spanWindow
	spanWindowTrack
	spanLocate
	spanTrack
	spanTracked
)

var spanNames = [...]string{
	spanFrame:       "frame",
	spanSend:        "capwire.send",
	spanEncode:      "capwire.encode",
	spanDecode:      "capwire.decode",
	spanIngest:      "engine.ingest",
	spanObsIngest:   "obs.ingest",
	spanSnapshot:    "engine.snapshot",
	spanPublish:     "mapserver.publish",
	spanServe:       "mapserver.serve",
	spanDevices:     "obs.devices",
	spanWindow:      "obs.window",
	spanWindowTrack: "obs.window.track",
	spanLocate:      "core.locate",
	spanTrack:       "engine.track",
	spanTracked:     "core.tracked",
}

func (n spanName) String() string { return spanNames[n] }

func (n spanName) MarshalText() ([]byte, error) { return []byte(n.String()), nil }

// span is one timed call the benchmark made into the pipeline, or one
// shadow leg re-invoking a layer's public function on the same input.
// Times are nanoseconds since the run began.
type span struct {
	ID     uint64   `json:"id"`
	Parent uint64   `json:"parent,omitempty"`
	Name   spanName `json:"name"`
	Start  int64    `json:"start_ns"`
	End    int64    `json:"end_ns"`
	// Key is the batch ordinal (capwire, engine.ingest, obs.ingest) or
	// the frame or Track-call ordinal (everything else).
	Key int64 `json:"key"`
	// N counts the work items the call covered: frames, devices, window
	// steps or fixes, as the name implies.
	N       int `json:"n"`
	Bytes   int `json:"bytes,omitempty"`
	Records int `json:"records,omitempty"` // obs.ingest: records the store gained
	// Blocked marks a capwire.send issued with the client queue full.
	Blocked bool `json:"blocked,omitempty"`
	// Incremental counts core.tracked fixes served by the incremental
	// region path. Churn sums |ΔΓ| between consecutive window queries and
	// Gamma sums their |Γ|.
	Incremental int `json:"incremental,omitempty"`
	Churn       int `json:"churn,omitempty"`
	Gamma       int `json:"gamma,omitempty"`
	NonEmpty    int `json:"non_empty,omitempty"` // obs.window: queries with a non-empty Γ
}

func (s span) dur() int64 { return s.End - s.Start }

// maxSpans caps the in-memory span log; spans past it are counted, not
// kept.
const maxSpans = 1 << 20

// shadowEvery is the 1-in-N sampling of the shadow legs.
const shadowEvery = 16

// recorder keeps the traced run's spans in memory until the run ends. A
// nil recorder records nothing; on toggles recording so a traced run
// can alternate traced and untraced windows.
type recorder struct {
	base      stamp
	on        atomic.Bool
	nextID    atomic.Uint64
	pipelines atomic.Int64
	mu        sync.Mutex
	spans     []span
	dropped   int
}

func newRecorder() *recorder {
	r := &recorder{base: now()}
	r.on.Store(true)
	return r
}

func (r *recorder) active() bool { return r != nil && r.on.Load() }

func (r *recorder) setOn(on bool) {
	if r != nil {
		r.on.Store(on)
	}
}

// keyBase gives each pipeline of a run its own span key range.
func (r *recorder) keyBase() int64 {
	if r == nil {
		return 0
	}
	return r.pipelines.Add(1) << 32
}

// add records s, assigning its ID, and returns the ID.
func (r *recorder) add(s span, start, end stamp) uint64 {
	s.ID = r.nextID.Add(1)
	s.Start, s.End = int64(start-r.base), int64(end-r.base)
	r.mu.Lock()
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, s)
	} else {
		r.dropped++
	}
	r.mu.Unlock()
	return s.ID
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeJSONL writes every span, in start order, one JSON object a line.
func (r *recorder) writeJSONL(path string) error {
	spans := r.snapshot()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerSum totals the spans of one name.
type layerSum struct {
	calls       int
	ns          int64
	n           int
	bytes       int
	records     int
	blocked     int
	incremental int
	churn       int
	gamma       int
	nonEmpty    int
	durs        []float64 // per-call ns, for medians
}

func (l layerSum) nsPer() float64 {
	if l.n == 0 {
		return 0
	}
	return float64(l.ns) / float64(l.n)
}

func sumLayers(spans []span) map[spanName]*layerSum {
	out := make(map[spanName]*layerSum)
	for _, s := range spans {
		l := out[s.Name]
		if l == nil {
			l = &layerSum{}
			out[s.Name] = l
		}
		l.calls++
		l.ns += s.dur()
		l.n += s.N
		l.bytes += s.Bytes
		l.records += s.Records
		l.incremental += s.Incremental
		l.churn += s.Churn
		l.gamma += s.Gamma
		l.nonEmpty += s.NonEmpty
		if s.Blocked {
			l.blocked++
		}
		l.durs = append(l.durs, float64(s.dur()))
	}
	return out
}

// transitsUS pairs each batch's capwire.send span with its engine.ingest
// span by ordinal and returns Send return → callback entry in µs.
func transitsUS(spans []span) []float64 {
	sent := make(map[int64]int64)
	for _, s := range spans {
		if s.Name == spanSend {
			sent[s.Key] = s.End
		}
	}
	var out []float64
	for _, s := range spans {
		if s.Name != spanIngest {
			continue
		}
		if end, ok := sent[s.Key]; ok {
			out = append(out, float64(s.Start-end)/1e3)
		}
	}
	return out
}

// check is one ledger reconciliation: the layer-side sum against the
// end-to-end figure it should account for.
type check struct {
	What   string  `json:"what"`
	Layers float64 `json:"layers"`
	E2E    float64 `json:"e2e"`
	Unit   string  `json:"unit"`
	Ratio  float64 `json:"ratio"`
	OK     bool    `json:"ok"`
	Skip   string  `json:"skipped,omitempty"`
}

// reconcileTol is how far a layer sum may sit from its end-to-end figure.
const reconcileTol = 0.25

func reconcile(what string, layers, e2e float64, unit string) check {
	c := check{What: what, Layers: layers, E2E: e2e, Unit: unit}
	if e2e > 0 {
		c.Ratio = layers / e2e
	}
	c.OK = c.Ratio >= 1-reconcileTol && c.Ratio <= 1+reconcileTol
	return c
}

func (c check) String() string {
	if c.Skip != "" {
		return fmt.Sprintf("%s: skipped (%s)", c.What, c.Skip)
	}
	verdict := "ok"
	if !c.OK {
		verdict = "OUTSIDE ±25%"
	}
	return fmt.Sprintf("%s: layers %.4g %s vs end-to-end %.4g %s (ratio %.3f, %s)",
		c.What, c.Layers, c.Unit, c.E2E, c.Unit, c.Ratio, verdict)
}
