package telemetry

import (
	"bytes"
	"math"
	"os"
	"runtime/metrics"
	"strconv"
	"sync"
)

// Names of the runtime/metrics series the sampler reads. Kept in one
// place so the Sample loop and the tests agree on what is collected.
const (
	rmGoroutines = "/sched/goroutines:goroutines"
	rmHeapBytes  = "/memory/classes/heap/objects:bytes"
	rmSysBytes   = "/memory/classes/total:bytes"
	rmGCCycles   = "/gc/cycles/total:gc-cycles"
	rmGCPauses   = "/gc/pauses:seconds"
	rmSchedLat   = "/sched/latencies:seconds"
)

// RuntimeSampler folds Go runtime health — goroutine count, heap and
// process memory, RSS, GC pause and scheduler latency distributions —
// into ordinary registry metrics, so the same exposition endpoints and
// the flight recorder that carry the app-level pipeline series also
// answer "is the process itself drowning". Until PR 7 only app-level
// metrics were exported; a soak run could not see a leak or a GC stall
// without attaching pprof.
//
// The runtime exposes pause and latency data as cumulative
// runtime/metrics histograms with its own bucket layout; Sample
// re-buckets only the delta since the previous call (each new event
// observed at its runtime-bucket upper bound), so the registry histogram
// converges on the true distribution without double counting.
type RuntimeSampler struct {
	goroutines *Gauge
	heapBytes  *Gauge
	sysBytes   *Gauge
	rssBytes   *Gauge
	maxPause   *Gauge
	gcCycles   *Counter
	gcPause    *Histogram
	schedLat   *Histogram

	mu         sync.Mutex
	samples    []metrics.Sample
	prevPause  []uint64
	prevSched  []uint64
	prevCycles uint64
	maxPauseS  float64
}

// NewRuntimeSampler registers the process runtime series on reg (nil
// means the process-wide default registry) and returns the sampler. The
// series exist (zero-valued) from this call on; Sample fills them.
func NewRuntimeSampler(reg *Registry) *RuntimeSampler {
	if reg == nil {
		reg = Default()
	}
	s := &RuntimeSampler{
		goroutines: reg.Gauge("marauder_process_goroutines",
			"Live goroutines, from runtime/metrics.", nil),
		heapBytes: reg.Gauge("marauder_process_heap_bytes",
			"Bytes of live heap objects, from runtime/metrics.", nil),
		sysBytes: reg.Gauge("marauder_process_sys_bytes",
			"Total bytes of memory mapped by the Go runtime.", nil),
		rssBytes: reg.Gauge("marauder_process_rss_bytes",
			"Resident set size from /proc/self/status (0 where unavailable).", nil),
		maxPause: reg.Gauge("marauder_process_gc_max_pause_seconds",
			"Largest GC pause bucket bound seen since the sampler started.", nil),
		gcCycles: reg.Counter("marauder_process_gc_cycles_total",
			"Completed GC cycles.", nil),
		gcPause: reg.Histogram("marauder_process_gc_pause_seconds",
			"GC stop-the-world pause durations, re-bucketed from runtime/metrics.",
			LatencyBuckets(), nil),
		schedLat: reg.Histogram("marauder_process_sched_latency_seconds",
			"Goroutine scheduling latencies, re-bucketed from runtime/metrics.",
			LatencyBuckets(), nil),
		samples: []metrics.Sample{
			{Name: rmGoroutines},
			{Name: rmHeapBytes},
			{Name: rmSysBytes},
			{Name: rmGCCycles},
			{Name: rmGCPauses},
			{Name: rmSchedLat},
		},
	}
	return s
}

// Sample reads the runtime once and updates every series. Safe for
// concurrent use; each call is one metrics.Read plus a /proc read.
func (s *RuntimeSampler) Sample() {
	s.mu.Lock()
	defer s.mu.Unlock()
	metrics.Read(s.samples)
	for _, m := range s.samples {
		switch m.Name {
		case rmGoroutines:
			s.goroutines.Set(float64(m.Value.Uint64()))
		case rmHeapBytes:
			s.heapBytes.Set(float64(m.Value.Uint64()))
		case rmSysBytes:
			s.sysBytes.Set(float64(m.Value.Uint64()))
		case rmGCCycles:
			c := m.Value.Uint64()
			if c > s.prevCycles {
				s.gcCycles.Add(c - s.prevCycles)
				s.prevCycles = c
			}
		case rmGCPauses:
			if m.Value.Kind() == metrics.KindFloat64Histogram {
				s.prevPause = s.foldDelta(m.Value.Float64Histogram(), s.prevPause, s.gcPause, true)
			}
		case rmSchedLat:
			if m.Value.Kind() == metrics.KindFloat64Histogram {
				s.prevSched = s.foldDelta(m.Value.Float64Histogram(), s.prevSched, s.schedLat, false)
			}
		}
	}
	if rss, ok := readRSSBytes(); ok {
		s.rssBytes.Set(float64(rss))
	}
}

// foldDelta observes the new events of a cumulative runtime histogram
// (relative to prev counts) into dst, each at its runtime-bucket upper
// bound (the lower bound for the +Inf bucket), and returns the updated
// counts to carry as prev. trackMax additionally maintains the
// max-GC-pause gauge.
func (s *RuntimeSampler) foldDelta(h *metrics.Float64Histogram, prev []uint64, dst *Histogram, trackMax bool) []uint64 {
	if len(prev) != len(h.Counts) {
		// First sample, or the runtime changed its bucket layout (it may
		// between Go versions, not mid-run): adopt the counts as the new
		// baseline. On the true first sample this folds the pre-existing
		// events in, which is what a recorder starting mid-process wants.
		prev = make([]uint64, len(h.Counts))
	}
	for i, c := range h.Counts {
		n := c - prev[i]
		prev[i] = c
		if n == 0 {
			continue
		}
		// Buckets has len(Counts)+1 boundaries; bucket i spans
		// [Buckets[i], Buckets[i+1]). Use the upper bound as the
		// representative value — conservative for latency data.
		v := h.Buckets[i+1]
		if math.IsInf(v, 1) {
			v = h.Buckets[i]
		}
		if math.IsInf(v, -1) || math.IsNaN(v) {
			continue
		}
		dst.ObserveN(v, n)
		if trackMax && v > s.maxPauseS {
			s.maxPauseS = v
			s.maxPause.Set(v)
		}
	}
	return prev
}

// readRSSBytes reads VmRSS from /proc/self/status. Linux-specific by
// nature; on other platforms (or a masked /proc) it reports ok=false and
// the RSS gauge stays 0 — the heap/sys gauges still tell the story.
func readRSSBytes() (uint64, bool) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("VmRSS:")) {
			continue
		}
		fields := bytes.Fields(line[len("VmRSS:"):])
		if len(fields) < 1 {
			return 0, false
		}
		kb, err := strconv.ParseUint(string(fields[0]), 10, 64)
		if err != nil {
			return 0, false
		}
		return kb * 1024, true
	}
	return 0, false
}
