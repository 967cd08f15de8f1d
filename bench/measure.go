package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// stamp is an instant on the monotonic clock, in nanoseconds since the
// process started. The benchmark logs instants by the hundred thousand;
// unlike a time.Time, a stamp holds no pointer, so the collector never
// scans those logs and their growth costs the system under test nothing.
type stamp int64

var epoch = time.Now()

func now() stamp { return stamp(time.Since(epoch)) }

// sub is the time from t to s.
func (s stamp) sub(t stamp) time.Duration { return time.Duration(s - t) }

func sleepUntil(t stamp) { time.Sleep(t.sub(now())) }

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var rtSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/gc/heap/allocs:bytes"},
}

// runtimeNow reads the cumulative GC CPU seconds and heap bytes
// allocated.
func runtimeNow() (gcSec float64, allocBytes uint64) {
	s := make([]metrics.Sample, len(rtSamples))
	copy(s, rtSamples)
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gcSec = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		allocBytes = s[1].Value.Uint64()
	}
	return gcSec, allocBytes
}

// liveHeapMB is the live heap after forced collections: two, since what
// a sync.Pool drops survives the first in its victim cache.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// mark is the process state at one window boundary of the timed phase.
type mark struct {
	at    stamp
	cpu   time.Duration
	items int64
	gcSec float64
	alloc uint64
}

// windowStats sums the windows between consecutive marks whose index
// passes keep (nil keeps every window).
type windowStats struct {
	rates    []float64 // items per second, one per window
	cpuPer   []float64 // CPU ns per item, one per window
	items    int64
	cpu      time.Duration
	gcSec    float64
	alloc    uint64
	from, to []stamp // window bounds, for assigning samples
}

func sumWindows(marks []mark, keep func(i int) bool) windowStats {
	var w windowStats
	for i := 0; i+1 < len(marks); i++ {
		if keep != nil && !keep(i) {
			continue
		}
		a, b := marks[i], marks[i+1]
		dt := b.at.sub(a.at)
		w.rates = append(w.rates, float64(b.items-a.items)/dt.Seconds())
		w.cpuPer = append(w.cpuPer, float64((b.cpu-a.cpu).Nanoseconds())/float64(max(b.items-a.items, 1)))
		w.items += b.items - a.items
		w.cpu += b.cpu - a.cpu
		w.gcSec += b.gcSec - a.gcSec
		w.alloc += b.alloc - a.alloc
		w.from = append(w.from, a.at)
		w.to = append(w.to, b.at)
	}
	return w
}

// window is the index of the kept window t falls inside, or -1.
func (w windowStats) window(t stamp) int {
	for i := range w.from {
		if t >= w.from[i] && t < w.to[i] {
			return i
		}
	}
	return -1
}

func (w windowStats) contains(t stamp) bool { return w.window(t) >= 0 }

// sample is one latency measurement, stamped with when it completed.
type sample struct {
	at stamp
	ms float64
}

// keepSamples returns the latencies that completed inside w's windows,
// each divided by its window's entry in div when div is not nil.
func keepSamples(samples []sample, w windowStats, div []float64) []float64 {
	out := make([]float64, 0, len(samples))
	for _, s := range samples {
		if i := w.window(s.at); i >= 0 {
			if div != nil {
				s.ms /= div[i]
			}
			out = append(out, s.ms)
		}
	}
	return out
}

// median of xs (NaN when empty); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile is one reported quantile of an exact sample set.
type percentile struct {
	Value float64 // the quantile
	Q     float64 // the quantile actually reported, in (0, 1)
	N     int     // sample count
	// Capped is set when the asked-for quantile lacked minBeyond samples
	// beyond it and Q is the highest one that has them.
	Capped bool
}

// quantile reports the nearest-rank q-quantile of xs. A tail quantile
// needs minBeyond samples above it; when xs is too small for q, the
// highest supported quantile is reported instead and Capped is set. With
// no more than minBeyond samples the maximum is reported, capped.
func quantile(xs []float64, q float64) percentile {
	n := len(xs)
	if n == 0 {
		return percentile{Value: math.NaN(), Q: q}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(n))) // 1-based
	rank = max(rank, 1)
	p := percentile{Q: q, N: n}
	if q > 0.5 && n-rank < minBeyond {
		p.Capped = true
		rank = n
		if n > minBeyond {
			rank = n - minBeyond
		}
		p.Q = float64(rank) / float64(n)
	}
	p.Value = s[rank-1]
	return p
}

// note describes a capped quantile for the output.
func (p percentile) note(asked string) string {
	if !p.Capped {
		return ""
	}
	return fmt.Sprintf("%s has fewer than %d of %d samples beyond it; reports p%.1f", asked, minBeyond, p.N, 100*p.Q)
}

// lateness reports, for an open loop, how late each send started after
// it was due, in ms.
func lateness(due, started []stamp) []float64 {
	out := make([]float64, 0, len(due))
	for i := range due {
		if i < len(started) {
			out = append(out, ms(started[i].sub(due[i])))
		}
	}
	return out
}

// freshness matches each batch to the first map frame whose Snapshot
// began after the batch's ingest callback returned, and reports due time
// → end of that frame's response. Batches no frame reflected before the
// run ended are left out. frameStart must be ascending, with frameEnd
// aligned to it.
func freshness(due, ingested, frameStart, frameEnd []stamp) []sample {
	var out []sample
	for i := range due {
		if i >= len(ingested) {
			break
		}
		j := sort.Search(len(frameStart), func(j int) bool { return frameStart[j] > ingested[i] })
		if j == len(frameStart) {
			continue
		}
		out = append(out, sample{at: frameEnd[j], ms: ms(frameEnd[j].sub(due[i]))})
	}
	return out
}
