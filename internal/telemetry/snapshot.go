package telemetry

import (
	"math"
	"sort"
)

// Metric kind names used by Sample.Kind — the string forms of the
// registry's internal kinds, stable for serialization.
const (
	KindCounter   = "counter"
	KindGauge     = "gauge"
	KindHistogram = "histogram"
)

// Sample is one metric instance read out of a registry at a point in
// time: typed, structured, and safe to hold after the read (all slices
// are copies). It is the machine-readable sibling of the Prometheus text
// exposition — the flight recorder and /api/stats providers consume
// these instead of re-parsing text.
type Sample struct {
	// Name is the metric family name (e.g. marauder_engine_fixes_total).
	Name string
	// Labels is the canonical sorted `k="v"` label string, "" when
	// unlabeled — exactly the form used inside `{}` in the text format.
	Labels string
	// Kind is KindCounter, KindGauge or KindHistogram.
	Kind string
	// Counter is the counter value (KindCounter only).
	Counter uint64
	// Gauge is the gauge value (KindGauge only).
	Gauge float64
	// Count and Sum are the observation count and value sum
	// (KindHistogram only).
	Count uint64
	Sum   float64
	// Bounds are the histogram bucket upper bounds, ascending, without
	// the implicit +Inf (KindHistogram only).
	Bounds []float64
	// Cumulative are the cumulative bucket counts aligned with Bounds
	// plus a final +Inf entry equal to Count (KindHistogram only).
	Cumulative []uint64
}

// Series renders the full series identity, `name` or `name{k="v",…}`.
func (s Sample) Series() string { return promSeries(s.Name, s.Labels, "") }

// Snapshot reads every registered metric instance into typed samples,
// sorted by (name, labels). Like any scrape of live metrics the snapshot
// is per-instance atomic, not cross-instance atomic. The returned slice
// and its nested slices are the caller's to keep.
func (r *Registry) Snapshot() []Sample {
	fams := r.snapshotFamilies()
	out := make([]Sample, 0, len(fams))
	for _, f := range fams {
		for _, key := range f.labelKeys {
			s := Sample{Name: f.name, Labels: key, Kind: f.kind.String()}
			switch m := f.instances[key].(type) {
			case *Counter:
				s.Counter = m.Value()
			case *Gauge:
				s.Gauge = m.Value()
			case *Histogram:
				s.Count = m.Count()
				s.Sum = m.Sum()
				s.Bounds = m.Bounds()
				s.Cumulative = m.Cumulative()
			}
			out = append(out, s)
		}
	}
	return out
}

// ObserveN records n observations of the same value in one shot — the
// bulk form of Observe for folding pre-aggregated data (e.g. a
// runtime/metrics histogram delta) into a histogram without n calls.
func (h *Histogram) ObserveN(v float64, n uint64) {
	if n == 0 {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v
	h.buckets[i].Add(n)
	h.count.Add(n)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v*float64(n))
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Quantile estimates the p-quantile (p in [0, 1]) of the observed
// distribution from the cumulative buckets, Prometheus
// histogram_quantile-style: linear interpolation inside the target
// bucket, the first bucket interpolating up from 0, and the +Inf bucket
// clamping to the highest finite bound. NaN when the histogram is empty
// or p is outside [0, 1].
func (h *Histogram) Quantile(p float64) float64 {
	return QuantileFromCumulative(h.bounds, h.Cumulative(), p)
}

// QuantileFromCumulative is Histogram.Quantile over raw cumulative
// buckets, e.g. a Bounds/Cumulative pair read off a live histogram.
// bounds are the finite upper bounds; cum must have len(bounds)+1
// entries, the last being the total count.
func QuantileFromCumulative(bounds []float64, cum []uint64, p float64) float64 {
	if len(cum) != len(bounds)+1 || math.IsNaN(p) || p < 0 || p > 1 {
		return math.NaN()
	}
	total := cum[len(cum)-1]
	if total == 0 {
		return math.NaN()
	}
	target := p * float64(total)
	i := sort.Search(len(cum), func(i int) bool { return float64(cum[i]) >= target })
	if i >= len(bounds) {
		// Target falls in the +Inf bucket: the distribution's tail is
		// beyond the last finite bound, which is the best answer we have.
		if len(bounds) == 0 {
			return math.NaN()
		}
		return bounds[len(bounds)-1]
	}
	lower := 0.0
	var below uint64
	if i > 0 {
		lower = bounds[i-1]
		below = cum[i-1]
	}
	inBucket := cum[i] - below
	if inBucket == 0 {
		return lower
	}
	return lower + (bounds[i]-lower)*(target-float64(below))/float64(inBucket)
}
