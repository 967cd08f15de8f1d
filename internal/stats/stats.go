// Package stats provides the small statistical toolkit the evaluation
// harness uses: means, histograms, CDF quantiles, and grouping of
// localization errors by the number of communicable APs (the x-axis of the
// paper's Figs 14-16).
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) using linear interpolation on
// a sorted copy of xs. It returns NaN for an empty slice.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Histogram is a fixed-width binned histogram over [Min, Max).
type Histogram struct {
	Min, Max float64
	Counts   []int
	// Overflow counts samples ≥ Max; Underflow counts samples < Min.
	Overflow, Underflow int
	total               int
}

// NewHistogram creates a histogram with bins equal-width bins over
// [min, max).
func NewHistogram(min, max float64, bins int) (*Histogram, error) {
	if bins <= 0 {
		return nil, fmt.Errorf("stats: invalid bin count %d", bins)
	}
	if max <= min {
		return nil, fmt.Errorf("stats: invalid range [%v, %v)", min, max)
	}
	return &Histogram{Min: min, Max: max, Counts: make([]int, bins)}, nil
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	h.total++
	switch {
	case x < h.Min:
		h.Underflow++
	case x >= h.Max:
		h.Overflow++
	default:
		i := int((x - h.Min) / (h.Max - h.Min) * float64(len(h.Counts)))
		if i >= len(h.Counts) {
			i = len(h.Counts) - 1
		}
		h.Counts[i]++
	}
}

// AddAll records all samples.
func (h *Histogram) AddAll(xs []float64) {
	for _, x := range xs {
		h.Add(x)
	}
}

// Total returns the number of samples recorded, including out-of-range ones.
func (h *Histogram) Total() int { return h.total }

// BinCenter returns the centre value of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Max - h.Min) / float64(len(h.Counts))
	return h.Min + (float64(i)+0.5)*w
}

// String renders an ASCII bar chart, one row per bin.
func (h *Histogram) String() string {
	var b strings.Builder
	maxC := 1
	for _, c := range h.Counts {
		if c > maxC {
			maxC = c
		}
	}
	for i, c := range h.Counts {
		bar := strings.Repeat("#", c*40/maxC)
		fmt.Fprintf(&b, "%8.2f |%-40s %d\n", h.BinCenter(i), bar, c)
	}
	return b.String()
}

// GroupByInt buckets values by an integer key (e.g. localization error by
// number of communicable APs) and returns the sorted keys with each
// bucket's values.
func GroupByInt(keys []int, values []float64) (sortedKeys []int, groups map[int][]float64, err error) {
	if len(keys) != len(values) {
		return nil, nil, fmt.Errorf("stats: keys (%d) and values (%d) length mismatch",
			len(keys), len(values))
	}
	groups = make(map[int][]float64)
	for i, k := range keys {
		groups[k] = append(groups[k], values[i])
	}
	sortedKeys = make([]int, 0, len(groups))
	for k := range groups {
		sortedKeys = append(sortedKeys, k)
	}
	sort.Ints(sortedKeys)
	return sortedKeys, groups, nil
}

// MeanByMinKey computes, for each threshold key k in sortedKeys, the mean of
// all values whose key is ≥ k — the paper's "minimum number of communicable
// APs" x-axis (Figs 14-16): a point at k aggregates every device that saw at
// least k APs.
func MeanByMinKey(keys []int, values []float64) (thresholds []int, means []float64, err error) {
	sortedKeys, groups, err := GroupByInt(keys, values)
	if err != nil {
		return nil, nil, err
	}
	for _, k := range sortedKeys {
		var agg []float64
		for _, k2 := range sortedKeys {
			if k2 >= k {
				agg = append(agg, groups[k2]...)
			}
		}
		thresholds = append(thresholds, k)
		means = append(means, Mean(agg))
	}
	return thresholds, means, nil
}
