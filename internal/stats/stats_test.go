package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("empty mean should be 0")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Error("mean wrong")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		q, want float64
	}{{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {-1, 1}, {2, 5}}
	for _, tt := range tests {
		if got := Quantile(xs, tt.q); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty quantile should be NaN")
	}
	// Quantile must not mutate its input.
	xs2 := []float64{3, 1, 2}
	Quantile(xs2, 0.5)
	if xs2[0] != 3 || xs2[1] != 1 || xs2[2] != 2 {
		t.Error("Quantile mutated input")
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(seed int64) bool {
		n := int(seed%50) + 2
		if n < 2 {
			n = 2
		}
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 100
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := Quantile(xs, q)
			if v < prev-1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	if _, err := NewHistogram(0, 10, 0); err == nil {
		t.Error("want error for 0 bins")
	}
	if _, err := NewHistogram(5, 5, 3); err == nil {
		t.Error("want error for empty range")
	}
	h, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	h.AddAll([]float64{-1, 0, 1.9, 2, 5, 9.99, 10, 42})
	if h.Underflow != 1 {
		t.Errorf("underflow = %d", h.Underflow)
	}
	if h.Overflow != 2 {
		t.Errorf("overflow = %d", h.Overflow)
	}
	want := []int{2, 1, 1, 0, 1}
	for i, c := range h.Counts {
		if c != want[i] {
			t.Errorf("bin %d = %d, want %d", i, c, want[i])
		}
	}
	if h.Total() != 8 {
		t.Errorf("total = %d", h.Total())
	}
	if got := h.BinCenter(0); got != 1 {
		t.Errorf("bin 0 centre = %v", got)
	}
	if !strings.Contains(h.String(), "#") {
		t.Error("String should render bars")
	}
}

func TestGroupByInt(t *testing.T) {
	if _, _, err := GroupByInt([]int{1}, nil); err == nil {
		t.Error("want length mismatch error")
	}
	keys, groups, err := GroupByInt([]int{3, 1, 3, 2}, []float64{30, 10, 31, 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 3 || keys[0] != 1 || keys[2] != 3 {
		t.Errorf("keys = %v", keys)
	}
	if len(groups[3]) != 2 {
		t.Errorf("group 3 = %v", groups[3])
	}
}

func TestMeanByMinKey(t *testing.T) {
	// Keys 1..3; threshold k aggregates values with key >= k.
	keys := []int{1, 2, 3}
	values := []float64{10, 20, 30}
	th, means, err := MeanByMinKey(keys, values)
	if err != nil {
		t.Fatal(err)
	}
	wantMeans := []float64{20, 25, 30}
	for i := range th {
		if math.Abs(means[i]-wantMeans[i]) > 1e-9 {
			t.Errorf("threshold %d: mean = %v, want %v", th[i], means[i], wantMeans[i])
		}
	}
}
