package telemetry

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestRegistrySnapshotTyped(t *testing.T) {
	r := goldenRegistry()
	snap := r.Snapshot()
	bySeries := make(map[string]Sample, len(snap))
	for _, s := range snap {
		bySeries[s.Series()] = s
	}
	if len(bySeries) != len(snap) {
		t.Fatalf("duplicate series in snapshot: %d samples, %d distinct", len(snap), len(bySeries))
	}

	c, ok := bySeries["app_frames_total"]
	if !ok || c.Kind != KindCounter || c.Counter != 42 {
		t.Fatalf("counter sample wrong: %+v (ok=%v)", c, ok)
	}
	lc, ok := bySeries[`app_requests_total{route="/api/state"}`]
	if !ok || lc.Counter != 7 || lc.Labels != `route="/api/state"` {
		t.Fatalf("labeled counter sample wrong: %+v (ok=%v)", lc, ok)
	}
	g, ok := bySeries["app_workers"]
	if !ok || g.Kind != KindGauge || g.Gauge != 4 {
		t.Fatalf("gauge sample wrong: %+v (ok=%v)", g, ok)
	}
	h, ok := bySeries["app_latency_seconds"]
	if !ok || h.Kind != KindHistogram {
		t.Fatalf("histogram sample missing: %+v (ok=%v)", h, ok)
	}
	if h.Count != 4 || h.Sum != 5.105 {
		t.Fatalf("histogram count/sum wrong: count=%d sum=%v", h.Count, h.Sum)
	}
	wantBounds := []float64{0.01, 0.1, 1}
	wantCum := []uint64{1, 3, 3, 4}
	if len(h.Bounds) != len(wantBounds) || len(h.Cumulative) != len(wantCum) {
		t.Fatalf("histogram shape wrong: bounds=%v cum=%v", h.Bounds, h.Cumulative)
	}
	for i := range wantBounds {
		if h.Bounds[i] != wantBounds[i] {
			t.Fatalf("bounds[%d] = %v, want %v", i, h.Bounds[i], wantBounds[i])
		}
	}
	for i := range wantCum {
		if h.Cumulative[i] != wantCum[i] {
			t.Fatalf("cumulative[%d] = %d, want %d", i, h.Cumulative[i], wantCum[i])
		}
	}

	// The snapshot is detached: mutating the copy must not touch the
	// registry, and later registry updates must not reach the copy.
	h.Cumulative[0] = 99
	if got := r.Snapshot(); got[findSeries(t, got, "app_latency_seconds")].Cumulative[0] != 1 {
		t.Fatal("snapshot aliased the live histogram buckets")
	}

	// Sorted by (name, labels).
	if !sort.SliceIsSorted(snap, func(i, j int) bool {
		if snap[i].Name != snap[j].Name {
			return snap[i].Name < snap[j].Name
		}
		return snap[i].Labels < snap[j].Labels
	}) {
		t.Fatalf("snapshot not sorted: %+v", snap)
	}
}

func findSeries(t *testing.T, snap []Sample, series string) int {
	t.Helper()
	for i, s := range snap {
		if s.Series() == series {
			return i
		}
	}
	t.Fatalf("series %s not in snapshot", series)
	return -1
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]float64{1, 2, 5, 10})

	if q := h.Quantile(0.5); !math.IsNaN(q) {
		t.Fatalf("empty histogram quantile = %v, want NaN", q)
	}

	// 100 observations uniform in (0, 10]: quantiles should land within
	// the right bucket with linear interpolation.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 10)
	}
	for _, tc := range []struct {
		p    float64
		want float64
		tol  float64
	}{
		{0.5, 5, 0.5},   // median of uniform(0,10]
		{0.99, 10, 0.5}, // p99 near the top
		{0.1, 1, 0.2},   // p10 near the first bound
		{0, 0, 0.01},
		{1, 10, 0.01},
	} {
		got := h.Quantile(tc.p)
		if math.Abs(got-tc.want) > tc.tol {
			t.Errorf("Quantile(%v) = %v, want %v ± %v", tc.p, got, tc.want, tc.tol)
		}
	}
	for _, p := range []float64{-0.1, 1.1, math.NaN()} {
		if q := h.Quantile(p); !math.IsNaN(q) {
			t.Errorf("Quantile(%v) = %v, want NaN", p, q)
		}
	}

	// Everything in the +Inf bucket clamps to the highest finite bound.
	inf := newHistogram([]float64{1, 2})
	inf.Observe(100)
	inf.Observe(200)
	if q := inf.Quantile(0.5); q != 2 {
		t.Fatalf("overflow-bucket quantile = %v, want 2 (highest finite bound)", q)
	}
}

func TestQuantileAgainstExactRandom(t *testing.T) {
	// Property: for random data, the bucket estimator must bracket the
	// exact sample quantile within one bucket width.
	rng := rand.New(rand.NewSource(7))
	bounds := LatencyBuckets()
	h := newHistogram(bounds)
	vals := make([]float64, 0, 5000)
	for i := 0; i < 5000; i++ {
		v := math.Pow(10, -5+5*rng.Float64()) // log-uniform 1e-5..1
		h.Observe(v)
		vals = append(vals, v)
	}
	sort.Float64s(vals)
	for _, p := range []float64{0.5, 0.9, 0.99} {
		exact := vals[int(p*float64(len(vals)-1))]
		est := h.Quantile(p)
		// The estimate must land in a bucket adjacent to the exact
		// value's bucket.
		bExact := sort.SearchFloat64s(bounds, exact)
		bEst := sort.SearchFloat64s(bounds, est)
		if d := bEst - bExact; d < -1 || d > 1 {
			t.Errorf("p=%v: estimate %v (bucket %d) too far from exact %v (bucket %d)",
				p, est, bEst, exact, bExact)
		}
	}
}

func TestObserveN(t *testing.T) {
	a := newHistogram([]float64{1, 10})
	b := newHistogram([]float64{1, 10})
	for i := 0; i < 7; i++ {
		a.Observe(0.5)
	}
	for i := 0; i < 3; i++ {
		a.Observe(5)
	}
	b.ObserveN(0.5, 7)
	b.ObserveN(5, 3)
	b.ObserveN(2, 0) // no-op
	if a.Count() != b.Count() || a.Sum() != b.Sum() {
		t.Fatalf("ObserveN mismatch: count %d vs %d, sum %v vs %v",
			a.Count(), b.Count(), a.Sum(), b.Sum())
	}
	ca, cb := a.Cumulative(), b.Cumulative()
	for i := range ca {
		if ca[i] != cb[i] {
			t.Fatalf("bucket %d: %d vs %d", i, ca[i], cb[i])
		}
	}
}
