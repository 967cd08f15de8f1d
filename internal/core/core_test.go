package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dot11"
	"repro/internal/geom"
)

func mac(i byte) dot11.MAC { return dot11.MAC{0, 0, 0, 0, 0, i} }

// knowledgeOn builds a Knowledge with APs at the given positions, all with
// the same radius.
func knowledgeOn(positions []geom.Point, r float64) (Knowledge, []dot11.MAC) {
	infos := make([]APInfo, 0, len(positions))
	gamma := make([]dot11.MAC, 0, len(positions))
	for i, p := range positions {
		m := mac(byte(i + 1))
		infos = append(infos, APInfo{BSSID: m, Pos: p, MaxRange: r})
		gamma = append(gamma, m)
	}
	return NewKnowledge(infos), gamma
}

func TestMLocSymmetricPair(t *testing.T) {
	// Two APs at (±50, 0) with r=100: the lens is symmetric about the
	// origin, so the vertex centroid is the origin.
	k, gamma := knowledgeOn([]geom.Point{geom.Pt(-50, 0), geom.Pt(50, 0)}, 100)
	est, err := MLoc(k, gamma)
	if err != nil {
		t.Fatal(err)
	}
	if est.Pos.Norm() > 1e-9 {
		t.Errorf("estimate = %v, want origin", est.Pos)
	}
	if est.K != 2 || est.Method != "m-loc" || len(est.Vertices) != 2 {
		t.Errorf("estimate meta = %+v", est)
	}
}

func TestMLocSingleAPDegeneratesToNearestAP(t *testing.T) {
	k, gamma := knowledgeOn([]geom.Point{geom.Pt(30, 40)}, 100)
	est, err := MLoc(k, gamma)
	if err != nil {
		t.Fatal(err)
	}
	if est.Pos != geom.Pt(30, 40) {
		t.Errorf("estimate = %v, want the AP position", est.Pos)
	}
}

func TestMLocErrors(t *testing.T) {
	k, _ := knowledgeOn([]geom.Point{geom.Pt(0, 0)}, 100)
	if _, err := MLoc(k, []dot11.MAC{mac(99)}); !errors.Is(err, ErrNoAPs) {
		t.Errorf("unknown AP: %v", err)
	}
	// Disjoint discs: empty region.
	k2, gamma2 := knowledgeOn([]geom.Point{geom.Pt(0, 0), geom.Pt(1000, 0)}, 100)
	if _, err := MLoc(k2, gamma2); !errors.Is(err, ErrEmptyRegion) {
		t.Errorf("disjoint: %v", err)
	}
}

func TestMLocSkipsRangelessAPs(t *testing.T) {
	k, gamma := knowledgeOn([]geom.Point{geom.Pt(-50, 0), geom.Pt(50, 0)}, 100)
	noRange := mac(77)
	k = NewKnowledge(append(k.All(), APInfo{BSSID: noRange, Pos: geom.Pt(999, 999)}))
	est, err := MLoc(k, append(gamma, noRange))
	if err != nil {
		t.Fatal(err)
	}
	if est.K != 2 {
		t.Errorf("K = %d, want 2 (range-less AP skipped)", est.K)
	}
}

// The paper's guarantee: with accurate AP locations and radii, the true
// location always lies in the intersected region, so the estimate can be
// off by at most the region diameter ≤ 2r.
func TestMLocErrorBoundedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		truth := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		kAPs := rng.Intn(9) + 1
		r := 50 + rng.Float64()*150
		positions := make([]geom.Point, 0, kAPs)
		for i := 0; i < kAPs; i++ {
			ang := rng.Float64() * 2 * math.Pi
			d := rng.Float64() * r
			positions = append(positions, geom.Pt(
				truth.X+d*math.Cos(ang), truth.Y+d*math.Sin(ang)))
		}
		k, gamma := knowledgeOn(positions, r)
		est, err := MLoc(k, gamma)
		if err != nil {
			return false
		}
		if !RegionCovers(k, gamma, truth) {
			return false
		}
		return Error(est, truth) <= 2*r+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Fig 4: under a biased AP distribution, disc-intersection stays accurate
// while the centroid baseline drifts toward the cluster.
func TestMLocBeatsCentroidUnderBias(t *testing.T) {
	truth := geom.Pt(0, 0)
	r := 200.0
	// 5 APs around the device, 10 clustered far to the north-east corner of
	// its range.
	positions := []geom.Point{
		geom.Pt(-150, 0), geom.Pt(150, 20), geom.Pt(0, -140), geom.Pt(30, 120), geom.Pt(-60, 80),
	}
	for i := 0; i < 10; i++ {
		positions = append(positions, geom.Pt(110+float64(i%3)*8, 110+float64(i/3)*8))
	}
	k, gamma := knowledgeOn(positions, r)
	if !RegionCovers(k, gamma, truth) {
		t.Fatal("bad test setup: truth not covered")
	}
	mloc, err := MLoc(k, gamma)
	if err != nil {
		t.Fatal(err)
	}
	cent, err := CentroidBaseline(k, gamma)
	if err != nil {
		t.Fatal(err)
	}
	if Error(mloc, truth) >= Error(cent, truth) {
		t.Errorf("m-loc error %.1f should beat centroid %.1f under bias",
			Error(mloc, truth), Error(cent, truth))
	}
}

// More communicable APs can only shrink the region and thus (on average)
// the M-Loc error; verify the area monotonicity directly.
func TestRegionAreaMonotoneInK(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	truth := geom.Pt(0, 0)
	r := 150.0
	var positions []geom.Point
	prevArea := math.Inf(1)
	for i := 0; i < 8; i++ {
		ang := rng.Float64() * 2 * math.Pi
		d := rng.Float64() * r
		positions = append(positions, geom.Pt(truth.X+d*math.Cos(ang), truth.Y+d*math.Sin(ang)))
		k, gamma := knowledgeOn(positions, r)
		area := RegionArea(k, gamma)
		if area > prevArea+1e-6 {
			t.Fatalf("area grew from %.2f to %.2f at k=%d", prevArea, area, i+1)
		}
		prevArea = area
	}
}

func TestCentroidBaseline(t *testing.T) {
	k, gamma := knowledgeOn([]geom.Point{geom.Pt(0, 0), geom.Pt(100, 0)}, 100)
	est, err := CentroidBaseline(k, gamma)
	if err != nil {
		t.Fatal(err)
	}
	if est.Pos != geom.Pt(50, 0) || est.Method != "centroid" {
		t.Errorf("centroid = %+v", est)
	}
	if _, err := CentroidBaseline(k, []dot11.MAC{mac(99)}); !errors.Is(err, ErrNoAPs) {
		t.Errorf("err = %v", err)
	}
}

func TestClosestAPBaseline(t *testing.T) {
	k := NewKnowledge([]APInfo{
		{BSSID: mac(1), Pos: geom.Pt(0, 0), MaxRange: 200},
		{BSSID: mac(2), Pos: geom.Pt(50, 0), MaxRange: 60},
		{BSSID: mac(3), Pos: geom.Pt(99, 0)}, // unknown range
	})
	est, err := ClosestAPBaseline(k, []dot11.MAC{mac(1), mac(2), mac(3)})
	if err != nil {
		t.Fatal(err)
	}
	if est.Pos != geom.Pt(50, 0) {
		t.Errorf("closest-ap picked %v, want the smallest-radius AP", est.Pos)
	}
	if _, err := ClosestAPBaseline(k, nil); !errors.Is(err, ErrNoAPs) {
		t.Errorf("err = %v", err)
	}
}

func TestKnowledgeHelpers(t *testing.T) {
	k := NewKnowledge([]APInfo{
		{BSSID: mac(1), Pos: geom.Pt(0, 0), MaxRange: 100},
		{BSSID: mac(2), Pos: geom.Pt(10, 0)},
	})
	if k.Len() != 2 {
		t.Fatalf("knowledge size = %d", k.Len())
	}
	gamma := []dot11.MAC{mac(1), mac(2), mac(9)}
	if got := k.Discs(gamma, 0); len(got) != 1 {
		t.Errorf("discs without fallback = %v", got)
	}
	if got := k.Discs(gamma, 50); len(got) != 2 {
		t.Errorf("discs with fallback = %v", got)
	}
	if got := k.Positions(gamma); len(got) != 2 {
		t.Errorf("positions = %v", got)
	}
	if RegionArea(k, []dot11.MAC{mac(9)}) != 0 {
		t.Error("unknown AP region area should be 0")
	}
	if RegionCovers(k, []dot11.MAC{mac(9)}, geom.Pt(0, 0)) {
		t.Error("empty disc set covers nothing")
	}
}

func TestErrorMetric(t *testing.T) {
	e := Estimate{Pos: geom.Pt(3, 4)}
	if Error(e, geom.Pt(0, 0)) != 5 {
		t.Error("error metric wrong")
	}
}

func TestTrackError(t *testing.T) {
	if TrackError(nil, nil) != 0 {
		t.Error("empty track error should be 0")
	}
	points := []TrackPoint{
		{TimeSec: 0, Est: Estimate{Pos: geom.Pt(3, 4)}},
		{TimeSec: 1, Est: Estimate{Pos: geom.Pt(0, 0)}},
	}
	truthAt := func(float64) geom.Point { return geom.Pt(0, 0) }
	if got := TrackError(points, truthAt); got != 2.5 {
		t.Errorf("mean error = %v, want 2.5", got)
	}
}
