package core

import (
	"testing"

	"repro/internal/dot11"
	"repro/internal/geom"
	"repro/internal/wardrive"
)

func localizerKnow() Knowledge {
	return NewKnowledge([]APInfo{
		{BSSID: mac(0xA1), Pos: geom.Pt(-50, 0), MaxRange: 100},
		{BSSID: mac(0xA2), Pos: geom.Pt(50, 0), MaxRange: 100},
		{BSSID: mac(0xA3), Pos: geom.Pt(0, 60), MaxRange: 80},
	})
}

func TestLocalizerNames(t *testing.T) {
	for _, tc := range []struct {
		loc  Localizer
		want string
	}{
		{MLocalizer{}, "m-loc"},
		{CentroidLocalizer{}, "centroid"},
		{ClosestAPLocalizer{}, "closest-ap"},
		{APRadLocalizer{}, "ap-rad"},
		{&APLocLocalizer{}, "ap-loc"},
		{LocalizerFunc{Method: "custom", Func: MLoc}, "custom"},
	} {
		if got := tc.loc.Name(); got != tc.want {
			t.Errorf("Name() = %q, want %q", got, tc.want)
		}
	}
}

func TestLocalizersMatchDirectCalls(t *testing.T) {
	k := localizerKnow()
	gamma := []dot11.MAC{mac(0xA1), mac(0xA2), mac(0xA3)}
	for _, tc := range []struct {
		loc    Localizer
		direct func(Knowledge, []dot11.MAC) (Estimate, error)
	}{
		{MLocalizer{}, MLoc},
		{CentroidLocalizer{}, CentroidBaseline},
		{ClosestAPLocalizer{}, ClosestAPBaseline},
		{LocalizerFunc{Method: "m-loc", Func: MLoc}, MLoc},
	} {
		got, err := tc.loc.Locate(k, gamma)
		if err != nil {
			t.Fatalf("%s: %v", tc.loc.Name(), err)
		}
		want, err := tc.direct(k, gamma)
		if err != nil {
			t.Fatal(err)
		}
		if got.Pos != want.Pos || got.K != want.K {
			t.Errorf("%s: Locate = %+v, direct = %+v", tc.loc.Name(), got, want)
		}
	}
}

func TestAPRadLocalizerTrainAndLocate(t *testing.T) {
	base := NewKnowledge([]APInfo{
		{BSSID: mac(0xA1), Pos: geom.Pt(-50, 0)},
		{BSSID: mac(0xA2), Pos: geom.Pt(50, 0)},
		{BSSID: mac(0xA3), Pos: geom.Pt(400, 0)},
	})
	dev := mac(1)
	sets := map[dot11.MAC][]dot11.MAC{
		dev: {mac(0xA1), mac(0xA2)},
	}
	loc := APRadLocalizer{Cfg: APRadConfig{MaxRadius: 150}}
	trained, err := loc.Train(base, sets)
	if err != nil {
		t.Fatal(err)
	}
	// The co-observed pair forces r1 + r2 ≥ 100.
	if sum := knownRange(t, trained, mac(0xA1)) + knownRange(t, trained, mac(0xA2)); sum < 100-1e-6 {
		t.Errorf("trained radii sum = %v, want ≥ 100", sum)
	}
	est, err := loc.Locate(trained, sets[dev])
	if err != nil {
		t.Fatal(err)
	}
	if est.Method != "ap-rad" {
		t.Errorf("method = %q", est.Method)
	}
	if est.Pos.Dist(geom.Pt(0, 0)) > 60 {
		t.Errorf("estimate %v implausibly far from the co-observed midpoint", est.Pos)
	}
}

func TestAPLocLocalizerTrainsOnce(t *testing.T) {
	// Two training locations hear the AP; its estimated position must fall
	// between them, and the tuple-based training must be memoized.
	ap := mac(0xB1)
	tuples := []wardrive.Tuple{
		{Pos: geom.Pt(-30, 0), APs: []dot11.MAC{ap}},
		{Pos: geom.Pt(30, 0), APs: []dot11.MAC{ap}},
	}
	loc := &APLocLocalizer{
		Tuples: tuples,
		Cfg:    APLocConfig{TrainingRadius: 100, Rad: APRadConfig{MaxRadius: 150}},
	}
	dev := mac(1)
	sets := map[dot11.MAC][]dot11.MAC{dev: {ap}}
	trained, err := loc.Train(Knowledge{}, sets)
	if err != nil {
		t.Fatal(err)
	}
	if loc.Trained.IsZero() {
		t.Fatal("position training not memoized")
	}
	if in, _ := trained.Get(ap); in.Pos.Dist(geom.Pt(0, 0)) > 1e-6 {
		t.Errorf("trained AP position = %v, want origin", in.Pos)
	}
	first := loc.Trained
	if _, err := loc.Train(Knowledge{}, sets); err != nil {
		t.Fatal(err)
	}
	// Memoized: the cached base's backing snapshot itself is reused, not
	// rebuilt.
	if first.Snapshot() != loc.Trained.Snapshot() {
		t.Error("position training reran on second Train call")
	}
	est, err := loc.Locate(trained, sets[dev])
	if err != nil {
		t.Fatal(err)
	}
	if est.Method != "ap-loc" {
		t.Errorf("method = %q", est.Method)
	}
}

func TestAPRadTrainDiagnosed(t *testing.T) {
	base := NewKnowledge([]APInfo{
		{BSSID: mac(0xA1), Pos: geom.Pt(-50, 0)},
		{BSSID: mac(0xA2), Pos: geom.Pt(50, 0)},
	})
	sets := map[dot11.MAC][]dot11.MAC{
		mac(1): {mac(0xA1), mac(0xA2)},
	}
	loc := APRadLocalizer{Cfg: APRadConfig{MaxRadius: 150}}
	trained, diag, err := loc.TrainDiagnosed(base, sets)
	if err != nil {
		t.Fatal(err)
	}
	if trained.Len() != 2 {
		t.Fatalf("trained %d APs, want 2", trained.Len())
	}
	if diag.Constraints < 1 {
		t.Errorf("diag.Constraints = %d, want the co-observation constraint counted", diag.Constraints)
	}
	if diag.LPIterations < 1 {
		t.Errorf("diag.LPIterations = %d, want the simplex pivots counted", diag.LPIterations)
	}
	if diag.Objective <= 0 {
		t.Errorf("diag.Objective = %v, want the positive radii sum", diag.Objective)
	}
	// Train (the plain KnowledgeTrainer face) must agree with the
	// diagnosed run.
	plain, err := loc.Train(base, sets)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Equal(trained) {
		t.Error("Train and TrainDiagnosed disagree")
	}
}
