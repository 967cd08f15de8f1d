package core

import (
	"errors"
	"testing"

	"repro/internal/dot11"
	"repro/internal/geom"
)

// trackKnowledge builds a line of APs 30 m apart with range 150, the
// canonical sliding-Γ fixture.
func trackKnowledge(n int) Knowledge {
	infos := make([]APInfo, n)
	for i := range infos {
		infos[i] = APInfo{
			BSSID:    mac(byte(i + 1)),
			Pos:      geom.Pt(float64(i)*30, 0),
			MaxRange: 150,
		}
	}
	return NewKnowledge(infos)
}

func sameEstimate(t *testing.T, got, want Estimate, step int) {
	t.Helper()
	if got.Pos != want.Pos {
		t.Fatalf("step %d: Pos %v, want %v (not bit-equal)", step, got.Pos, want.Pos)
	}
	if got.K != want.K || got.Method != want.Method {
		t.Fatalf("step %d: K/Method %d/%q, want %d/%q", step, got.K, got.Method, want.K, want.Method)
	}
	if len(got.Vertices) != len(want.Vertices) {
		t.Fatalf("step %d: %d vertices, want %d", step, len(got.Vertices), len(want.Vertices))
	}
	for i := range got.Vertices {
		if got.Vertices[i] != want.Vertices[i] {
			t.Fatalf("step %d: vertex %d = %v, want %v", step, i, got.Vertices[i], want.Vertices[i])
		}
	}
}

// TestMLocTrackedSlidingWindow pins the core contract: across a sliding
// Γ (the tracked-device pattern), MLocTracked returns bit-identical
// estimates to plain MLoc, and takes the incremental path for every ±1
// step after the first.
func TestMLocTrackedSlidingWindow(t *testing.T) {
	const aps, k = 20, 8
	know := trackKnowledge(aps)
	var rt RegionTracker
	for step := 0; step+k <= aps; step++ {
		gamma := make([]dot11.MAC, 0, k)
		for i := step; i < step+k; i++ {
			gamma = append(gamma, mac(byte(i+1)))
		}
		want, wantErr := MLoc(know, gamma)
		got, gotErr := MLocTracked(know, gamma, &rt)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("step %d: err %v, want %v", step, gotErr, wantErr)
		}
		sameEstimate(t, got, want, step)
		wantPath := RegionPathIncremental
		if step == 0 {
			wantPath = RegionPathFull
		}
		if rt.LastPath() != wantPath {
			t.Fatalf("step %d: path %q (diff %d), want %q", step, rt.LastPath(), rt.LastDiff(), wantPath)
		}
		if step > 0 && rt.LastDiff() != 2 {
			t.Fatalf("step %d: diff %d, want 2 (±1 slide)", step, rt.LastDiff())
		}
	}
}

// TestMLocTrackedMatchesMLocRandomized fuzzes Γ churn — including
// overlapping, disjoint and unknown APs — against the plain algorithm.
func TestMLocTrackedMatchesMLocRandomized(t *testing.T) {
	infos := []APInfo{
		{BSSID: mac(1), Pos: geom.Pt(0, 0), MaxRange: 10},
		{BSSID: mac(2), Pos: geom.Pt(8, 0), MaxRange: 10},
		{BSSID: mac(3), Pos: geom.Pt(4, 6), MaxRange: 10},
		{BSSID: mac(4), Pos: geom.Pt(100, 0), MaxRange: 5}, // disjoint from the cluster
		{BSSID: mac(5), Pos: geom.Pt(4, 2), MaxRange: 40},  // contains the cluster
		{BSSID: mac(6), Pos: geom.Pt(0, 0)},                // range unknown: filtered out
	}
	know := NewKnowledge(infos)
	gammas := [][]dot11.MAC{
		{mac(1), mac(2)},
		{mac(1), mac(2), mac(3)},
		{mac(1), mac(2), mac(3), mac(5)},
		{mac(2), mac(3), mac(5)},
		{mac(1), mac(4)}, // empty region
		{mac(1), mac(2), mac(6)},
		{mac(6)},                 // only range-less: no usable APs
		{mac(7), mac(8)},         // unknown APs
		{mac(3)},                 // k=1 degenerates to the AP position
		{mac(2), mac(1), mac(3)}, // non-canonical order: plain-MLoc fallback
		{mac(1), mac(1), mac(2)}, // duplicate: plain-MLoc fallback
		{mac(1), mac(2), mac(3), mac(4), mac(5)},
		{mac(1), mac(2), mac(3), mac(5)},
	}
	var rt RegionTracker
	for step, gamma := range gammas {
		want, wantErr := MLoc(know, gamma)
		got, gotErr := MLocTracked(know, gamma, &rt)
		if (wantErr == nil) != (gotErr == nil) ||
			(wantErr != nil && wantErr.Error() != gotErr.Error()) {
			t.Fatalf("step %d (Γ=%v): err %q, want %q", step, gamma, gotErr, wantErr)
		}
		if wantErr != nil {
			if !errors.Is(gotErr, ErrNoAPs) && !errors.Is(gotErr, ErrEmptyRegion) {
				t.Fatalf("step %d: unexpected error class %v", step, gotErr)
			}
			continue
		}
		sameEstimate(t, got, want, step)
	}
}

// TestMLocTrackedKnowledgeEpochInvalidation: a knowledge swap must force
// a rebuild against the new snapshot, never reuse stale discs.
func TestMLocTrackedKnowledgeEpochInvalidation(t *testing.T) {
	knowA := trackKnowledge(10)
	// Same MACs, shifted positions: stale reuse would be visibly wrong.
	infos := make([]APInfo, 10)
	for i := range infos {
		infos[i] = APInfo{BSSID: mac(byte(i + 1)), Pos: geom.Pt(float64(i)*30+7, 5), MaxRange: 140}
	}
	knowB := NewKnowledge(infos)

	gamma := []dot11.MAC{mac(1), mac(2), mac(3)}
	var rt RegionTracker
	knows := []Knowledge{knowA, knowA, knowB, knowB, knowA}
	// Every epoch change must rebuild; every same-epoch repeat may reuse.
	wantPaths := []string{
		RegionPathFull, RegionPathIncremental,
		RegionPathFull, RegionPathIncremental,
		RegionPathFull,
	}
	for step, know := range knows {
		want, _ := MLoc(know, gamma)
		got, err := MLocTracked(know, gamma, &rt)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		sameEstimate(t, got, want, step)
		if rt.LastPath() != wantPaths[step] {
			t.Fatalf("step %d: path %q, want %q", step, rt.LastPath(), wantPaths[step])
		}
	}
}

// TestMLocTrackedRebuildThreshold: a Γ replaced wholesale takes the
// rebuild path, not a long chain of removes and adds.
func TestMLocTrackedRebuildThreshold(t *testing.T) {
	know := trackKnowledge(20)
	var rt RegionTracker
	g1 := []dot11.MAC{mac(1), mac(2), mac(3), mac(4)}
	g2 := []dot11.MAC{mac(11), mac(12), mac(13), mac(14)}
	if _, err := MLocTracked(know, g1, &rt); err != nil {
		t.Fatal(err)
	}
	want, _ := MLoc(know, g2)
	got, err := MLocTracked(know, g2, &rt)
	if err != nil {
		t.Fatal(err)
	}
	sameEstimate(t, got, want, 1)
	if rt.LastPath() != RegionPathFull {
		t.Fatalf("wholesale Γ swap path %q, want full rebuild", rt.LastPath())
	}
}

// TestMLocTrackedZeroAllocsSteadyState pins the satellite allocation
// gate at the core layer: after warmup, a ±1 sliding fix through
// MLocTracked performs zero allocations.
func TestMLocTrackedZeroAllocsSteadyState(t *testing.T) {
	const aps, k = 40, 8
	know := trackKnowledge(aps)
	gammas := make([][]dot11.MAC, 0, aps-k+1)
	for step := 0; step+k <= aps; step++ {
		gamma := make([]dot11.MAC, 0, k)
		for i := step; i < step+k; i++ {
			gamma = append(gamma, mac(byte(i+1)))
		}
		gammas = append(gammas, gamma)
	}
	var rt RegionTracker
	step := 0
	fix := func() {
		gamma := gammas[step%len(gammas)]
		step++
		if _, err := MLocTracked(know, gamma, &rt); err != nil {
			t.Fatalf("fix %d: %v", step, err)
		}
	}
	for i := 0; i < 2*len(gammas); i++ {
		fix() // warm up arenas across the whole cycle, including the wrap rebuild
	}
	if avg := testing.AllocsPerRun(300, fix); avg != 0 {
		t.Fatalf("steady-state tracked fix allocates %.2f times per fix, want 0", avg)
	}
}
