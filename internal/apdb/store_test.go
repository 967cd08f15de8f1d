package apdb

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dot11"
	"repro/internal/geom"
)

func mac64(i uint64) dot11.MAC {
	return dot11.MAC{byte(i >> 40), byte(i >> 32), byte(i >> 24), byte(i >> 16), byte(i >> 8), byte(i)}
}

// randomEntries draws n entries with the adversarial shapes the spatial
// index must survive: duplicate BSSIDs (replace-in-place), zero/unknown
// ranges, and coincident positions.
func randomEntries(n int, rng *rand.Rand) []Entry {
	entries := make([]Entry, 0, n)
	for i := 0; i < n; i++ {
		id := uint64(rng.Intn(n)) // collisions on purpose
		e := Entry{
			BSSID: mac64(id),
			Pos:   geom.Pt(rng.Float64()*2000-1000, rng.Float64()*2000-1000),
		}
		switch rng.Intn(4) {
		case 0: // unknown range
		case 1:
			e.MaxRange = rng.Float64() * 200
		case 2: // coincident with a prior entry
			if len(entries) > 0 {
				e.Pos = entries[rng.Intn(len(entries))].Pos
			}
		case 3:
			e.MaxRange = 120
		}
		entries = append(entries, e)
	}
	return entries
}

// TestSnapshotWithinMatchesScan is the property pin: on random AP sets —
// including duplicate BSSIDs, unknown ranges and coincident positions —
// the grid-indexed Within must return exactly the linear scan's result.
func TestSnapshotWithinMatchesScan(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sn := FromEntries(randomEntries(300, rng)).Snapshot()
		for trial := 0; trial < 30; trial++ {
			p := geom.Pt(rng.Float64()*2400-1200, rng.Float64()*2400-1200)
			dist := rng.Float64() * 400
			want := sn.ScanWithin(p, dist)
			got := sn.Within(p, dist)
			if len(got) != len(want) {
				t.Fatalf("seed %d trial %d: grid %d vs scan %d", seed, trial, len(got), len(want))
			}
			inScan := make(map[dot11.MAC]Entry, len(want))
			for _, e := range want {
				inScan[e.BSSID] = e
			}
			for _, e := range got {
				if inScan[e.BSSID] != e {
					t.Fatalf("seed %d trial %d: grid entry %+v not in scan result", seed, trial, e)
				}
			}
		}
	}
}

// TestSnapshotNonFinitePositions: NaN/Inf coordinates force the linear
// fallback; queries must still answer without panicking and agree with
// the scan.
func TestSnapshotNonFinitePositions(t *testing.T) {
	sn := FromEntries([]Entry{
		{BSSID: mac64(1), Pos: geom.Pt(0, 0)},
		{BSSID: mac64(2), Pos: geom.Pt(math.NaN(), 5)},
		{BSSID: mac64(3), Pos: geom.Pt(10, math.Inf(1))},
		{BSSID: mac64(4), Pos: geom.Pt(3, 4)},
	}).Snapshot()
	got := sn.Within(geom.Pt(0, 0), 6)
	want := sn.ScanWithin(geom.Pt(0, 0), 6)
	if len(got) != len(want) || len(got) != 2 {
		t.Fatalf("Within = %+v, scan = %+v", got, want)
	}
	if near, ok := sn.Nearest(geom.Pt(2.9, 4.1)); !ok || near.BSSID != mac64(4) {
		t.Fatalf("Nearest = %+v, %v", near, ok)
	}
}

// TestSnapshotCopyOnWrite: a published snapshot is immutable — later Adds
// publish a successor with a fresh epoch and leave the old view intact.
func TestSnapshotCopyOnWrite(t *testing.T) {
	s := New()
	s.Add(Entry{BSSID: mac64(1), Pos: geom.Pt(1, 1), MaxRange: 10})
	first := s.Snapshot()
	if first.Len() != 1 {
		t.Fatalf("first snapshot len = %d", first.Len())
	}
	if again := s.Snapshot(); again != first {
		t.Error("clean store must return the cached snapshot pointer")
	}

	s.Add(Entry{BSSID: mac64(2), Pos: geom.Pt(2, 2), MaxRange: 20})
	s.Add(Entry{BSSID: mac64(1), Pos: geom.Pt(9, 9), MaxRange: 99}) // replace
	second := s.Snapshot()
	if second == first {
		t.Fatal("mutation must publish a new snapshot")
	}
	if second.Epoch() == first.Epoch() {
		t.Fatal("distinct snapshots must carry distinct epochs")
	}
	if second.Epoch() < first.Epoch() {
		t.Fatal("epochs must be monotonic")
	}
	// The old view still answers with the old data.
	if e, ok := first.Get(mac64(1)); !ok || e.Pos != geom.Pt(1, 1) || e.MaxRange != 10 {
		t.Fatalf("first snapshot mutated: %+v", e)
	}
	if _, ok := first.Get(mac64(2)); ok {
		t.Fatal("first snapshot sees a later Add")
	}
	// The new view has the replace applied, still one slot per BSSID.
	if second.Len() != 2 {
		t.Fatalf("second snapshot len = %d", second.Len())
	}
	if e, _ := second.Get(mac64(1)); e.MaxRange != 99 {
		t.Fatalf("replace not applied: %+v", e)
	}
}

func TestSnapshotEqual(t *testing.T) {
	a := FromEntries([]Entry{
		{BSSID: mac64(1), Pos: geom.Pt(1, 1), MaxRange: 10},
		{BSSID: mac64(2), Pos: geom.Pt(2, 2)},
	}).Snapshot()
	b := FromEntries([]Entry{ // same content, different insertion order
		{BSSID: mac64(2), Pos: geom.Pt(2, 2)},
		{BSSID: mac64(1), Pos: geom.Pt(1, 1), MaxRange: 10},
	}).Snapshot()
	if !a.Equal(b) || !b.Equal(a) {
		t.Error("content-equal snapshots must compare equal")
	}
	c := FromEntries([]Entry{
		{BSSID: mac64(1), Pos: geom.Pt(1, 1), MaxRange: 11},
		{BSSID: mac64(2), Pos: geom.Pt(2, 2)},
	}).Snapshot()
	if a.Equal(c) {
		t.Error("differing MaxRange must compare unequal")
	}
	if !EmptySnapshot().Equal(New().Snapshot()) {
		t.Error("empty snapshots must compare equal")
	}
}

// TestCandidatesFor pins the Γ-order disc semantics M-Loc depends on:
// gamma order preserved, per-AP range, fallback for unknown ranges, and
// range-less APs skipped when the fallback is zero.
func TestCandidatesFor(t *testing.T) {
	s := FromEntries([]Entry{
		{BSSID: mac64(1), Pos: geom.Pt(1, 0), MaxRange: 50},
		{BSSID: mac64(2), Pos: geom.Pt(2, 0)}, // unknown range
		{BSSID: mac64(3), Pos: geom.Pt(3, 0), MaxRange: 70},
	})
	gamma := []dot11.MAC{mac64(3), mac64(9), mac64(1), mac64(2)}

	discs := s.CandidatesFor(gamma, 0)
	if len(discs) != 2 || discs[0].R != 70 || discs[1].R != 50 {
		t.Fatalf("no-fallback discs = %+v", discs)
	}
	discs = s.CandidatesFor(gamma, 30)
	if len(discs) != 3 || discs[0].R != 70 || discs[1].R != 50 || discs[2].R != 30 {
		t.Fatalf("fallback discs = %+v", discs)
	}
	if got := s.CandidatesFor(nil, 30); len(got) != 0 {
		t.Fatalf("empty gamma discs = %+v", got)
	}
}

// TestConcurrentAddAndQuery drives ingest and queries in parallel; run
// under -race this pins the reader/writer isolation of the COW design.
func TestConcurrentAddAndQuery(t *testing.T) {
	s := New()
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 500; i++ {
				s.Add(Entry{
					BSSID:    mac64(uint64(w*1000 + i)),
					Pos:      geom.Pt(float64(i%100)*10, float64(w)*100),
					MaxRange: 100,
				})
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sn := s.Snapshot()
				sn.Within(geom.Pt(100, 100), 200)
				sn.Nearest(geom.Pt(0, 0))
				s.CandidatesFor([]dot11.MAC{mac64(1), mac64(1001)}, 50)
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if n := s.Len(); n != 4*500 {
		t.Fatalf("store len = %d, want %d", n, 4*500)
	}
}

// TestStoreQueryEdgeCases pins the Store's query surface at its edges:
// out-of-range radii, an empty store, Nearest against a brute-force
// scan, and Adds made after earlier queries, which every query path must
// see rather than a snapshot cached by the warm-up. (A Get miss is
// TestGridIndexGet's.)
func TestStoreQueryEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"within_negative_radius", func(t *testing.T) {
			s, _ := randomStore(10, 2)
			if got := s.Within(geom.Pt(0, 0), -1); got != nil {
				t.Fatalf("Within(-1) = %+v, want nil", got)
			}
		}},
		{"within_far_away", func(t *testing.T) {
			s, _ := randomStore(10, 2)
			if got := s.Within(geom.Pt(1e7, 1e7), 10); len(got) != 0 {
				t.Fatalf("far Within = %+v, want empty", got)
			}
		}},
		{"nearest_empty", func(t *testing.T) {
			if e, ok := New().Nearest(geom.Pt(0, 0)); ok {
				t.Fatalf("empty Nearest = %+v, want !ok", e)
			}
		}},
		{"nearest_matches_scan", func(t *testing.T) {
			s, rng := randomStore(150, 3)
			all := s.All()
			for trial := 0; trial < 100; trial++ {
				p := geom.Pt(rng.Float64()*2400-1200, rng.Float64()*2400-1200)
				best, want := math.Inf(1), Entry{}
				for _, e := range all {
					if d := e.Pos.Dist(p); d < best {
						best, want = d, e
					}
				}
				if got, ok := s.Nearest(p); !ok || got.BSSID != want.BSSID {
					t.Fatalf("trial %d: Nearest = %+v, %v; scan says %+v", trial, got, ok, want)
				}
			}
		}},
		{"adds_after_queries_visible", func(t *testing.T) {
			s, _ := randomStore(50, 6)
			s.Within(geom.Pt(0, 0), 100)
			s.Nearest(geom.Pt(5000, 5000))
			late := Entry{BSSID: mac64(200), Pos: geom.Pt(5000, 5000), MaxRange: 80}
			s.Add(late)
			if s.Len() != 51 {
				t.Fatalf("Len after Add = %d, want 51", s.Len())
			}
			if got, ok := s.Get(late.BSSID); !ok || got != late {
				t.Fatalf("Get after Add = %+v, %v", got, ok)
			}
			if within := s.Within(geom.Pt(5000, 5000), 10); len(within) != 1 || within[0].BSSID != late.BSSID {
				t.Fatalf("Within after Add = %+v, want the late AP", within)
			}
			if near, ok := s.Nearest(geom.Pt(4990, 5010)); !ok || near.BSSID != late.BSSID {
				t.Fatalf("Nearest after Add = %+v, want the late AP", near)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, c.run)
	}
}

// randomStore fills a store with n APs at uniform positions in a 2 km
// square, BSSIDs 0..n-1.
func randomStore(n int, seed int64) (*Store, *rand.Rand) {
	rng := rand.New(rand.NewSource(seed))
	s := New()
	for i := 0; i < n; i++ {
		s.Add(Entry{BSSID: mac64(uint64(i)), Pos: geom.Pt(rng.Float64()*2000-1000, rng.Float64()*2000-1000)})
	}
	return s, rng
}

// TestGridIndexMatchesLinearScan checks the live Store's grid-indexed
// Within against the snapshot's exported linear scan, so the grid is
// compared with ground truth rather than with itself.
func TestGridIndexMatchesLinearScan(t *testing.T) {
	s, rng := randomStore(200, 1)
	if s.Len() != 200 {
		t.Fatalf("indexed %d", s.Len())
	}
	sn := s.Snapshot()
	for trial := 0; trial < 50; trial++ {
		p := geom.Pt(rng.Float64()*2200-1100, rng.Float64()*2200-1100)
		dist := rng.Float64() * 500
		want := sn.ScanWithin(p, dist)
		got := s.Within(p, dist)
		if len(got) != len(want) {
			t.Fatalf("trial %d: grid %d vs linear %d entries", trial, len(got), len(want))
		}
		inScan := make(map[dot11.MAC]Entry, len(want))
		for _, e := range want {
			inScan[e.BSSID] = e
		}
		for _, e := range got {
			if inScan[e.BSSID] != e {
				t.Fatalf("trial %d: grid returned %+v not in linear result", trial, e)
			}
		}
	}
}

// TestGridIndexGet: a Get hit returns the stored entry and a miss
// reports !ok.
func TestGridIndexGet(t *testing.T) {
	s, _ := randomStore(20, 4)
	want := s.All()[7]
	got, ok := s.Get(want.BSSID)
	if !ok || got != want {
		t.Errorf("Get = %v, %v; want %v", got, ok, want)
	}
	if _, ok := s.Get(mac64(200)); ok {
		t.Error("missing entry found")
	}
}
