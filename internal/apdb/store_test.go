package apdb

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/dot11"
	"repro/internal/geom"
)

func mac64(i uint64) dot11.MAC {
	return dot11.MAC{byte(i >> 40), byte(i >> 32), byte(i >> 24), byte(i >> 16), byte(i >> 8), byte(i)}
}

// randomEntries draws n entries with adversarial shapes: duplicate BSSIDs
// (last wins), zero/unknown ranges, and coincident positions.
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

// TestSnapshotNonFinitePositions: NaN/Inf coordinates are stored as
// given; lookups by BSSID still find every entry and return its disc
// unchanged.
func TestSnapshotNonFinitePositions(t *testing.T) {
	entries := []Entry{
		{BSSID: mac64(1), Pos: geom.Pt(0, 0), MaxRange: 10},
		{BSSID: mac64(2), Pos: geom.Pt(math.NaN(), 5), MaxRange: 20},
		{BSSID: mac64(3), Pos: geom.Pt(10, math.Inf(1))},
		{BSSID: mac64(4), Pos: geom.Pt(3, 4), MaxRange: 40},
	}
	sn := FromEntries(entries)
	for _, want := range entries {
		got, ok := sn.Get(want.BSSID)
		samePos := math.Float64bits(got.Pos.X) == math.Float64bits(want.Pos.X) &&
			math.Float64bits(got.Pos.Y) == math.Float64bits(want.Pos.Y)
		if !ok || !samePos || got.MaxRange != want.MaxRange {
			t.Fatalf("Get(%v) = %+v, %v; want %+v", want.BSSID, got, ok, want)
		}
	}
	discs := sn.CandidatesFor(nil, []dot11.MAC{mac64(1), mac64(2), mac64(3), mac64(4)}, 30)
	if len(discs) != 4 || !math.IsNaN(discs[1].C.X) || !math.IsInf(discs[2].C.Y, 1) ||
		discs[0].R != 10 || discs[1].R != 20 || discs[2].R != 30 || discs[3].R != 40 {
		t.Fatalf("CandidatesFor = %+v", discs)
	}
}

// TestFromEntries pins the one construction path: the output is in
// BSSID order whatever the input order, the last entry of a repeated
// BSSID wins wherever the repeats sit, and every call stamps a fresh,
// strictly larger epoch.
func TestFromEntries(t *testing.T) {
	entries := []Entry{
		{BSSID: mac64(7), SSID: "first", MaxRange: 1},
		{BSSID: mac64(3), Pos: geom.Pt(3, 3)},
		{BSSID: mac64(7), SSID: "middle", MaxRange: 2},
		{BSSID: mac64(1), Pos: geom.Pt(1, 1), MaxRange: 10},
		{BSSID: mac64(5)},
		{BSSID: mac64(1), Pos: geom.Pt(9, 9), MaxRange: 99},
		{BSSID: mac64(7), SSID: "last", MaxRange: 3},
	}
	input := append([]Entry(nil), entries...)
	sn := FromEntries(entries)
	if !slices.Equal(entries, input) {
		t.Fatal("FromEntries modified its input")
	}
	want := []Entry{
		{BSSID: mac64(1), Pos: geom.Pt(9, 9), MaxRange: 99},
		{BSSID: mac64(3), Pos: geom.Pt(3, 3)},
		{BSSID: mac64(5)},
		{BSSID: mac64(7), SSID: "last", MaxRange: 3},
	}
	if got := sn.All(); !slices.Equal(got, want) {
		t.Fatalf("All = %+v, want %+v", got, want)
	}
	for i, e := range want {
		if slot, ok := sn.Slot(e.BSSID); !ok || slot != i {
			t.Errorf("Slot(%v) = %d, %v; want %d", e.BSSID, slot, ok, i)
		}
	}

	// Shuffled inputs give the same table; the last duplicate in input
	// order wins wherever it lands.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		shuffled := randomEntries(200, rng)
		last := make(map[dot11.MAC]Entry)
		for _, e := range shuffled {
			last[e.BSSID] = e
		}
		got := FromEntries(shuffled).All()
		if len(got) != len(last) {
			t.Fatalf("trial %d: %d entries, want %d", trial, len(got), len(last))
		}
		for i, e := range got {
			if i > 0 && got[i-1].BSSID.Key() >= e.BSSID.Key() {
				t.Fatalf("trial %d: slot %d out of BSSID order", trial, i)
			}
			if last[e.BSSID] != e {
				t.Fatalf("trial %d: %v holds %+v, want the last entry %+v", trial, e.BSSID, e, last[e.BSSID])
			}
		}
	}

	prev := sn.Epoch()
	for i := 0; i < 5; i++ {
		again := FromEntries(entries)
		if again.Epoch() <= prev {
			t.Fatalf("epoch %d after %d: want strictly larger", again.Epoch(), prev)
		}
		if !again.Equal(sn) {
			t.Fatal("same input must build equal snapshots")
		}
		prev = again.Epoch()
	}
	if FromEntries(nil).Epoch() <= prev || EmptySnapshot().Epoch() != 0 {
		t.Fatal("an empty build must still stamp a fresh epoch; only the shared empty snapshot has epoch 0")
	}
}

func TestSnapshotEqual(t *testing.T) {
	a := FromEntries([]Entry{
		{BSSID: mac64(1), Pos: geom.Pt(1, 1), MaxRange: 10},
		{BSSID: mac64(2), Pos: geom.Pt(2, 2)},
	})
	b := FromEntries([]Entry{ // same content, different insertion order
		{BSSID: mac64(2), Pos: geom.Pt(2, 2)},
		{BSSID: mac64(1), Pos: geom.Pt(1, 1), MaxRange: 10},
	})
	if !a.Equal(b) || !b.Equal(a) {
		t.Error("content-equal snapshots must compare equal")
	}
	c := FromEntries([]Entry{
		{BSSID: mac64(1), Pos: geom.Pt(1, 1), MaxRange: 11},
		{BSSID: mac64(2), Pos: geom.Pt(2, 2)},
	})
	if a.Equal(c) {
		t.Error("differing MaxRange must compare unequal")
	}
	if !EmptySnapshot().Equal(FromEntries(nil)) {
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

	discs := s.CandidatesFor(nil, gamma, 0)
	if len(discs) != 2 || discs[0].R != 70 || discs[1].R != 50 {
		t.Fatalf("no-fallback discs = %+v", discs)
	}
	discs = s.CandidatesFor(nil, gamma, 30)
	if len(discs) != 3 || discs[0].R != 70 || discs[1].R != 50 || discs[2].R != 30 {
		t.Fatalf("fallback discs = %+v", discs)
	}
	if got := s.CandidatesFor(nil, nil, 30); len(got) != 0 {
		t.Fatalf("empty gamma discs = %+v", got)
	}
}

// TestConcurrentQueries runs every lookup path against one snapshot from
// several goroutines at once; run under -race this pins that queries need
// no lock.
func TestConcurrentQueries(t *testing.T) {
	entries := make([]Entry, 0, 4*500)
	for w := 0; w < 4; w++ {
		for i := 0; i < 500; i++ {
			entries = append(entries, Entry{
				BSSID:    mac64(uint64(w*1000 + i)),
				Pos:      geom.Pt(float64(i%100)*10, float64(w)*100),
				MaxRange: 100,
			})
		}
	}
	sn := FromEntries(entries)
	gamma := []dot11.MAC{mac64(1), mac64(1001), mac64(3499), mac64(5000)}
	var readers sync.WaitGroup
	for r := 0; r < 8; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 200; i++ {
				if discs := sn.CandidatesFor(nil, gamma, 50); len(discs) != 3 || discs[1].C != geom.Pt(10, 100) {
					t.Errorf("CandidatesFor = %+v", discs)
					return
				}
				if e, ok := sn.Get(mac64(3499)); !ok || e.Pos != geom.Pt(990, 300) {
					t.Errorf("Get = %+v, %v", e, ok)
					return
				}
			}
		}()
	}
	readers.Wait()
	if n := sn.Len(); n != 4*500 {
		t.Fatalf("snapshot len = %d, want %d", n, 4*500)
	}
}

// TestStoreQueryEdgeCases pins the snapshot's lookup surface at its
// edges: an empty snapshot, and Γs with no known member. (A Get miss on a
// populated snapshot is TestGridIndexGet's.)
func TestStoreQueryEdgeCases(t *testing.T) {
	gamma := []dot11.MAC{mac64(1 << 40), mac64(1 << 41)}
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"empty_snapshot", func(t *testing.T) {
			for _, s := range []*Snapshot{FromEntries(nil), EmptySnapshot()} {
				if e, ok := s.Get(mac64(1)); ok {
					t.Fatalf("empty Get = %+v, want !ok", e)
				}
				if got := s.CandidatesFor(nil, gamma, 50); len(got) != 0 {
					t.Fatalf("empty CandidatesFor = %+v", got)
				}
				if got := s.All(); len(got) != 0 {
					t.Fatalf("empty All = %+v", got)
				}
			}
		}},
		{"unknown_gamma_keeps_dst", func(t *testing.T) {
			s, _ := randomStore(10, 2)
			dst := []geom.Circle{{R: 1}}
			if got := s.CandidatesFor(dst, gamma, 50); len(got) != 1 || got[0].R != 1 {
				t.Fatalf("CandidatesFor over unknown Γ = %+v, want the dst prefix alone", got)
			}
			pts := []geom.Point{geom.Pt(7, 7)}
			if got := s.AppendPositions(pts, gamma); len(got) != 1 || got[0] != geom.Pt(7, 7) {
				t.Fatalf("AppendPositions over unknown Γ = %+v, want the dst prefix alone", got)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, c.run)
	}
}

// randomStore builds a snapshot of n APs at uniform positions in a 2 km
// square, BSSIDs 0..n-1.
func randomStore(n int, seed int64) (*Snapshot, *rand.Rand) {
	rng := rand.New(rand.NewSource(seed))
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{BSSID: mac64(uint64(i)), Pos: geom.Pt(rng.Float64()*2000-1000, rng.Float64()*2000-1000)}
	}
	return FromEntries(entries), rng
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
