package apdb

import (
	"bytes"

	"repro/internal/dot11"
	"repro/internal/geom"
)

// Snapshot is the AP database: an immutable, BSSID-sorted
// struct-of-arrays table built by FromEntries. Every query method is safe
// for unsynchronized concurrent use.
//
// Lookups (Slot, Get, CandidatesFor, AppendPositions) binary-search the
// packed BSSID array — O(log n) on 6-byte keys, no per-snapshot hash map
// to copy. Localization only ever asks by BSSID, so there is no spatial
// index.
type Snapshot struct {
	epoch uint64
	bssid []byte // packed 6-byte BSSIDs, ascending
	ssid  []string
	pos   []geom.Point
	rng   []float64
}

// emptySnapshot backs empty views (e.g. a zero core.Knowledge).
var emptySnapshot = &Snapshot{}

// EmptySnapshot returns the shared empty snapshot (epoch 0).
func EmptySnapshot() *Snapshot { return emptySnapshot }

// Epoch is the snapshot's process-unique generation number. Two snapshots
// with equal epochs are the same snapshot; the engine uses this as the
// knowledge generation for exact Γ-cache invalidation. The shared empty
// snapshot has epoch 0.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Len returns the number of entries.
func (s *Snapshot) Len() int { return len(s.rng) }

// Slot returns the array index of a BSSID via binary search over the
// packed key array. Hand-rolled on 48-bit integer keys: this sits on the
// M-Loc hot path (one probe per Γ member per fix), where a closure-based
// search over byte slices costs a measurable share of the frame.
func (s *Snapshot) Slot(bssid dot11.MAC) (int, bool) {
	want := bssid.Key()
	lo, hi := 0, len(s.rng)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if dot11.MAC(s.bssid[mid*6:]).Key() < want {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.rng) && dot11.MAC(s.bssid[lo*6:]).Key() == want {
		return lo, true
	}
	return 0, false
}

// MACAt returns the BSSID at slot i.
func (s *Snapshot) MACAt(i int) dot11.MAC {
	var m dot11.MAC
	copy(m[:], s.bssid[i*6:])
	return m
}

// PosAt returns the position at slot i.
func (s *Snapshot) PosAt(i int) geom.Point { return s.pos[i] }

// EntryAt materializes the entry at slot i.
func (s *Snapshot) EntryAt(i int) Entry {
	return Entry{BSSID: s.MACAt(i), SSID: s.ssid[i], Pos: s.pos[i], MaxRange: s.rng[i]}
}

// Get returns the entry for a BSSID.
func (s *Snapshot) Get(bssid dot11.MAC) (Entry, bool) {
	i, ok := s.Slot(bssid)
	if !ok {
		return Entry{}, false
	}
	return s.EntryAt(i), true
}

// All returns every entry in BSSID order (a fresh slice per call).
func (s *Snapshot) All() []Entry {
	out := make([]Entry, s.Len())
	for i := range out {
		out[i] = s.EntryAt(i)
	}
	return out
}

// Equal reports whether two snapshots hold identical entries (same
// BSSIDs, SSIDs, positions and ranges). Same-pointer snapshots are equal
// without scanning.
func (s *Snapshot) Equal(o *Snapshot) bool {
	if s == o {
		return true
	}
	if s == nil || o == nil || s.Len() != o.Len() {
		return false
	}
	if !bytes.Equal(s.bssid, o.bssid) {
		return false
	}
	for i := range s.rng {
		if s.pos[i] != o.pos[i] || s.rng[i] != o.rng[i] || s.ssid[i] != o.ssid[i] {
			return false
		}
	}
	return true
}

// CandidatesFor appends the coverage discs of the Γ members present in
// the snapshot to dst and returns it — the candidate-disc lookup M-Loc
// and AP-Rad intersect. Each AP uses its own MaxRange, or fallbackRange
// when unknown; fallbackRange ≤ 0 skips range-less APs. Cost is
// O(|Γ| log n) regardless of the snapshot size.
func (s *Snapshot) CandidatesFor(dst []geom.Circle, gamma []dot11.MAC, fallbackRange float64) []geom.Circle {
	for _, m := range gamma {
		i, ok := s.Slot(m)
		if !ok {
			continue
		}
		r := s.rng[i]
		if r <= 0 {
			if fallbackRange <= 0 {
				continue
			}
			r = fallbackRange
		}
		dst = append(dst, geom.Circle{C: s.pos[i], R: r})
	}
	return dst
}

// AppendPositions appends the known positions of the Γ members to dst.
func (s *Snapshot) AppendPositions(dst []geom.Point, gamma []dot11.MAC) []geom.Point {
	for _, m := range gamma {
		if i, ok := s.Slot(m); ok {
			dst = append(dst, s.pos[i])
		}
	}
	return dst
}
