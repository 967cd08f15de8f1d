package apdb

import (
	"bytes"
	"math"
	"sync"

	"repro/internal/dot11"
	"repro/internal/geom"
)

// Snapshot is the AP database: an immutable, BSSID-sorted
// struct-of-arrays table built by FromEntries. Every query method is safe
// for unsynchronized concurrent use; the spatial index is built lazily on
// the first spatial query and shared by all of them.
//
// Identity lookups (Slot, Get, CandidatesFor) binary-search the packed
// BSSID array — O(log n) on 6-byte keys, no per-snapshot hash map to
// copy. Spatial lookups (Within, Nearest) go through a uniform grid whose
// cell size is derived from the AP density (≈4 APs per cell), so radius
// queries touch a handful of cells instead of the whole corpus.
type Snapshot struct {
	epoch uint64
	bssid []byte // packed 6-byte BSSIDs, ascending
	ssid  []string
	pos   []geom.Point
	rng   []float64

	gridOnce sync.Once
	grid     *grid
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

// macKey packs 6 BSSID bytes into a uint64 whose numeric order matches
// the byte-lexicographic order of the packed array.
func macKey(b []byte) uint64 {
	_ = b[5]
	return uint64(b[0])<<40 | uint64(b[1])<<32 | uint64(b[2])<<24 |
		uint64(b[3])<<16 | uint64(b[4])<<8 | uint64(b[5])
}

// Slot returns the array index of a BSSID via binary search over the
// packed key array. Hand-rolled on 48-bit integer keys: this sits on the
// M-Loc hot path (one probe per Γ member per fix), where a closure-based
// search over byte slices costs a measurable share of the frame.
func (s *Snapshot) Slot(bssid dot11.MAC) (int, bool) {
	want := macKey(bssid[:])
	lo, hi := 0, len(s.rng)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if macKey(s.bssid[mid*6:]) < want {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.rng) && macKey(s.bssid[lo*6:]) == want {
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

// Within returns the entries within dist metres of p via the spatial
// index.
func (s *Snapshot) Within(p geom.Point, dist float64) []Entry {
	return s.AppendWithin(nil, p, dist)
}

// AppendWithin is Within into a caller-owned buffer.
func (s *Snapshot) AppendWithin(dst []Entry, p geom.Point, dist float64) []Entry {
	if dist < 0 || s.Len() == 0 {
		return dst
	}
	g := s.spatial()
	if g.linear {
		return s.scanWithin(dst, p, dist)
	}
	cxMin, cyMin := g.cellClamped(p.X-dist, p.Y-dist)
	cxMax, cyMax := g.cellClamped(p.X+dist, p.Y+dist)
	for cy := cyMin; cy <= cyMax; cy++ {
		for cx := cxMin; cx <= cxMax; cx++ {
			c := cy*g.w + cx
			for _, i := range g.slots[g.start[c]:g.start[c+1]] {
				if s.pos[i].Dist(p) <= dist {
					dst = append(dst, s.EntryAt(int(i)))
				}
			}
		}
	}
	return dst
}

// ScanWithin is the index-free linear reference: a full scan of the
// snapshot. Kept exported so tests and benchmarks can pin the spatial
// index byte-identical to (and measurably faster than) the naive path.
func (s *Snapshot) ScanWithin(p geom.Point, dist float64) []Entry {
	if dist < 0 {
		return nil
	}
	return s.scanWithin(nil, p, dist)
}

func (s *Snapshot) scanWithin(dst []Entry, p geom.Point, dist float64) []Entry {
	for i := range s.rng {
		if s.pos[i].Dist(p) <= dist {
			dst = append(dst, s.EntryAt(i))
		}
	}
	return dst
}

// Nearest returns the entry closest to p, searching the grid outward ring
// by ring; ok is false for an empty snapshot.
func (s *Snapshot) Nearest(p geom.Point) (Entry, bool) {
	n := s.Len()
	if n == 0 {
		return Entry{}, false
	}
	g := s.spatial()
	if g.linear {
		best, bestDist := 0, math.Inf(1)
		for i := range s.rng {
			if d := s.pos[i].Dist(p); d < bestDist {
				best, bestDist = i, d
			}
		}
		return s.EntryAt(best), true
	}
	cx, cy := g.cellClamped(p.X, p.Y)
	bestSlot := int32(-1)
	bestDist := math.Inf(1)
	maxRing := g.w + g.h // past this every cell has been visited
	for ring := 0; ring <= maxRing; ring++ {
		// Once a candidate is found, rings whose nearest cell edge is
		// farther than the candidate cannot improve on it.
		if bestSlot >= 0 && float64(ring-1)*g.cell > bestDist {
			break
		}
		for _, c := range g.ringCells(cx, cy, ring) {
			for _, i := range g.slots[g.start[c]:g.start[c+1]] {
				if d := s.pos[i].Dist(p); d < bestDist {
					bestSlot, bestDist = i, d
				}
			}
		}
	}
	return s.EntryAt(int(bestSlot)), true
}

// spatial returns the snapshot's grid, building it on first use.
func (s *Snapshot) spatial() *grid {
	s.gridOnce.Do(func() { s.grid = buildGrid(s.pos) })
	return s.grid
}

// grid is a flat CSR uniform grid over the snapshot's positions: slot
// indices bucketed by cell, cells laid out row-major over the bounding
// box. linear marks degenerate inputs (non-finite coordinates) where the
// grid would be meaningless and queries fall back to a scan.
type grid struct {
	linear     bool
	cell       float64
	minX, minY float64
	w, h       int
	start      []int32 // len w·h+1, CSR offsets into slots
	slots      []int32
}

// targetOccupancy is the mean APs-per-cell the density-derived cell size
// aims for.
const targetOccupancy = 4

// buildGrid constructs the CSR grid for a position set, deriving the cell
// size from the observed density.
func buildGrid(pos []geom.Point) *grid {
	n := len(pos)
	if n == 0 {
		return &grid{linear: true}
	}
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, p := range pos {
		minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
		minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
	}
	if math.IsInf(minX, 0) || math.IsInf(minY, 0) || math.IsInf(maxX, 0) || math.IsInf(maxY, 0) ||
		minX != minX || minY != minY || maxX != maxX || maxY != maxY {
		return &grid{linear: true}
	}
	extX, extY := maxX-minX, maxY-minY
	cell := math.Sqrt(extX * extY * targetOccupancy / float64(n))
	if !(cell > 0) {
		// Degenerate extent (collinear or coincident APs): spread the
		// longer axis across ~n/target cells.
		cell = math.Max(extX, extY) / math.Max(1, float64(n)/targetOccupancy)
	}
	if !(cell > 0) {
		cell = 1
	}
	g := &grid{cell: cell, minX: minX, minY: minY}
	for {
		g.w = int(extX/g.cell) + 1
		g.h = int(extY/g.cell) + 1
		if g.w > 0 && g.h > 0 && g.w*g.h <= 4*n+64 {
			break
		}
		g.cell *= 2
	}
	g.start = make([]int32, g.w*g.h+1)
	cells := make([]int32, n)
	for i, p := range pos {
		cx, cy := g.cellClamped(p.X, p.Y)
		cells[i] = int32(cy*g.w + cx)
		g.start[cells[i]+1]++
	}
	for c := 0; c < g.w*g.h; c++ {
		g.start[c+1] += g.start[c]
	}
	g.slots = make([]int32, n)
	fill := make([]int32, g.w*g.h)
	for i, c := range cells {
		g.slots[g.start[c]+fill[c]] = int32(i)
		fill[c]++
	}
	return g
}

// cellClamped maps a coordinate to its cell, clamped into the grid.
func (g *grid) cellClamped(x, y float64) (int, int) {
	cx := int((x - g.minX) / g.cell)
	cy := int((y - g.minY) / g.cell)
	if cx < 0 {
		cx = 0
	} else if cx >= g.w {
		cx = g.w - 1
	}
	if cy < 0 {
		cy = 0
	} else if cy >= g.h {
		cy = g.h - 1
	}
	return cx, cy
}

// ringCells returns the in-bounds cell indices on the square ring at
// Chebyshev distance ring around (cx, cy).
func (g *grid) ringCells(cx, cy, ring int) []int {
	var out []int
	if ring == 0 {
		return append(out, cy*g.w+cx)
	}
	xLo, xHi := cx-ring, cx+ring
	yLo, yHi := cy-ring, cy+ring
	for x := xLo; x <= xHi; x++ {
		if x < 0 || x >= g.w {
			continue
		}
		if yLo >= 0 {
			out = append(out, yLo*g.w+x)
		}
		if yHi < g.h {
			out = append(out, yHi*g.w+x)
		}
	}
	for y := yLo + 1; y <= yHi-1; y++ {
		if y < 0 || y >= g.h {
			continue
		}
		if xLo >= 0 {
			out = append(out, y*g.w+xLo)
		}
		if xHi < g.w {
			out = append(out, y*g.w+xHi)
		}
	}
	return out
}
