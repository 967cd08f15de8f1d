// Package apdb is the AP knowledge plane of the digital Marauder's map —
// the role WiGLE plays in the paper: a database of known access points
// with SSID, BSSID, location, and (when measured) maximum transmission
// distance.
//
// The working representation is a struct-of-arrays Store: packed 6-byte
// BSSIDs, separate position and range slices, and a BSSID→slot index.
// Readers never block ingest: queries run against immutable copy-on-write
// Snapshots published on demand, each carrying a process-unique epoch and
// a lazily built uniform-grid spatial index whose cell size is derived
// from the AP density. core.Knowledge and the engine's Γ-cache are views
// over these snapshots; snapshot epochs are the knowledge generations.
//
// The store round-trips through a WiGLE-like CSV schema and through a
// versioned, SHA-256-checksummed binary snapshot format (persist.go) so a
// city-scale database loads without CSV re-ingest.
package apdb

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/dot11"
	"repro/internal/geo"
	"repro/internal/geom"
	"repro/internal/sim"
)

// Entry is one known access point — the element view over the store's
// struct-of-arrays layout. core.APInfo is an alias of this type: the
// repo-wide single AP representation.
type Entry struct {
	BSSID dot11.MAC `json:"bssid"`
	SSID  string    `json:"ssid,omitempty"`
	// Pos is the AP location in the attack's local plane (metres).
	Pos geom.Point `json:"pos"`
	// MaxRange is the measured maximum transmission distance in metres;
	// 0 means unknown (the WiGLE case — location only).
	MaxRange float64 `json:"maxRange"`
}

// Disc returns the AP's coverage disc with the given fallback radius when
// the entry's own range is unknown.
func (e Entry) Disc(fallbackRange float64) geom.Circle {
	r := e.MaxRange
	if r <= 0 {
		r = fallbackRange
	}
	return geom.Circle{C: e.Pos, R: r}
}

// epochCounter hands out process-unique snapshot epochs: any two distinct
// published snapshots — even from different stores — have distinct
// epochs, so an epoch comparison alone decides "did the knowledge base
// change" (exact Γ-cache invalidation).
var epochCounter atomic.Uint64

// Store is the thread-safe AP knowledge store. Mutations (Add, AddBatch)
// touch only the builder arrays under the lock; queries go through the
// immutable Snapshot published on first use after a mutation, so readers
// never block ingest.
type Store struct {
	mu sync.RWMutex
	// Builder state: struct-of-arrays, insertion order, unique BSSIDs
	// (slot maps each BSSID to its array index; Add replaces in place).
	bssid []byte // packed 6-byte BSSIDs, len 6·n
	ssid  []string
	pos   []geom.Point
	rng   []float64
	slot  map[dot11.MAC]int32

	dirty atomic.Bool
	snap  atomic.Pointer[Snapshot]
}

// New creates an empty store.
func New() *Store {
	return &Store{slot: make(map[dot11.MAC]int32)}
}

// FromEntries builds a store holding the given entries (later duplicates
// replace earlier ones, like repeated Add).
func FromEntries(entries []Entry) *Store {
	s := New()
	s.AddBatch(entries)
	return s
}

// Add inserts or replaces an entry.
func (s *Store) Add(e Entry) {
	s.mu.Lock()
	s.add(e)
	s.dirty.Store(true)
	s.mu.Unlock()
}

// AddBatch inserts or replaces many entries under one lock acquisition.
func (s *Store) AddBatch(entries []Entry) {
	if len(entries) == 0 {
		return
	}
	s.mu.Lock()
	for _, e := range entries {
		s.add(e)
	}
	s.dirty.Store(true)
	s.mu.Unlock()
}

// add is the single-entry write path; callers hold s.mu.
func (s *Store) add(e Entry) {
	if i, ok := s.slot[e.BSSID]; ok {
		s.ssid[i] = e.SSID
		s.pos[i] = e.Pos
		s.rng[i] = e.MaxRange
		return
	}
	i := int32(len(s.rng))
	s.slot[e.BSSID] = i
	s.bssid = append(s.bssid, e.BSSID[:]...)
	s.ssid = append(s.ssid, e.SSID)
	s.pos = append(s.pos, e.Pos)
	s.rng = append(s.rng, e.MaxRange)
}

// Get returns the entry for a BSSID, including entries not yet published
// in a snapshot.
func (s *Store) Get(bssid dot11.MAC) (Entry, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	i, ok := s.slot[bssid]
	if !ok {
		return Entry{}, false
	}
	return s.entryAt(int(i)), true
}

// entryAt materializes the builder entry at slot i; callers hold s.mu.
func (s *Store) entryAt(i int) Entry {
	var m dot11.MAC
	copy(m[:], s.bssid[i*6:])
	return Entry{BSSID: m, SSID: s.ssid[i], Pos: s.pos[i], MaxRange: s.rng[i]}
}

// Len returns the number of entries.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.rng)
}

// Snapshot publishes and returns the current immutable snapshot. When the
// store is unchanged since the last call the cached snapshot is returned
// with no allocation; after a mutation the builder arrays are re-sorted
// by BSSID into a fresh snapshot carrying a new epoch (O(n log n),
// amortized over the mutation batch). The returned snapshot never
// changes: later Adds publish a successor instead of touching it.
func (s *Store) Snapshot() *Snapshot {
	if !s.dirty.Load() {
		if sn := s.snap.Load(); sn != nil {
			return sn
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if sn := s.snap.Load(); sn != nil && !s.dirty.Load() {
		return sn
	}
	n := len(s.rng)
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.Slice(perm, func(a, b int) bool {
		i, j := perm[a], perm[b]
		return bytes.Compare(s.bssid[i*6:i*6+6], s.bssid[j*6:j*6+6]) < 0
	})
	sn := &Snapshot{
		epoch: epochCounter.Add(1),
		bssid: make([]byte, 6*n),
		ssid:  make([]string, n),
		pos:   make([]geom.Point, n),
		rng:   make([]float64, n),
	}
	for out, in := range perm {
		copy(sn.bssid[out*6:], s.bssid[in*6:in*6+6])
		sn.ssid[out] = s.ssid[in]
		sn.pos[out] = s.pos[in]
		sn.rng[out] = s.rng[in]
	}
	s.snap.Store(sn)
	s.dirty.Store(false)
	return sn
}

// All returns every entry sorted by BSSID (a fresh slice; the caller may
// mutate it).
func (s *Store) All() []Entry {
	return s.Snapshot().All()
}

// Within returns the entries within dist metres of p, answered by the
// snapshot's spatial index (no per-call sort, sublinear in the store
// size).
func (s *Store) Within(p geom.Point, dist float64) []Entry {
	return s.Snapshot().Within(p, dist)
}

// Nearest returns the entry closest to p; ok is false for an empty store.
func (s *Store) Nearest(p geom.Point) (Entry, bool) {
	return s.Snapshot().Nearest(p)
}

// CandidatesFor returns the coverage discs of the Γ members present in
// the store — the M-Loc/AP-Rad candidate-disc lookup — via the current
// snapshot. See Snapshot.CandidatesFor.
func (s *Store) CandidatesFor(gamma []dot11.MAC, fallbackRange float64) []geom.Circle {
	return s.Snapshot().CandidatesFor(nil, gamma, fallbackRange)
}

// FromWorld snapshots a simulated world's APs as external knowledge:
// includeRange=true models the paper's M-Loc setting (locations and
// measured radii known), false the AP-Rad setting (WiGLE locations only).
func FromWorld(w *sim.World, includeRange bool) *Store {
	s := New()
	entries := make([]Entry, 0, len(w.APs))
	for _, ap := range w.APs {
		e := Entry{BSSID: ap.MAC, SSID: ap.SSID, Pos: ap.Pos}
		if includeRange {
			e.MaxRange = ap.MaxRange
		}
		entries = append(entries, e)
	}
	s.AddBatch(entries)
	return s
}

// csvHeader is the WiGLE-like export schema.
var csvHeader = []string{"bssid", "ssid", "lat", "lon", "range_m"}

// ExportCSV writes the database as CSV with geodetic coordinates derived
// from the projection.
func (s *Store) ExportCSV(w io.Writer, proj *geo.Projection) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("apdb: write header: %w", err)
	}
	sn := s.Snapshot()
	for i := 0; i < sn.Len(); i++ {
		e := sn.EntryAt(i)
		ll := proj.ToLatLon(e.Pos)
		rec := []string{
			e.BSSID.String(),
			e.SSID,
			strconv.FormatFloat(ll.Lat, 'f', 6, 64),
			strconv.FormatFloat(ll.Lon, 'f', 6, 64),
			strconv.FormatFloat(e.MaxRange, 'f', 1, 64),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("apdb: write row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ImportCSV reads a CSV in the ExportCSV schema, projecting coordinates to
// the local plane.
func ImportCSV(r io.Reader, proj *geo.Projection) (*Store, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("apdb: read csv: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("apdb: empty csv")
	}
	entries := make([]Entry, 0, len(rows)-1)
	for i, row := range rows[1:] {
		if len(row) != len(csvHeader) {
			return nil, fmt.Errorf("apdb: row %d has %d fields, want %d",
				i+2, len(row), len(csvHeader))
		}
		bssid, err := dot11.ParseMAC(row[0])
		if err != nil {
			return nil, fmt.Errorf("apdb: row %d: %w", i+2, err)
		}
		lat, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			return nil, fmt.Errorf("apdb: row %d lat: %w", i+2, err)
		}
		lon, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			return nil, fmt.Errorf("apdb: row %d lon: %w", i+2, err)
		}
		rng, err := strconv.ParseFloat(row[4], 64)
		if err != nil {
			return nil, fmt.Errorf("apdb: row %d range: %w", i+2, err)
		}
		entries = append(entries, Entry{
			BSSID:    bssid,
			SSID:     row[1],
			Pos:      proj.ToPlane(geo.LatLon{Lat: lat, Lon: lon}),
			MaxRange: rng,
		})
	}
	return FromEntries(entries), nil
}
