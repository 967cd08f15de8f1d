// Package apdb is the AP knowledge plane of the digital Marauder's map —
// the role WiGLE plays in the paper: a database of known access points
// with SSID, BSSID, location, and (when measured) maximum transmission
// distance.
//
// The database is one immutable Snapshot, built once from a list of
// entries (FromEntries, FromWorld, ImportCSV, ReadSnapshot) and only read
// after that: packed 6-byte BSSIDs in ascending order, with parallel
// SSID, position and range slices. Training never edits a snapshot; it
// builds a new one. Every build stamps a process-unique epoch.
// core.Knowledge and the engine's Γ-cache are views over snapshots;
// snapshot epochs are the knowledge generations.
//
// A snapshot round-trips through a WiGLE-like CSV schema and through a
// versioned, SHA-256-checksummed binary format (persist.go) so a
// city-scale database loads without CSV re-ingest.
package apdb

import (
	"cmp"
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"strconv"
	"sync/atomic"

	"repro/internal/dot11"
	"repro/internal/geo"
	"repro/internal/geom"
	"repro/internal/sim"
)

// Entry is one known access point — the element view over the snapshot's
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
// snapshots have distinct epochs, so an epoch comparison alone decides
// "did the knowledge base change" (exact Γ-cache invalidation).
var epochCounter atomic.Uint64

// FromEntries builds the snapshot holding the given entries in BSSID
// order. When a BSSID repeats, its last entry wins. Every call stamps a
// fresh epoch, larger than any before it. The input is not modified.
func FromEntries(entries []Entry) *Snapshot {
	// A stable sort keeps equal BSSIDs in input order, so the last of
	// each run is the winner.
	type keyed struct {
		key uint64
		i   int
	}
	order := make([]keyed, len(entries))
	for i := range entries {
		order[i] = keyed{entries[i].BSSID.Key(), i}
	}
	slices.SortStableFunc(order, func(a, b keyed) int { return cmp.Compare(a.key, b.key) })
	n := 0
	for j := range order {
		if j+1 < len(order) && order[j+1].key == order[j].key {
			continue
		}
		order[n] = order[j]
		n++
	}
	sn := &Snapshot{
		epoch: epochCounter.Add(1),
		bssid: make([]byte, 6*n),
		ssid:  make([]string, n),
		pos:   make([]geom.Point, n),
		rng:   make([]float64, n),
	}
	for out, o := range order[:n] {
		e := &entries[o.i]
		copy(sn.bssid[out*6:], e.BSSID[:])
		sn.ssid[out] = e.SSID
		sn.pos[out] = e.Pos
		sn.rng[out] = e.MaxRange
	}
	return sn
}

// FromWorld snapshots a simulated world's APs as external knowledge:
// includeRange=true models the paper's M-Loc setting (locations and
// measured radii known), false the AP-Rad setting (WiGLE locations only).
func FromWorld(w *sim.World, includeRange bool) *Snapshot {
	entries := make([]Entry, 0, len(w.APs))
	for _, ap := range w.APs {
		e := Entry{BSSID: ap.MAC, SSID: ap.SSID, Pos: ap.Pos}
		if includeRange {
			e.MaxRange = ap.MaxRange
		}
		entries = append(entries, e)
	}
	return FromEntries(entries)
}

// csvHeader is the WiGLE-like export schema.
var csvHeader = []string{"bssid", "ssid", "lat", "lon", "range_m"}

// ExportCSV writes the database as CSV with geodetic coordinates derived
// from the projection.
func (s *Snapshot) ExportCSV(w io.Writer, proj *geo.Projection) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("apdb: write header: %w", err)
	}
	for i := 0; i < s.Len(); i++ {
		e := s.EntryAt(i)
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
func ImportCSV(r io.Reader, proj *geo.Projection) (*Snapshot, error) {
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
