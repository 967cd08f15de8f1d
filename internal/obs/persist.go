package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/dot11"
)

// snapshot is the serialized form of a Store.
type snapshot struct {
	Records []Record             `json:"records"`
	Seen    []seenEntry          `json:"seen"`
	Probing []dot11.MAC          `json:"probing"`
	APs     []dot11.MAC          `json:"aps"`
	SSIDs   []fingerprintEntryJS `json:"ssids,omitempty"`
}

type seenEntry struct {
	MAC   dot11.MAC `json:"mac"`
	First float64   `json:"first"`
}

type fingerprintEntryJS struct {
	MAC   dot11.MAC `json:"mac"`
	SSIDs []string  `json:"ssids"`
}

// lessRecord is the canonical serialization order: time (NaN first), then
// device, AP and kind. Sorting makes Save deterministic and independent of
// the store's shard count and ingest interleaving.
func lessRecord(a, b Record) bool {
	if a.TimeSec != b.TimeSec && (timeLess(a.TimeSec, b.TimeSec) || timeLess(b.TimeSec, a.TimeSec)) {
		return timeLess(a.TimeSec, b.TimeSec)
	}
	if a.Device != b.Device {
		return macLess(a.Device, b.Device)
	}
	if a.AP != b.AP {
		return macLess(a.AP, b.AP)
	}
	return a.Kind < b.Kind
}

// Save serializes the store as JSON, so an attack session (or a long
// capture) can be persisted and resumed. The output is deterministic:
// identical observation content produces identical bytes regardless of
// shard count or ingest order.
func (s *Store) Save(w io.Writer) error {
	_, err := s.save(w)
	return err
}

// save is Save, also returning how many records it serialized: a
// concurrent ingest can grow the store while the shards are read, so Len
// taken before or after may not match the payload.
func (s *Store) save(w io.Writer) (int, error) {
	var snap snapshot
	for _, sh := range s.shards {
		sh.mu.RLock()
		for dev, dl := range sh.byDev {
			for _, r := range dl.recs {
				snap.Records = append(snap.Records, r.record(dev))
			}
		}
		for m, t := range sh.seen {
			snap.Seen = append(snap.Seen, seenEntry{MAC: m, First: t})
		}
		for m := range sh.probing {
			snap.Probing = append(snap.Probing, m)
		}
		for m := range sh.aps {
			snap.APs = append(snap.APs, m)
		}
		for m, set := range sh.probedSSIDs {
			e := fingerprintEntryJS{MAC: m}
			for ssid := range set {
				e.SSIDs = append(e.SSIDs, ssid)
			}
			sort.Strings(e.SSIDs)
			snap.SSIDs = append(snap.SSIDs, e)
		}
		sh.mu.RUnlock()
	}

	sort.SliceStable(snap.Records, func(i, j int) bool { return lessRecord(snap.Records[i], snap.Records[j]) })
	sort.Slice(snap.Seen, func(i, j int) bool { return macLess(snap.Seen[i].MAC, snap.Seen[j].MAC) })
	sortMACs(snap.Probing)
	// APs can be registered in several shards; dedup before sorting.
	snap.APs = dedupMACs(snap.APs)
	sort.Slice(snap.SSIDs, func(i, j int) bool { return macLess(snap.SSIDs[i].MAC, snap.SSIDs[j].MAC) })

	enc := json.NewEncoder(w)
	if err := enc.Encode(snap); err != nil {
		return 0, fmt.Errorf("obs: save: %w", err)
	}
	return len(snap.Records), nil
}

func dedupMACs(ms []dot11.MAC) []dot11.MAC {
	sortMACs(ms)
	uniq := 0
	for i, m := range ms {
		if i == 0 || m != ms[uniq-1] {
			ms[uniq] = m
			uniq++
		}
	}
	return ms[:uniq]
}

// Load deserializes a store previously written by Save, using the default
// shard count.
func Load(r io.Reader) (*Store, error) {
	return LoadShards(r, DefaultShardCount())
}

// LoadShards deserializes a store previously written by Save into a store
// with the given shard count, so recovered stores can match a -shards
// override. Snapshots with duplicate seen or probing entries are rejected:
// a canonical Save never produces them, so a duplicate means the snapshot
// was corrupted or hand-edited, and silently keeping one of the two
// conflicting entries would hide the damage. So is a record whose Kind
// lies outside 0–65535, which the store cannot hold.
func LoadShards(r io.Reader, shards int) (*Store, error) {
	var snap snapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("obs: load: %w", err)
	}
	seenMACs := make(map[dot11.MAC]int, len(snap.Seen))
	for i, e := range snap.Seen {
		if j, dup := seenMACs[e.MAC]; dup {
			return nil, fmt.Errorf("obs: load: duplicate seen entry for %s at index %d (first at index %d)", e.MAC, i, j)
		}
		seenMACs[e.MAC] = i
	}
	probingMACs := make(map[dot11.MAC]int, len(snap.Probing))
	for i, m := range snap.Probing {
		if j, dup := probingMACs[m]; dup {
			return nil, fmt.Errorf("obs: load: duplicate probing entry for %s at index %d (first at index %d)", m, i, j)
		}
		probingMACs[m] = i
	}
	for i, r := range snap.Records {
		if err := kindErr(r.Kind); err != nil {
			return nil, fmt.Errorf("obs: load: record %d: %w", i, err)
		}
	}
	s := NewStoreShards(shards)
	// Rebuild the per-device window indexes shard by shard, without the
	// seen/AP side effects of live ingest: the snapshot's own sets are
	// authoritative and applied below.
	for _, r := range snap.Records {
		s.shardFor(r.Device).addRecordLocked(r.Device, r.TimeSec, r.AP, r.Kind)
	}
	for _, e := range snap.Seen {
		s.shardFor(e.MAC).setSeenLocked(e.MAC, e.First)
	}
	for _, m := range snap.Probing {
		s.shardFor(m).probing[m] = true
	}
	for _, m := range snap.APs {
		s.shardFor(m).aps[m] = true
	}
	for _, e := range snap.SSIDs {
		sh := s.shardFor(e.MAC)
		set := make(map[string]bool, len(e.SSIDs))
		for _, ssid := range e.SSIDs {
			set[ssid] = true
		}
		if sh.probedSSIDs == nil {
			sh.probedSSIDs = make(map[dot11.MAC]map[string]bool)
		}
		sh.probedSSIDs[e.MAC] = set
	}
	return s, nil
}
