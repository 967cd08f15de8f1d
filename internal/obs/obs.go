// Package obs is the observation database of the digital Marauder's map:
// it ingests captured 802.11 management frames and maintains, per mobile
// device, the set Γ of APs the device has been observed communicating with
// — the sole input the paper's localization algorithms need.
//
// It also tracks which devices were seen at all versus seen probing, the
// statistic behind the paper's feasibility experiment (Figs 10-11), and
// answers AP co-observation queries for AP-Rad's linear program.
//
// The store is sharded by device MAC: every device's records, seen/probing
// flags and probe fingerprints live in exactly one shard, each shard owns
// its own lock, and ingest of independent devices proceeds in parallel.
// Single-device queries (APSetWindow and friends) touch one shard;
// cross-device queries (Devices, APs, DeviceAPSets, CoObservationIndex,
// Save) merge per-shard snapshots — each shard's contribution is
// internally consistent, but a concurrent ingest may land between two
// shard reads, exactly as a concurrent ingest could land after an
// unsharded query returned.
package obs

import (
	"fmt"
	"log/slog"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dot11"
	"repro/internal/telemetry"
)

// Kind classifies an observation. The store packs it into 16 bits, so a
// Kind outside 0–65535 cannot be held.
type Kind int

// maxKind is the largest Kind a record can hold.
const maxKind = 1<<16 - 1

// Observation kinds.
const (
	// KindProbeRequest is a device's broadcast scan; it proves the device
	// is present (and probing) but names no AP.
	KindProbeRequest Kind = iota + 1
	// KindProbeResponse is an AP's reply to a device; it proves the
	// device-AP pair is communicable.
	KindProbeResponse
	// KindAssociation is association traffic between a device and its AP.
	KindAssociation
	// KindBeacon is an AP beacon; it proves the AP exists.
	KindBeacon
)

// Record is one pairwise observation between a device and an AP.
type Record struct {
	TimeSec float64   `json:"timeSec"`
	Device  dot11.MAC `json:"device"`
	AP      dot11.MAC `json:"ap"`
	Kind    Kind      `json:"kind"`
}

// FrameCapture is one captured frame queued for batched ingest — the
// (time, frame, AP-attribution) triple Ingest takes, in slice-friendly
// form so a whole capture batch pays each shard lock once.
type FrameCapture struct {
	TimeSec float64
	Frame   *dot11.Frame
	FromAP  bool
}

// Store accumulates observations. It is safe for concurrent use.
type Store struct {
	shards []*shard
	mask   uint32

	// devGen counts first sightings of a device, shared by every shard.
	devGen atomic.Uint64
}

// shard owns every piece of state keyed by one slice of the MAC hash
// space: the per-device record logs and their time index, the
// seen/probing sets, the probe fingerprints, and the APs registered
// through this shard's devices.
type shard struct {
	mu    sync.RWMutex
	nrec  int // pairwise records held (Σ len(byDev[*].recs))
	byDev map[dot11.MAC]*deviceLog
	// logs lists byDev's logs by id, in creation order; buckets is the
	// time index over them (index.go), sorted by bucket number.
	logs        []*deviceLog
	buckets     []timeBucket
	seen        map[dot11.MAC]float64 // device -> first seen time
	probing     map[dot11.MAC]bool
	aps         map[dot11.MAC]bool
	probedSSIDs map[dot11.MAC]map[string]bool
	recGauge    *telemetry.Gauge
	devGen      *atomic.Uint64 // the owning Store's first-sighting count
}

// deviceLog is one device's pairwise records, kept in canonical time order
// (NaN timestamps first, then ascending) so window queries binary-search
// instead of scanning the whole store. Captures almost always arrive in
// time order, so the sort is usually a no-op; an out-of-order ingest just
// clears the flag and the next window query re-sorts once.
type deviceLog struct {
	recs []rec
	// bucket is the time-index bucket this log last joined (noBucket for
	// none yet); id is the log's index in its shard's logs.
	bucket, id int32
	dev        dot11.MAC
	sorted     bool
}

// rec is one pairwise record inside its device's log: 16 bytes, where a
// Record is 32. The device is the log's key, so it is not repeated; key
// packs the Kind above the AP's 48-bit address (see packKey).
type rec struct {
	t   float64
	key uint64
}

// apMask selects the AP address bits of a rec key.
const apMask = 1<<48 - 1

// packKey builds a rec key: Kind<<48 | AP. The Kind must lie in 0–maxKind.
func packKey(ap dot11.MAC, k Kind) uint64 { return uint64(k)<<48 | ap.Key() }

// record rebuilds the public form of one of dev's records.
func (r rec) record(dev dot11.MAC) Record {
	return Record{TimeSec: r.t, Device: dev, AP: dot11.MACFromKey(r.key), Kind: Kind(r.key >> 48)}
}

// kindErr reports a Kind the packed record cannot hold, or nil.
func kindErr(k Kind) error {
	if k < 0 || k > maxKind {
		return fmt.Errorf("kind %d outside 0–%d", k, maxKind)
	}
	return nil
}

// timeLess is the canonical record time order: NaN first, then ascending.
// A plain < comparison is not enough — NaN compares false against
// everything, so a NaN-timestamped record would leave the sorted flag set
// while actually breaking the order, and the binary search would silently
// drop records behind it.
func timeLess(a, b float64) bool {
	return a < b || (math.IsNaN(a) && !math.IsNaN(b))
}

// DefaultShardCount is the shard count NewStore uses: GOMAXPROCS rounded
// up to a power of two, so the MAC-hash masking stays a single AND.
func DefaultShardCount() int {
	n := runtime.GOMAXPROCS(0)
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// NewStore creates an empty Store with DefaultShardCount shards.
func NewStore() *Store {
	return NewStoreShards(0)
}

// NewStoreShards creates an empty Store with the given shard count,
// rounded up to a power of two; n <= 0 means DefaultShardCount. One shard
// reproduces the unsharded store: a single lock serializing everything.
func NewStoreShards(n int) *Store {
	if n <= 0 {
		n = DefaultShardCount()
	}
	p := 1
	for p < n {
		p <<= 1
	}
	s := &Store{shards: make([]*shard, p), mask: uint32(p - 1)}
	for i := range s.shards {
		s.shards[i] = &shard{
			byDev:    make(map[dot11.MAC]*deviceLog),
			seen:     make(map[dot11.MAC]float64),
			probing:  make(map[dot11.MAC]bool),
			aps:      make(map[dot11.MAC]bool),
			recGauge: shardRecordGauge(i),
			devGen:   &s.devGen,
		}
	}
	return s
}

// ShardCount returns the number of shards.
func (s *Store) ShardCount() int { return len(s.shards) }

// shardIndex hashes a MAC (FNV-1a) onto a shard.
func (s *Store) shardIndex(m dot11.MAC) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for _, b := range m {
		h ^= uint32(b)
		h *= prime32
	}
	return h & s.mask
}

func (s *Store) shardFor(m dot11.MAC) *shard { return s.shards[s.shardIndex(m)] }

// addRecordLocked appends one pairwise record to the device's log and,
// when the record's time-index bucket differs from the last one the log
// joined, files the log in that bucket. Caller holds the shard write lock;
// k must lie in 0–maxKind.
func (sh *shard) addRecordLocked(dev dot11.MAC, t float64, ap dot11.MAC, k Kind) {
	dl := sh.byDev[dev]
	if dl == nil {
		dl = &deviceLog{bucket: noBucket, id: int32(len(sh.logs)), dev: dev, sorted: true}
		sh.byDev[dev] = dl
		sh.logs = append(sh.logs, dl)
	}
	if n := len(dl.recs); n > 0 && timeLess(t, dl.recs[n-1].t) {
		dl.sorted = false
		mOutOfOrder.Inc()
	}
	if b, ok := bucketOf(t); ok && b != dl.bucket {
		sh.indexLocked(dl, b)
	}
	dl.recs = append(dl.recs, rec{t: t, key: packKey(ap, k)})
	sh.nrec++
	mRecords.Inc()
}

func (sh *shard) markSeenLocked(dev dot11.MAC, timeSec float64) {
	if _, ok := sh.seen[dev]; !ok {
		sh.setSeenLocked(dev, timeSec)
	}
}

// setSeenLocked records dev's first-seen time and counts the sighting.
// Caller holds the shard write lock.
func (sh *shard) setSeenLocked(dev dot11.MAC, timeSec float64) {
	sh.seen[dev] = timeSec
	sh.devGen.Add(1)
}

// frameOwner classifies a frame and returns the MAC whose shard owns all
// of the frame's state mutations; ok is false for frames that are no-ops
// (non-management, unknown subtypes, untrusted beacons).
func frameOwner(f *dot11.Frame, fromAP bool) (dot11.MAC, bool) {
	if f == nil || f.Type != dot11.TypeManagement {
		return dot11.MAC{}, false
	}
	switch f.Subtype {
	case dot11.SubtypeProbeRequest:
		return f.Addr2, true
	case dot11.SubtypeProbeResp:
		return f.Addr1, true
	case dot11.SubtypeAssocReq:
		return f.Addr2, true
	case dot11.SubtypeBeacon:
		return f.Addr2, fromAP
	}
	return dot11.MAC{}, false
}

// applyFrameLocked applies one classified frame's state changes. Caller
// holds the shard write lock; the shard must be the frameOwner's.
func (sh *shard) applyFrameLocked(timeSec float64, f *dot11.Frame, fromAP bool) {
	switch f.Subtype {
	case dot11.SubtypeProbeRequest:
		sh.markSeenLocked(f.Addr2, timeSec)
		sh.probing[f.Addr2] = true
		if ssid, ok := f.SSID(); ok {
			sh.recordProbeSSIDLocked(f.Addr2, ssid)
		}
	case dot11.SubtypeProbeResp:
		sh.markSeenLocked(f.Addr1, timeSec)
		sh.aps[f.Addr2] = true
		sh.addRecordLocked(f.Addr1, timeSec, f.Addr2, KindProbeResponse)
	case dot11.SubtypeAssocReq:
		sh.markSeenLocked(f.Addr2, timeSec)
		sh.aps[f.Addr1] = true
		sh.addRecordLocked(f.Addr2, timeSec, f.Addr1, KindAssociation)
	case dot11.SubtypeBeacon:
		if fromAP {
			sh.aps[f.Addr2] = true
		}
	}
}

// Ingest classifies one captured frame. fromAP tells whether the capture
// pipeline attributed the frame to an AP transmitter.
func (s *Store) Ingest(timeSec float64, f *dot11.Frame, fromAP bool) {
	owner, ok := frameOwner(f, fromAP)
	if !ok {
		return
	}
	sh := s.shardFor(owner)
	sh.mu.Lock()
	sh.applyFrameLocked(timeSec, f, fromAP)
	sh.recGauge.Set(float64(sh.nrec))
	sh.mu.Unlock()
}

// IngestFrames is the batched form of Ingest: the batch is grouped by
// shard and each shard's lock is taken once, so a pcap replay or a
// simulated capture burst stops paying one lock round-trip per frame.
// It returns how many frames changed store state.
func (s *Store) IngestFrames(batch []FrameCapture) int {
	if len(batch) == 0 {
		return 0
	}
	defer mIngestSeconds.ObserveSince(time.Now())
	mBatchFrames.Observe(float64(len(batch)))
	if len(s.shards) == 1 {
		sh := s.shards[0]
		n := 0
		sh.mu.Lock()
		for _, c := range batch {
			if _, ok := frameOwner(c.Frame, c.FromAP); ok {
				sh.applyFrameLocked(c.TimeSec, c.Frame, c.FromAP)
				n++
			}
		}
		sh.recGauge.Set(float64(sh.nrec))
		sh.mu.Unlock()
		return n
	}
	shardOf := make([]int32, len(batch))
	counts := make([]int32, len(s.shards))
	n := 0
	for i, c := range batch {
		owner, ok := frameOwner(c.Frame, c.FromAP)
		if !ok {
			shardOf[i] = -1
			continue
		}
		si := int32(s.shardIndex(owner))
		shardOf[i] = si
		counts[si]++
		n++
	}
	buckets := make([][]int32, len(s.shards))
	for si, c := range counts {
		if c > 0 {
			buckets[si] = make([]int32, 0, c)
		}
	}
	for i, si := range shardOf {
		if si >= 0 {
			buckets[si] = append(buckets[si], int32(i))
		}
	}
	for si, idx := range buckets {
		if len(idx) == 0 {
			continue
		}
		sh := s.shards[si]
		sh.mu.Lock()
		for _, i := range idx {
			c := batch[i]
			sh.applyFrameLocked(c.TimeSec, c.Frame, c.FromAP)
		}
		sh.recGauge.Set(float64(sh.nrec))
		sh.mu.Unlock()
	}
	return n
}

// IngestBatch appends pre-classified pairwise records in bulk, grouped by
// device shard with each shard lock taken once. Every record is appended
// verbatim — Len grows by exactly len(recs) — and, like the frame paths
// that produce records, the device is marked seen and the AP registered.
// It returns len(recs).
//
// Every Kind must lie in 0–65535, the range a stored record can hold;
// IngestBatch panics, before it stores anything, on a batch that breaks
// this.
func (s *Store) IngestBatch(recs []Record) int {
	if len(recs) == 0 {
		return 0
	}
	for i, r := range recs {
		if err := kindErr(r.Kind); err != nil {
			panic(fmt.Sprintf("obs: IngestBatch: record %d: %v", i, err))
		}
	}
	defer mIngestSeconds.ObserveSince(time.Now())
	mBatchFrames.Observe(float64(len(recs)))
	for si, sh := range s.shards {
		first := true
		for _, r := range recs {
			if s.shardIndex(r.Device) != uint32(si) {
				continue
			}
			if first {
				sh.mu.Lock()
				first = false
			}
			sh.markSeenLocked(r.Device, r.TimeSec)
			sh.aps[r.AP] = true
			sh.addRecordLocked(r.Device, r.TimeSec, r.AP, r.Kind)
		}
		if !first {
			sh.recGauge.Set(float64(sh.nrec))
			sh.mu.Unlock()
		}
	}
	return len(recs)
}

// Len returns the number of pairwise records.
func (s *Store) Len() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += sh.nrec
		sh.mu.RUnlock()
	}
	return n
}

// ShardLens returns the pairwise record count per shard, for operational
// introspection of the hash balance.
func (s *Store) ShardLens() []int {
	out := make([]int, len(s.shards))
	for i, sh := range s.shards {
		sh.mu.RLock()
		out[i] = sh.nrec
		sh.mu.RUnlock()
	}
	return out
}

// Devices returns every device ever seen, sorted by address. A device
// lives in exactly one shard, so the merge needs no dedup.
func (s *Store) Devices() []dot11.MAC {
	var out []dot11.MAC
	for _, sh := range s.shards {
		sh.mu.RLock()
		for m := range sh.seen {
			out = append(out, m)
		}
		sh.mu.RUnlock()
	}
	sortMACs(out)
	return out
}

// DeviceCount returns how many devices the store has seen — the length of
// Devices — in O(1) and without a shard lock: it is the first-sighting
// count, which moves only when a device is first seen.
func (s *Store) DeviceCount() int { return int(s.devGen.Load()) }

// ProbingDevices returns the devices observed sending probe requests.
func (s *Store) ProbingDevices() []dot11.MAC {
	var out []dot11.MAC
	for _, sh := range s.shards {
		sh.mu.RLock()
		for m := range sh.probing {
			out = append(out, m)
		}
		sh.mu.RUnlock()
	}
	sortMACs(out)
	return out
}

// APs returns every AP ever observed, sorted by address. An AP is
// registered in the shard of whichever device heard it, so the union
// dedups across shards.
func (s *Store) APs() []dot11.MAC {
	set := make(map[dot11.MAC]bool)
	for _, sh := range s.shards {
		sh.mu.RLock()
		for m := range sh.aps {
			set[m] = true
		}
		sh.mu.RUnlock()
	}
	out := make([]dot11.MAC, 0, len(set))
	for m := range set {
		out = append(out, m)
	}
	sortMACs(out)
	return out
}

// APSet returns Γ, the set of APs the device has communicated with over the
// whole observation history, sorted by address.
func (s *Store) APSet(dev dot11.MAC) []dot11.MAC {
	return s.APSetWindow(dev, 0, maxFloat)
}

const maxFloat = 1.797693134862315708145274237317043567981e308

// APSetWindow returns Γ restricted to observations with start ≤ t < end —
// the per-position observation when tracking a moving device. The result
// is deduplicated and in ascending MAC order (deterministic across calls
// and store layouts).
func (s *Store) APSetWindow(dev dot11.MAC, start, end float64) []dot11.MAC {
	return s.AppendAPSetWindow(nil, dev, start, end)
}

// AppendAPSetWindow appends the window's Γ to dst and returns the extended
// slice, in the same deduplicated ascending-MAC order as APSetWindow. It
// is ScanAPSetWindow for callers that need only Γ.
func (s *Store) AppendAPSetWindow(dst []dot11.MAC, dev dot11.MAC, start, end float64) []dot11.MAC {
	dst, _, _ = s.ScanAPSetWindow(dst, dev, start, end)
	return dst
}

// ScanAPSetWindow appends the window's Γ to dst and returns the extended
// slice, in the same deduplicated ascending-MAC order as APSetWindow, plus
// how many records the window matched (before AP deduplication) and
// whether out-of-order ingest forced a re-sort of the device log under
// the query. It is the allocation-friendly form for hot loops: pass dst[:0]
// of a reused buffer and no per-call allocation happens once the buffer
// has grown, as long as the window matches at most 64 records.
//
// The query binary-searches the device's time-sorted record log for start
// and scans forward to end, rather than scanning the whole store. When
// out-of-order ingest has dirtied the log, the re-sort and the search
// happen under one shard write lock, so a record ingested before the
// query began is always in the result — there is no window in which the
// re-sort can hide it.
func (s *Store) ScanAPSetWindow(dst []dot11.MAC, dev dot11.MAC, start, end float64) (out []dot11.MAC, scanned int, resorted bool) {
	sh := s.shardFor(dev)
	sh.mu.RLock()
	dl := sh.byDev[dev]
	if dl == nil {
		sh.mu.RUnlock()
		return dst, 0, false
	}
	return sh.scanRUnlock(dst, dl, start, end)
}

// scanRUnlock is the window scan behind ScanAPSetWindow and ScanCandidate:
// it appends the distinct APs of dl's records with start ≤ t < end to dst,
// in ascending order. The caller holds sh's read lock, which scanRUnlock
// releases. A log dirtied by out-of-order ingest is re-sorted under the
// write lock first; a shard never drops a log, so dl stays valid across
// the switch.
func (sh *shard) scanRUnlock(dst []dot11.MAC, dl *deviceLog, start, end float64) (out []dot11.MAC, scanned int, resorted bool) {
	var buf [64]uint64
	keys := buf[:0]
	if dl.sorted {
		keys = appendWindow(keys, dl.recs, start, end)
		sh.mu.RUnlock()
	} else {
		sh.mu.RUnlock()
		sh.mu.Lock()
		sh.sortDeviceLogLocked(dl.dev, dl)
		keys = appendWindow(keys, dl.recs, start, end)
		resorted = true
		sh.mu.Unlock()
	}
	return appendUniqueMACs(dst, keys), len(keys), resorted
}

// appendWindow appends the AP keys of the records with start ≤ t < end
// from a canonically ordered log. NaN-timestamped records sort to the
// front and match no window (NaN ≥ start is false for every start).
func appendWindow(keys []uint64, recs []rec, start, end float64) []uint64 {
	for _, r := range recs[searchTime(recs, start):] {
		if !(r.t < end) {
			break
		}
		keys = append(keys, r.key&apMask)
	}
	return keys
}

// searchTime returns the first index i with recs[i].t ≥ t, or len(recs):
// sort.Search's answer, without the closure call per probe.
func searchTime(recs []rec, t float64) int {
	lo, hi := 0, len(recs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if recs[m].t >= t {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// appendUniqueMACs sorts the AP keys in place and appends each distinct
// one to dst as a MAC, in ascending order. Window sets are small, so
// insertion sort covers the common case; larger sets take slices.Sort.
func appendUniqueMACs(dst []dot11.MAC, keys []uint64) []dot11.MAC {
	if len(keys) > 32 {
		slices.Sort(keys)
	} else {
		for i := 1; i < len(keys); i++ {
			for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
				keys[j], keys[j-1] = keys[j-1], keys[j]
			}
		}
	}
	for i, k := range keys {
		if i == 0 || k != keys[i-1] {
			dst = append(dst, dot11.MACFromKey(k))
		}
	}
	return dst
}

// sortDeviceLogLocked restores a device log's canonical time order after
// out-of-order ingest. Caller holds the shard write lock.
func (sh *shard) sortDeviceLogLocked(dev dot11.MAC, dl *deviceLog) {
	if dl.sorted {
		return
	}
	slices.SortStableFunc(dl.recs, func(a, b rec) int {
		switch {
		case timeLess(a.t, b.t):
			return -1
		case timeLess(b.t, a.t):
			return 1
		}
		return 0
	})
	dl.sorted = true
	mResorts.Inc()
	slog.Debug("re-sorted device log after out-of-order ingest",
		"component", "obs", "device", dev.String(), "records", len(dl.recs))
}

// DeviceAPSets returns Γ_k for every device with at least one pairwise
// record, over the whole history.
func (s *Store) DeviceAPSets() map[dot11.MAC][]dot11.MAC {
	out := make(map[dot11.MAC][]dot11.MAC)
	var keys []uint64
	for _, sh := range s.shards {
		sh.mu.RLock()
		for dev, dl := range sh.byDev {
			keys = keys[:0]
			for _, r := range dl.recs {
				keys = append(keys, r.key&apMask)
			}
			out[dev] = appendUniqueMACs(nil, keys)
		}
		sh.mu.RUnlock()
	}
	return out
}

// CoObservationIndex returns, for every device, the list of (time, AP)
// pairs: the record-level read-back of the store. Each device's records come back
// in that device's ingest order (canonical time order once a window query
// has re-sorted the log).
func (s *Store) CoObservationIndex() map[dot11.MAC][]Record {
	out := make(map[dot11.MAC][]Record)
	for _, sh := range s.shards {
		sh.mu.RLock()
		for dev, dl := range sh.byDev {
			l := make([]Record, len(dl.recs))
			for i, r := range dl.recs {
				l[i] = r.record(dev)
			}
			out[dev] = l
		}
		sh.mu.RUnlock()
	}
	return out
}

// sortMACs sorts MACs in place by byte order: it sorts their packed keys,
// which compare as plain integers, and writes the MACs back. That is about
// twice as fast as a comparison function over MACs.
func sortMACs(ms []dot11.MAC) {
	keys := make([]uint64, len(ms))
	for i, m := range ms {
		keys[i] = m.Key()
	}
	slices.Sort(keys)
	for i, k := range keys {
		ms[i] = dot11.MACFromKey(k)
	}
}

// macLess is MAC byte order, compared as packed keys.
func macLess(a, b dot11.MAC) bool { return a.Key() < b.Key() }
