package core

import (
	"fmt"

	"repro/internal/dot11"
	"repro/internal/geom"
)

// RegionTracker carries incremental intersection state across the fixes
// of one device: the live geom.Region, the Γ it was built from, and the
// knowledge epoch it is valid against. MLocTracked diffs each new Γ
// against the tracker's own previous one and updates the region
// incrementally, falling back to a full rebuild when the knowledge
// changed, the diff is large, or Γ is not in canonical order.
//
// The engine does not use it: every engine fix, Track's included, is a
// plain Localizer.Locate on Γ, which measured faster end to end. The
// kernel stays for the bench module's per-layer probe and the
// BenchmarkTrackChurn/kernel floor.
//
// A RegionTracker is not safe for concurrent use. The zero value is
// ready to use.
type RegionTracker struct {
	region geom.Region
	epoch  uint64
	valid  bool
	keys   []uint64 // ascending keys of the region's live discs

	kbuf []uint64      // scratch: incoming keys
	cbuf []geom.Circle // scratch: incoming discs, aligned with kbuf
	vbuf []geom.Point  // vertex arena, aliased by returned Estimates

	lastPath    string
	lastAdded   int
	lastRemoved int
	areaOK      bool // region state matches the most recent call's Γ
}

// Values of RegionTracker.LastPath.
const (
	// RegionPathFull marks a fix that rebuilt (or bypassed) the region
	// from scratch.
	RegionPathFull = "full"
	// RegionPathIncremental marks a fix served by diffing the previous Γ.
	RegionPathIncremental = "incremental"
)

// LastPath reports how the most recent MLocTracked call computed its
// region: RegionPathIncremental or RegionPathFull ("" before any call).
func (rt *RegionTracker) LastPath() string { return rt.lastPath }

// LastDiff reports how many discs the most recent call added plus
// removed relative to the previous Γ (the full disc count for a rebuild).
func (rt *RegionTracker) LastDiff() int { return rt.lastAdded + rt.lastRemoved }

// RegionArea returns the area of the intersection region the most recent
// MLocTracked call worked on, served from the live incremental state —
// the same value RegionArea(know, gamma) would recompute from scratch for
// that call's inputs. ok is false when the tracker holds no region for
// the last Γ (before any call, or when the call bypassed the region on
// the non-canonical or no-AP paths); callers must then fall back to the
// full computation.
func (rt *RegionTracker) RegionArea() (float64, bool) {
	if !rt.areaOK {
		return 0, false
	}
	return rt.region.Area(), true
}

// rebuildThreshold: rebuild from scratch when more than half of the new
// Γ changed — at that point the diff work approaches the rebuild work.
func rebuildThreshold(k int) int { return (k + 1) / 2 }

// MLocTracked is MLoc with incremental region reuse. It produces the
// same Estimate as MLoc on the same inputs — bit-for-bit, because the
// underlying Region reproduces RegionVertices exactly on canonical Γs
// and every fallback routes through the full algorithm — while reusing
// rt's region across calls so a tracked device's per-fix geometry cost
// is proportional to the Γ diff, not to |Γ|².
//
// The returned Estimate's Vertices slice aliases rt's internal arena and
// is valid only until the next call on rt; callers that retain estimates
// must copy it.
//
// A nil rt degrades to plain MLoc.
func MLocTracked(k Knowledge, gamma []dot11.MAC, rt *RegionTracker) (Estimate, error) {
	if rt == nil {
		return MLoc(k, gamma)
	}

	// Assemble the incoming key/disc sequence with exactly the filter
	// Knowledge.Discs applies (known AP, own MaxRange, no fallback).
	// When the tracker is valid against this same knowledge epoch, a key
	// already live in the region needs no snapshot lookup at all: the
	// snapshot is immutable per epoch, so membership in rt.keys proves
	// the AP passed the filter with the identical disc last fix. Only
	// genuinely new keys — typically one per slide step — pay a Get; the
	// skipped slots carry a zero disc, which the diff path never reads
	// (it only fetches discs for added keys).
	sn := k.Snapshot()
	epoch := k.Epoch()
	merge := rt.valid && epoch == rt.epoch
	keys := rt.kbuf[:0]
	discs := rt.cbuf[:0]
	canonical := true
	oi := 0 // merge cursor into rt.keys
	for _, m := range gamma {
		key := m.Key()
		if n := len(keys); n > 0 && keys[n-1] >= key {
			canonical = false
			break
		}
		if merge {
			for oi < len(rt.keys) && rt.keys[oi] < key {
				oi++
			}
			if oi < len(rt.keys) && rt.keys[oi] == key {
				oi++
				keys = append(keys, key)
				discs = append(discs, geom.Circle{})
				continue
			}
		}
		e, ok := sn.Get(m)
		if !ok || e.MaxRange <= 0 {
			continue
		}
		keys = append(keys, key)
		discs = append(discs, geom.Circle{C: e.Pos, R: e.MaxRange})
	}
	rt.kbuf, rt.cbuf = keys, discs

	if !canonical {
		// Γ not sorted/deduplicated: the incremental region's canonical
		// order no longer matches MLoc's disc order, so serve this fix
		// with the plain algorithm. The tracker state stays consistent
		// with its own keys and remains usable for later canonical Γs.
		rt.lastPath = RegionPathFull
		rt.lastAdded, rt.lastRemoved = 0, 0
		rt.areaOK = false
		return MLoc(k, gamma)
	}
	if len(discs) == 0 {
		rt.lastPath = RegionPathFull
		rt.lastAdded, rt.lastRemoved = 0, 0
		rt.areaOK = false
		return Estimate{}, ErrNoAPs
	}

	if !merge {
		rt.rebuild(keys, discs)
		rt.epoch = epoch
	} else if added, removed := diffCount(rt.keys, keys); added+removed > rebuildThreshold(len(keys)) {
		// The rebuild inserts every disc, including the merge-skipped
		// slots; refill those from the snapshot (which must still hold
		// them — they were resolved at this same epoch).
		for i := range discs {
			if discs[i].R == 0 {
				e, _ := sn.Get(dot11.MACFromKey(keys[i]))
				discs[i] = geom.Circle{C: e.Pos, R: e.MaxRange}
			}
		}
		rt.rebuild(keys, discs)
	} else {
		rt.applyDiff(keys, discs)
		rt.lastPath = RegionPathIncremental
		rt.lastAdded, rt.lastRemoved = added, removed
	}
	rt.areaOK = true

	rt.vbuf = rt.region.AppendVertices(rt.vbuf[:0])
	if len(rt.vbuf) == 0 {
		return Estimate{}, fmt.Errorf("mloc with %d discs: %w", rt.region.Len(), ErrEmptyRegion)
	}
	c, err := geom.Centroid(rt.vbuf)
	if err != nil {
		return Estimate{}, err
	}
	return Estimate{Pos: c, Vertices: rt.vbuf, K: rt.region.Len(), Method: "m-loc"}, nil
}

// rebuild resets the region to exactly the given key/disc sequence.
func (rt *RegionTracker) rebuild(keys []uint64, discs []geom.Circle) {
	rt.region.Reset()
	for i, key := range keys {
		rt.region.Add(key, discs[i])
	}
	rt.keys = append(rt.keys[:0], keys...)
	rt.valid = true
	rt.lastPath = RegionPathFull
	rt.lastAdded, rt.lastRemoved = len(keys), 0
}

// diffCount reports how many keys must be added and removed to turn the
// ascending sequence old into the ascending sequence new.
func diffCount(old, new []uint64) (added, removed int) {
	i, j := 0, 0
	for i < len(old) && j < len(new) {
		switch {
		case old[i] == new[j]:
			i++
			j++
		case old[i] < new[j]:
			removed++
			i++
		default:
			added++
			j++
		}
	}
	removed += len(old) - i
	added += len(new) - j
	return added, removed
}

// applyDiff mutates the region from rt.keys to the new sequence with
// removes first (keeping the intermediate disc count low), then adds.
func (rt *RegionTracker) applyDiff(keys []uint64, discs []geom.Circle) {
	i, j := 0, 0
	for i < len(rt.keys) {
		if j < len(keys) && rt.keys[i] == keys[j] {
			i++
			j++
			continue
		}
		if j < len(keys) && rt.keys[i] > keys[j] {
			j++
			continue
		}
		rt.region.Remove(rt.keys[i])
		i++
	}
	i, j = 0, 0
	for j < len(keys) {
		if i < len(rt.keys) && rt.keys[i] == keys[j] {
			i++
			j++
			continue
		}
		if i < len(rt.keys) && rt.keys[i] < keys[j] {
			i++
			continue
		}
		rt.region.Add(keys[j], discs[j])
		j++
	}
	// Swap the live and scratch key buffers instead of copying; the
	// caller stored the incoming slice in rt.kbuf already, and discs in
	// rt.cbuf, so only the roles flip.
	rt.keys, rt.kbuf = keys, rt.keys
}
