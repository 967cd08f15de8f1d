package engine

import (
	"hash/maphash"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// The Γ cache holds cachePerDevice entries per device the store has seen,
// and never fewer than cacheFloor. A city map frame's distinct Γ keys
// number about 1.8 per device, so the working set of a stable population
// fits and a steady frame loop evicts nothing.
const (
	cacheFloor     = 4096
	cachePerDevice = 2
	// cacheShards is a power of two, so a key's hash picks its shard with
	// one AND.
	cacheShards = 16
)

// cacheCapacity is the entry budget for a store that has seen devices
// devices.
func cacheCapacity(devices int) int { return max(cacheFloor, cachePerDevice*devices) }

// gammaCache memoizes localization results by canonicalized Γ key.
// Localization is a pure function of (knowledge, Γ), and a cache belongs
// to one knowledge base: it lives in the engine view beside that
// knowledge, and a knowledge change brings a fresh cache. Failures are
// cached too — a Γ whose discs leave an empty region fails identically
// (and expensively, through radius inflation) every time it recurs.
//
// The cache is split into cacheShards shards by a maphash of the key,
// each with its own lock, so concurrent hits on different keys rarely
// meet. Each shard evicts by CLOCK (second chance): a hit sets the
// entry's reference bit, and a full shard advances its hand, clearing set
// bits, until it finds an unreferenced entry to replace. Capacity is
// passed in on every put, so it follows the store's device count; a shard
// over its share evicts on insert until it is back under.
type gammaCache struct {
	seed maphash.Seed
	// entries is the total entry count, kept for Stats and the entries
	// gauge so neither walks the shards.
	entries atomic.Int64
	shards  [cacheShards]cacheShard
}

// cacheShard is one lock's worth of the cache: an index from key to slot
// and the slots the CLOCK hand sweeps.
type cacheShard struct {
	mu    sync.Mutex
	index map[string]int32
	slots []cacheSlot
	hand  int
	// Keeps neighbouring shards' locks off one cache line.
	_ [64]byte
}

type cacheSlot struct {
	key string
	ref bool
	est core.Estimate
	err error
}

func newGammaCache() *gammaCache {
	c := &gammaCache{seed: maphash.MakeSeed()}
	for i := range c.shards {
		c.shards[i].index = make(map[string]int32)
	}
	return c
}

// appendGammaKey appends Γ's canonical cache key to buf. Γ comes as the
// packed AP keys an obs.Sweep returns (dot11.MAC.Key), deduplicated and
// ascending, so the concatenation of the addresses' six big-endian bytes
// — the MACs' own bytes — is canonical. Callers build the key in a stack
// buffer: a lookup then allocates nothing, and only put copies the key
// into a string.
func appendGammaKey(buf []byte, gamma []uint64) []byte {
	for _, k := range gamma {
		buf = append(buf, byte(k>>40), byte(k>>32), byte(k>>24), byte(k>>16), byte(k>>8), byte(k))
	}
	return buf
}

// shardOf returns the index of key's shard.
func (c *gammaCache) shardOf(key []byte) int {
	return int(maphash.Bytes(c.seed, key) & (cacheShards - 1))
}

// shardShare is shard i's share of a capacity-entry cache: the capacity
// split as evenly as it goes, and at least one entry.
func shardShare(capacity, i int) int {
	n := capacity / cacheShards
	if i < capacity%cacheShards {
		n++
	}
	return max(n, 1)
}

// get looks key up and marks a found entry referenced.
func (c *gammaCache) get(key []byte) (core.Estimate, error, bool) {
	s := &c.shards[c.shardOf(key)]
	s.mu.Lock()
	i, ok := s.index[string(key)]
	if !ok {
		s.mu.Unlock()
		return core.Estimate{}, nil, false
	}
	sl := &s.slots[i]
	if !sl.ref {
		sl.ref = true // only on the first hit per sweep: repeats leave the line clean
	}
	est, err := sl.est, sl.err
	s.mu.Unlock()
	return est, err, true
}

// put stores a result in a cache of capacity entries and returns how
// many entries it evicted to make room.
func (c *gammaCache) put(key []byte, est core.Estimate, err error, capacity int) (evicted int) {
	i := c.shardOf(key)
	s, limit := &c.shards[i], shardShare(capacity, i)
	s.mu.Lock()
	if _, ok := s.index[string(key)]; ok {
		// A concurrent miss on the same Γ got here first with the same
		// answer.
		s.mu.Unlock()
		return 0
	}
	for len(s.slots) > limit {
		s.remove(s.victim())
		evicted++
	}
	if len(s.slots) == limit {
		// Full: the new entry takes the victim's slot, and the hand moves
		// past it, so it gets a whole sweep before it is examined.
		v := s.victim()
		delete(s.index, s.slots[v].key)
		s.slots[v] = cacheSlot{key: string(key), est: est, err: err}
		s.index[s.slots[v].key] = int32(v)
		s.hand = v + 1
		evicted++
	} else {
		k := string(key)
		s.index[k] = int32(len(s.slots))
		s.slots = append(s.slots, cacheSlot{key: k, est: est, err: err})
	}
	s.mu.Unlock()
	mCacheEntries.Set(float64(c.entries.Add(int64(1 - evicted))))
	return evicted
}

// victim advances the hand to the first unreferenced slot, clearing the
// reference bits it passes, and returns that slot's index. The shard
// must hold at least one slot.
func (s *cacheShard) victim() int {
	for {
		if s.hand >= len(s.slots) {
			s.hand = 0
		}
		sl := &s.slots[s.hand]
		if !sl.ref {
			return s.hand
		}
		sl.ref = false
		s.hand++
	}
}

// remove drops slot i, moving the last slot into its place.
func (s *cacheShard) remove(i int) {
	delete(s.index, s.slots[i].key)
	last := len(s.slots) - 1
	if i != last {
		s.slots[i] = s.slots[last]
		s.index[s.slots[i].key] = int32(i)
	}
	s.slots[last] = cacheSlot{}
	s.slots = s.slots[:last]
}

// len reports the current entry count.
func (c *gammaCache) len() int { return int(c.entries.Load()) }
