package engine

import (
	"encoding/binary"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/dot11"
	"repro/internal/geom"
)

// testKey is a Γ-sized cache key (17 MACs, the city's mean |Γ|) unique to
// i.
func testKey(i int) []byte {
	key := make([]byte, 17*len(dot11.MAC{}))
	binary.LittleEndian.PutUint64(key, uint64(i))
	return key
}

// checkCache verifies the shards' internal consistency: every index entry
// names the slot holding its key, no shard is over its share of capacity,
// and the entry count matches the shards.
func checkCache(t *testing.T, c *gammaCache, capacity int) {
	t.Helper()
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		if len(s.index) != len(s.slots) {
			t.Errorf("shard %d: %d index entries, %d slots", i, len(s.index), len(s.slots))
		}
		for k, j := range s.index {
			if s.slots[j].key != k {
				t.Errorf("shard %d: index points %q at slot %d holding %q", i, k, j, s.slots[j].key)
			}
		}
		if n := len(s.slots); n > shardShare(capacity, i) {
			t.Errorf("shard %d holds %d entries, share %d", i, n, shardShare(capacity, i))
		}
		total += len(s.slots)
		s.mu.Unlock()
	}
	if c.len() != total {
		t.Errorf("len() = %d, shards hold %d", c.len(), total)
	}
}

// TestGammaCacheEviction pins CLOCK eviction: a key hit between inserts
// keeps its reference bit set and survives a stream of cold inserts many
// times the capacity, while the cold keys are evicted one at a time.
func TestGammaCacheEviction(t *testing.T) {
	const capacity = 8 * cacheShards
	c := newGammaCache()
	hot := testKey(-1)
	c.put(hot, core.Estimate{K: 42}, nil, capacity)
	evicted := 0
	for i := 0; i < 20*capacity; i++ {
		evicted += c.put(testKey(i), core.Estimate{K: i}, nil, capacity)
		est, _, ok := c.get(hot)
		if !ok || est.K != 42 {
			t.Fatalf("hot key lost after %d cold inserts (ok=%v, K=%d)", i+1, ok, est.K)
		}
	}
	if c.len() != capacity {
		t.Errorf("len = %d after overfilling, want the capacity %d", c.len(), capacity)
	}
	if want := 20*capacity + 1 - capacity; evicted != want {
		t.Errorf("evicted %d entries, want %d (one per insert past capacity)", evicted, want)
	}
	checkCache(t, c, capacity)
}

// TestGammaCacheLenBounded fills the cache far past capacities that are
// not multiples of the shard count and checks it never holds more.
func TestGammaCacheLenBounded(t *testing.T) {
	for _, capacity := range []int{cacheShards, 100, 1000} {
		c := newGammaCache()
		for i := 0; i < 5*capacity; i++ {
			c.put(testKey(i), core.Estimate{K: i}, nil, capacity)
			if c.len() > capacity {
				t.Fatalf("capacity %d: len %d after %d inserts", capacity, c.len(), i+1)
			}
		}
		checkCache(t, c, capacity)
	}
}

// TestGammaCacheShrinks lowers the capacity under a full cache: each
// insert evicts its shard back under the new share, so once every shard
// has seen an insert the cache is within the smaller capacity.
func TestGammaCacheShrinks(t *testing.T) {
	const big, small = 4 * cacheFloor, cacheFloor
	c := newGammaCache()
	for i := 0; i < big; i++ {
		c.put(testKey(i), core.Estimate{}, nil, 2*big)
	}
	if c.len() != big {
		t.Fatalf("len = %d, want %d", c.len(), big)
	}
	for i := big; i < big+small; i++ {
		c.put(testKey(i), core.Estimate{}, nil, small)
	}
	if c.len() > small {
		t.Fatalf("len = %d after shrinking to %d", c.len(), small)
	}
	checkCache(t, c, small)
}

// TestGammaCacheConcurrent hammers get and put from several goroutines
// over more keys than the capacity, so shards evict while others read (run
// it under -race). A value encodes its key, so every answer can be
// checked against the key asked for.
func TestGammaCacheConcurrent(t *testing.T) {
	const (
		capacity = 4 * cacheShards
		keys     = 3 * capacity
		workers  = 4
		rounds   = 4000
	)
	c := newGammaCache()
	var evicted atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := (i*7 + w*13) % keys
				if est, _, ok := c.get(testKey(k)); ok {
					if est.K != k {
						t.Errorf("key %d: got value %d", k, est.K)
						return
					}
					continue
				}
				evicted.Add(int64(c.put(testKey(k), core.Estimate{K: k}, nil, capacity)))
			}
		}()
	}
	wg.Wait()
	checkCache(t, c, capacity)
	if evicted.Load() == 0 {
		t.Error("no put evicted: the test never filled a shard")
	}
}

// gatedLocalizer is M-Loc that, once armed, blocks its next Locate until
// released, so a test can swap the knowledge mid-computation.
type gatedLocalizer struct {
	core.MLocalizer
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (g *gatedLocalizer) Locate(k core.Knowledge, gamma []dot11.MAC) (core.Estimate, error) {
	if g.armed.CompareAndSwap(true, false) {
		g.entered <- struct{}{}
		<-g.release
	}
	return g.MLocalizer.Locate(k, gamma)
}

// TestKnowledgeSwapDuringMiss swaps the knowledge while a cache miss is
// inside Locate. The estimate computed against the old base must not be
// cached for the new one: the next fix of the same Γ equals a fresh
// Locate against the new base.
func TestKnowledgeSwapDuringMiss(t *testing.T) {
	k, store, devs := gridWorld(60, 4)
	loc := &gatedLocalizer{entered: make(chan struct{}), release: make(chan struct{})}
	e := testEngine(t, Config{Know: k, Store: store, WindowSec: 30, Localizer: loc})
	loc.armed.Store(true)
	done := make(chan error, 1)
	go func() {
		_, err := e.Fix(devs[0], 50)
		done <- err
	}()
	<-loc.entered
	shifted := k.All()
	for i := range shifted {
		shifted[i].Pos = geom.Pt(shifted[i].Pos.X+500, shifted[i].Pos.Y)
	}
	newBase := core.NewKnowledge(shifted)
	e.SetKnowledge(newBase)
	close(loc.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	got, err := e.Fix(devs[0], 50)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.MLocalizer{}.Locate(newBase, store.APSetWindow(devs[0], 35, 65))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fix after the swap = %v, want the new base's %v", got.Pos, want.Pos)
	}
}

// TestCacheCapacityFollowsDeviceCount checks the budget tracks the store:
// the floor for a small population, two entries per device past it, and
// the floor again once ResetObservations swaps in an empty store.
func TestCacheCapacityFollowsDeviceCount(t *testing.T) {
	k, _, _ := gridWorld(10, 0)
	e := testEngine(t, Config{Know: k, WindowSec: 30})
	ap := mac(0xA0, 0)
	ingest := func(from, to int) {
		for d := from; d < to; d++ {
			dev := dot11.MAC{0xDE, 0, 0, 0, byte(d >> 8), byte(d)}
			e.Ingest(50, dot11.NewProbeResponse(ap, dev, "", 1, 1), true)
		}
	}
	ingest(0, 100)
	if got := e.Stats().CacheCapacity; got != cacheFloor {
		t.Fatalf("capacity with 100 devices = %d, want the floor %d", got, cacheFloor)
	}
	const devices = 3000
	ingest(100, devices)
	if got, want := e.Stats().CacheCapacity, cachePerDevice*devices; got != want {
		t.Fatalf("capacity with %d devices = %d, want %d", devices, got, want)
	}
	e.ResetObservations()
	if got := e.Stats().CacheCapacity; got != cacheFloor {
		t.Fatalf("capacity after reset = %d, want the floor %d", got, cacheFloor)
	}
	off := testEngine(t, Config{Know: k, WindowSec: 30, CacheSize: -1})
	if s := off.Stats(); s.CacheCapacity != 0 || s.CacheEntries != 0 {
		t.Fatalf("disabled cache reports capacity %d, entries %d", s.CacheCapacity, s.CacheEntries)
	}
}

// BenchmarkGammaCacheHitParallel measures cache hits from GOMAXPROCS
// goroutines over a warm cache of Γ-sized keys.
func BenchmarkGammaCacheHitParallel(b *testing.B) {
	const keys = 4096
	c := newGammaCache()
	all := make([][]byte, keys)
	for i := range all {
		all[i] = testKey(i)
		c.put(all[i], core.Estimate{K: i}, nil, 2*keys) // room for an uneven hash spread
	}
	var seq atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(seq.Add(1)) * 977
		for pb.Next() {
			if _, _, ok := c.get(all[i%keys]); !ok {
				b.Error("miss on a warm cache")
				return
			}
			i++
		}
	})
}
