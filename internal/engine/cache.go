package engine

import (
	"sync"

	"repro/internal/core"
	"repro/internal/dot11"
)

// defaultCacheSize is the Γ-cache entry cap when Config.CacheSize is 0.
const defaultCacheSize = 4096

// gammaCache memoizes localization results by canonicalized Γ key.
// Localization is a pure function of (knowledge, Γ); the engine
// invalidates the whole cache whenever the knowledge base is swapped, so
// entries never go stale. Failures are cached too — a Γ whose discs leave
// an empty region fails identically (and expensively, through radius
// inflation) every time it recurs.
//
// Eviction is wholesale: when the cap is reached the map is dropped and
// refilled. The working set of distinct Γ keys between knowledge swaps is
// small (devices near each other share keys), so an LRU's bookkeeping
// would cost more than the occasional refill.
type gammaCache struct {
	mu      sync.Mutex
	max     int
	entries map[string]cacheEntry
}

type cacheEntry struct {
	est core.Estimate
	err error
}

func newGammaCache(max int) *gammaCache {
	return &gammaCache{max: max, entries: make(map[string]cacheEntry)}
}

// appendGammaKey appends Γ's canonical cache key to buf. Γ is already
// deduplicated and MAC-ascending (APSetWindow's documented order), so the
// byte concatenation of its addresses is canonical. Callers build the key
// in a stack buffer: a lookup then allocates nothing, and only put copies
// the key into a string.
func appendGammaKey(buf []byte, gamma []dot11.MAC) []byte {
	for _, m := range gamma {
		buf = append(buf, m[:]...)
	}
	return buf
}

func (c *gammaCache) get(key []byte) (core.Estimate, error, bool) {
	c.mu.Lock()
	e, ok := c.entries[string(key)]
	c.mu.Unlock()
	return e.est, e.err, ok
}

// put inserts an entry and returns how many entries a wholesale refill
// evicted (0 when the cap was not reached).
func (c *gammaCache) put(key []byte, est core.Estimate, err error) int {
	c.mu.Lock()
	evicted := 0
	if len(c.entries) >= c.max {
		evicted = len(c.entries)
		c.entries = make(map[string]cacheEntry)
	}
	c.entries[string(key)] = cacheEntry{est: est, err: err}
	c.mu.Unlock()
	return evicted
}

// invalidate drops every entry (the knowledge base changed) and returns
// how many were dropped.
func (c *gammaCache) invalidate() int {
	c.mu.Lock()
	dropped := len(c.entries)
	c.entries = make(map[string]cacheEntry)
	c.mu.Unlock()
	return dropped
}

// len reports the current entry count (for tests).
func (c *gammaCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
