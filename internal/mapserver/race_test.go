//go:build race

package mapserver

// raceEnabled: the race detector makes sync.Pool drop a random share of
// puts, so allocation counts through the pooled buffer are noise.
const raceEnabled = true
