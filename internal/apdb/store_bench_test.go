package apdb

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dot11"
	"repro/internal/geom"
)

// Benchmarks for the SoA snapshot's build, lookup and codec paths.

// benchEntries draws n APs spread over an area sized for a roughly
// constant ~100 APs/km² urban density.
func benchEntries(n int) []Entry {
	rng := rand.New(rand.NewSource(int64(n)))
	side := math.Sqrt(float64(n) / 100.0 * 1e6) // meters
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{
			BSSID:    mac64(uint64(i) + 1),
			Pos:      geom.Pt(rng.Float64()*side, rng.Float64()*side),
			MaxRange: 50 + rng.Float64()*100,
		}
	}
	return entries
}

// benchStore builds the snapshot of benchEntries(n).
func benchStore(n int) *Snapshot { return FromEntries(benchEntries(n)) }

var sinkDiscs []geom.Circle

// BenchmarkCandidatesFor is the M-Loc hot path: Γ-set lookup into
// candidate discs, no per-call map or sort.
func BenchmarkCandidatesFor(b *testing.B) {
	s := benchStore(100_000)
	rng := rand.New(rand.NewSource(2))
	gamma := make([]dot11.MAC, 8)
	for i := range gamma {
		gamma[i] = mac64(uint64(rng.Intn(100_000)) + 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkDiscs = s.CandidatesFor(nil, gamma, 100)
	}
}

var sinkSnap *Snapshot

// BenchmarkFromEntries is the one construction path: sort, last-wins
// compaction and the struct-of-arrays copy, from a campus to a district.
func BenchmarkFromEntries(b *testing.B) {
	for _, n := range []int{255, 100_000} {
		b.Run(fmt.Sprintf("aps=%d", n), func(b *testing.B) {
			entries := benchEntries(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkSnap = FromEntries(entries)
			}
		})
	}
}

var sinkErr error

func BenchmarkSnapshotEncode(b *testing.B) {
	sn := benchStore(100_000)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		sinkErr = sn.WriteSnapshot(&buf)
	}
	b.SetBytes(int64(buf.Len()))
}

func BenchmarkSnapshotDecode(b *testing.B) {
	var buf bytes.Buffer
	if err := benchStore(100_000).WriteSnapshot(&buf); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadSnapshot(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}
