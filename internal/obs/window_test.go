package obs

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dot11"
)

// fuzzTime maps one byte onto a timestamp: 0–250 are whole seconds, so
// records collide and window bounds land exactly on record times and on
// time-index bucket edges; 251 and 252 are ∓1e18, finite but beyond the
// index's bucket range; the top three values are NaN, +Inf and -Inf.
func fuzzTime(b byte) float64 {
	switch b {
	case 252:
		return 1e18
	case 251:
		return -1e18
	case 255:
		return math.NaN()
	case 254:
		return math.Inf(1)
	case 253:
		return math.Inf(-1)
	}
	return float64(b)
}

// fuzzAP maps one byte onto an AP whose addresses differ only in the
// first byte (high nibble) or only in the last byte (low nibble), the
// two ends of the packed key.
func fuzzAP(b byte) dot11.MAC {
	return dot11.MAC{(b >> 4) * 0x11, 0x22, 0x33, 0x44, 0x55, b & 0xF}
}

// refDevice is the naive model of one device's log the window fuzz
// checks ScanAPSetWindow against: every record in ingest order, and
// whether the store's log should be dirty (a record arrived behind the
// tail since the last re-sort).
type refDevice struct {
	recs  []Record
	tail  float64
	dirty bool
}

func (d *refDevice) add(r Record) {
	if len(d.recs) > 0 && timeLess(r.TimeSec, d.tail) {
		d.dirty = true
	}
	d.recs = append(d.recs, r)
	d.tail = r.TimeSec
}

// window answers a query the naive way: a linear filter on
// start ≤ t < end, a map dedup and a byte-wise MAC sort. It then plays
// the store's re-sort: the tail becomes the canonical maximum.
func (d *refDevice) window(start, end float64) (gamma []dot11.MAC, scanned int, resorted bool) {
	set := map[dot11.MAC]bool{}
	for _, r := range d.recs {
		if start <= r.TimeSec && r.TimeSec < end {
			scanned++
			set[r.AP] = true
		}
	}
	for m := range set {
		gamma = append(gamma, m)
	}
	slices.SortFunc(gamma, func(a, b dot11.MAC) int { return bytes.Compare(a[:], b[:]) })
	if d.dirty {
		resorted = true
		d.dirty = false
		for _, r := range d.recs {
			if timeLess(d.tail, r.TimeSec) {
				d.tail = r.TimeSec
			}
		}
	}
	return gamma, scanned, resorted
}

// FuzzScanAPSetWindow checks the packed-key window path and the map
// frame's path — WindowCandidates, then a Step of the candidate's Sweep —
// against the naive reference. The input is a 5-byte header — two
// windows (start, end) and a dst prefix length — then 3-byte records:
// time, AP, and a byte whose top bit picks one of two devices and whose
// rest picks the Kind. The first half of the records is ingested and
// queried, then the rest, so out-of-order records after a re-sort are
// covered too. The first device is scanned the way a frame scans it,
// through its candidate, the second the way Fix does; every device whose
// naive window is not empty must be a candidate, and no device may be
// listed twice.
func FuzzScanAPSetWindow(f *testing.F) {
	f.Add([]byte{0, 100, 5, 6, 2, 10, 0xA1, 2, 12, 0xB2, 2, 11, 0xA1, 2})
	f.Add([]byte{253, 254, 255, 0, 1, 255, 1, 2, 50, 2, 2, 254, 3, 2, 253, 4, 0x82, 10, 5, 2})
	f.Add([]byte{0, 253, 0, 255, 3, 5, 0x0F, 2, 5, 0xF0, 2, 5, 0x00, 2, 5, 0xFF, 0x83})
	// 200 records at t=5 in descending AP order: the window matches more
	// than 64 and every key must move.
	many := []byte{0, 10, 5, 6, 1}
	for i := 199; i >= 0; i-- {
		many = append(many, 5, byte(i), 2)
	}
	f.Add(many)
	// The frame's path: a window on bucket edges [8, 48), records on
	// both sides of each edge, a late record behind the tail, and one
	// beyond the index's range.
	f.Add([]byte{8, 48, 16, 252, 0x81, 7, 1, 2, 8, 2, 2, 47, 3, 0x82, 48, 4, 2, 9, 5, 2, 252, 6, 0x82, 40, 7, 2})
	// A late record at t=10 joins bucket 1 after its log joined bucket 2,
	// and dirties the log.
	f.Add([]byte{8, 30, 8, 30, 0x80, 20, 1, 2, 10, 2, 2})

	prefix := []dot11.MAC{{0xEE, 1}, {0x01}, {0xEE, 1}}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		windows := [][2]float64{
			{fuzzTime(data[0]), fuzzTime(data[1])},
			{fuzzTime(data[2]), fuzzTime(data[3])},
			{math.Inf(-1), math.Inf(1)},
		}
		pre := prefix[:int(data[4])%(len(prefix)+1)]
		data = data[5:]
		if len(data) > 3*512 {
			data = data[:3*512]
		}
		var recs []Record
		for ; len(data) >= 3; data = data[3:] {
			recs = append(recs, Record{
				TimeSec: fuzzTime(data[0]),
				Device:  dot11.MAC{0xDD, 0, 0, 0, 0, data[2] >> 7},
				AP:      fuzzAP(data[1]),
				Kind:    Kind(data[2] & 0x7F % 5),
			})
		}

		s := NewStoreShards(4)
		ref := map[dot11.MAC]*refDevice{}
		devs := []dot11.MAC{{0xDD}, {0xDD, 0, 0, 0, 0, 1}}
		for _, part := range [][]Record{recs[:len(recs)/2], recs[len(recs)/2:]} {
			s.IngestBatch(part)
			for _, r := range part {
				if ref[r.Device] == nil {
					ref[r.Device] = &refDevice{}
				}
				ref[r.Device].add(r)
			}
			for _, w := range windows {
				cands := map[dot11.MAC]*Candidate{}
				list := s.WindowCandidates(w[0], w[1])
				for i := range list {
					dev := list[i].Device()
					if cands[dev] != nil {
						t.Fatalf("window %v: %v listed twice", w, dev)
					}
					cands[dev] = &list[i]
				}
				for _, dev := range devs {
					d := ref[dev]
					if d == nil {
						d = &refDevice{}
					}
					wantG, wantN, wantR := d.window(w[0], w[1])
					c := cands[dev]
					if c == nil && wantN > 0 {
						t.Fatalf("window %v: %v has %d records there but is no candidate", w, dev, wantN)
					}
					dst := append(make([]dot11.MAC, 0, 2), pre...)
					var (
						got      []dot11.MAC
						n        int
						resorted bool
					)
					if c != nil && dev == devs[0] {
						sw := c.Sweep()
						var keys []uint64
						keys, n, resorted, _ = sw.Step(nil, w[0], w[1])
						got = dot11.AppendFromKeys(dst, keys)
					} else {
						got, n, resorted = s.ScanAPSetWindow(dst, dev, w[0], w[1])
					}
					if !slices.Equal(got[:len(pre)], pre) {
						t.Fatalf("window %v dev %v: prefix clobbered: %v", w, dev, got[:len(pre)])
					}
					if g := got[len(pre):]; !slices.Equal(g, wantG) {
						t.Fatalf("window %v dev %v: Γ %v, want %v", w, dev, g, wantG)
					}
					if n != wantN || resorted != wantR {
						t.Fatalf("window %v dev %v: scanned %d resorted %v, want %d %v", w, dev, n, resorted, wantN, wantR)
					}
				}
			}
		}
	})
}

// TestScanAPSetWindowZeroAllocs pins the hot path: with a reused dst and
// at most 64 matching records, a window query allocates nothing, and
// neither does the map frame's form.
func TestScanAPSetWindowZeroAllocs(t *testing.T) {
	s := NewStoreShards(4)
	dev := mac(1)
	var recs []Record
	for i := 0; i < 200; i++ {
		recs = append(recs, Record{TimeSec: float64(i), Device: dev, AP: mac(byte(i % 40)), Kind: KindProbeResponse})
	}
	s.IngestBatch(recs)
	dst := make([]dot11.MAC, 0, 64)
	for _, w := range [][2]float64{{10, 18}, {0, 64}, {150, 1e9}} {
		allocs := testing.AllocsPerRun(100, func() {
			dst, _, _ = s.ScanAPSetWindow(dst[:0], dev, w[0], w[1])
		})
		if allocs != 0 {
			t.Errorf("window [%v,%v): %v allocs per query, want 0", w[0], w[1], allocs)
		}
		c := &s.WindowCandidates(w[0], w[1])[0]
		keys := make([]uint64, 0, 64)
		allocs = testing.AllocsPerRun(100, func() {
			sw := c.Sweep()
			keys, _, _, _ = sw.Step(keys[:0], w[0], w[1])
		})
		if allocs != 0 {
			t.Errorf("window [%v,%v): %v allocs per candidate query, want 0", w[0], w[1], allocs)
		}
	}
}

// BenchmarkScanAPSetWindow measures window assembly on a city-shaped
// store: 5,000 devices with about 100 records each over 560 s, queried
// with 45 s windows at random times (about 8 matches each).
func BenchmarkScanAPSetWindow(b *testing.B) {
	const (
		devices = 5000
		perDev  = 100
		span    = 560.0
		window  = 45.0
	)
	rng := rand.New(rand.NewSource(1))
	s := NewStore()
	devs := make([]dot11.MAC, devices)
	for d := range devs {
		devs[d] = dot11.MAC{0xDD, byte(d >> 16), byte(d >> 8), byte(d), 0, 1}
		times := make([]float64, perDev)
		for i := range times {
			times[i] = rng.Float64() * span
		}
		slices.Sort(times)
		recs := make([]Record, perDev)
		for i, t := range times {
			ap := rng.Intn(30) + d%200
			recs[i] = Record{TimeSec: t, Device: devs[d], AP: dot11.MAC{0xA0, 0, 0, 0, byte(ap >> 8), byte(ap)}, Kind: KindProbeResponse}
		}
		s.IngestBatch(recs)
	}
	starts := make([]float64, 4096)
	for i := range starts {
		starts[i] = rng.Float64() * (span - window)
	}
	dst := make([]dot11.MAC, 0, 64)
	matched := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := starts[i%len(starts)]
		var n int
		dst, n, _ = s.ScanAPSetWindow(dst[:0], devs[i%devices], t, t+window)
		matched += n
	}
	b.ReportMetric(float64(matched)/float64(b.N), "matches/op")
}

// FuzzSweep drives one Sweep over a random log through random windows
// and checks every Step's Γ and match count against ScanAPSetWindow at
// that moment and against the naive model. Windows mostly advance, and
// sometimes jump to an out-of-range or non-finite time, backwards too.
// Records are ingested between Steps, out of order too, and a control
// bit re-sorts the log through another query before a Step, so the sweep
// must stay exact across a re-sort it did not make. The input is 3-byte records
// (time, AP, control) followed by 3-byte steps (start advance, width,
// control). A record whose control has bit 7 set is held back until a
// Step ingests it, the rest are in the store before the sweep begins;
// control bit 0 of a step ingests the next held-back record first, and
// bit 1 re-sorts the log through ScanAPSetWindow before the Step.
func FuzzSweep(f *testing.F) {
	f.Add([]byte{10, 1, 0, 20, 2, 0, 30, 3, 0, 0, 0, 0, 5, 15, 0, 5, 15, 0, 0, 15, 0, 10, 20, 0})
	// A record behind the tail arrives between steps, and another query
	// re-sorts the log before the sweep's next step.
	f.Add([]byte{10, 1, 0, 40, 2, 0, 20, 3, 0x80, 5, 4, 0x80, 0, 0, 0, 0, 30, 0, 5, 30, 3, 0, 30, 3, 10, 50, 1})
	f.Add([]byte{255, 1, 0, 254, 2, 0, 253, 3, 0x80, 7, 4, 0x80, 7, 5, 0, 0, 0, 0, 0, 251, 1, 0, 252, 3, 3, 9, 2})
	// The device is first heard after the sweep began.
	f.Add([]byte{10, 1, 0x80, 20, 2, 0x80, 30, 3, 0x80, 0, 15, 0, 5, 15, 1, 5, 15, 1, 5, 15, 1})
	// A window jumps back before the records the sweep has passed.
	f.Add([]byte{5, 1, 0, 10, 2, 0, 30, 3, 0, 20, 15, 0, 251, 0, 0, 10, 10, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		half := len(data) / 2 / 3 * 3
		var (
			recs, later []Record
			held        []bool
		)
		for b := data[:half]; len(b) >= 3; b = b[3:] {
			recs = append(recs, Record{TimeSec: fuzzTime(b[0]), AP: fuzzAP(b[1]), Kind: Kind(b[2] % 5)})
			held = append(held, b[2]&0x80 != 0)
		}
		steps := data[half:]
		if len(steps) > 3*256 {
			steps = steps[:3*256]
		}
		dev := dot11.MAC{0xDD}
		s := NewStoreShards(2)
		ref := &refDevice{}
		ingest := func(r Record) {
			r.Device = dev
			s.IngestBatch([]Record{r})
			ref.add(r)
		}
		for i, r := range recs {
			if held[i] {
				later = append(later, r)
			} else {
				ingest(r)
			}
		}
		w := s.Sweep(dev)
		var keys []uint64
		start, end := math.Inf(-1), math.Inf(-1)
		for i := 0; len(steps) >= 3; steps, i = steps[3:], i+1 {
			ctl := steps[2]
			if ctl&1 != 0 && len(later) > 0 {
				ingest(later[0])
				later = later[1:]
			}
			if ctl&2 != 0 {
				s.ScanAPSetWindow(nil, dev, 0, 1)
				ref.window(0, 1)
			}
			// Both bounds advance by whole seconds, or jump to an
			// out-of-range or non-finite time.
			if i == 0 || steps[0] >= 250 {
				start = fuzzTime(steps[0])
			} else {
				start += float64(steps[0] % 16)
			}
			if steps[1] >= 250 {
				end = fuzzTime(steps[1])
			} else {
				end = max(end, start) + float64(steps[1]%16)
			}
			var n int
			var resorted bool
			keys, n, resorted, _ = w.Step(keys, start, end)
			got := dot11.AppendFromKeys(nil, keys)
			wantG, wantN, wantR := ref.window(start, end)
			if !slices.Equal(got, wantG) || n != wantN || resorted != wantR {
				t.Fatalf("step %d [%v, %v): Γ %v, %d records, resorted %v; want %v, %d, %v",
					i, start, end, got, n, resorted, wantG, wantN, wantR)
			}
			scanG, scanN, scanR := s.ScanAPSetWindow(nil, dev, start, end)
			if !slices.Equal(got, scanG) || n != scanN || scanR {
				t.Fatalf("step %d [%v, %v): Γ %v, %d records; ScanAPSetWindow says %v, %d (resorted %v)",
					i, start, end, got, n, scanG, scanN, scanR)
			}
		}
	})
}
