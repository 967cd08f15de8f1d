package obs

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dot11"
)

// The sharding correctness property: a sharded store fed a capture stream
// must be observably identical to a single-shard store fed the same
// stream — for every query surface, including out-of-order ingest, mixed
// single/batched delivery, and interleaved window queries (which flip the
// per-device re-sort state). Save output must be byte-identical too.

// randomStream generates a deterministic pseudo-random capture stream:
// probe requests (with SSIDs), probe responses, associations, beacons,
// and junk, over nDev devices and nAP APs, with ~20% out-of-order
// timestamps and occasional NaN times.
func randomStream(rng *rand.Rand, n, nDev, nAP int) []FrameCapture {
	devs := make([]dot11.MAC, nDev)
	for i := range devs {
		devs[i] = dot11.MAC{0xDD, byte(rng.Intn(256)), 0, 0, byte(i >> 8), byte(i)}
	}
	aps := make([]dot11.MAC, nAP)
	for i := range aps {
		aps[i] = dot11.MAC{0xA0, byte(rng.Intn(256)), 0, 0, byte(i >> 8), byte(i)}
	}
	out := make([]FrameCapture, 0, n)
	clock := 0.0
	for i := 0; i < n; i++ {
		clock += rng.Float64() * 5
		t := clock
		switch {
		case rng.Float64() < 0.2:
			t -= rng.Float64() * 50 // out of order
		case rng.Float64() < 0.02:
			t = math.NaN()
		}
		dev := devs[rng.Intn(len(devs))]
		ap := aps[rng.Intn(len(aps))]
		var c FrameCapture
		switch rng.Intn(5) {
		case 0:
			ssid := ""
			if rng.Float64() < 0.7 {
				ssid = fmt.Sprintf("net-%d", rng.Intn(6))
			}
			c = FrameCapture{TimeSec: t, Frame: dot11.NewProbeRequest(dev, ssid, uint16(i))}
		case 1, 2:
			c = FrameCapture{TimeSec: t, Frame: dot11.NewProbeResponse(ap, dev, "x", 6, uint16(i)), FromAP: true}
		case 3:
			c = FrameCapture{TimeSec: t, Frame: &dot11.Frame{
				Type: dot11.TypeManagement, Subtype: dot11.SubtypeAssocReq,
				Addr1: ap, Addr2: dev, Addr3: ap, Seq: uint16(i),
			}}
		case 4:
			c = FrameCapture{TimeSec: t, Frame: dot11.NewBeacon(ap, "b", 1, 0, uint16(i)), FromAP: rng.Float64() < 0.5}
		}
		out = append(out, c)
	}
	return out
}

// feed delivers the stream identically to every store: a mix of
// single-frame ingest, frame batches and record batches, with window
// queries interleaved so some device logs get re-sorted mid-stream.
func feed(rng *rand.Rand, stream []FrameCapture, stores ...*Store) {
	i := 0
	for i < len(stream) {
		switch rng.Intn(4) {
		case 0: // single frame
			for _, s := range stores {
				s.Ingest(stream[i].TimeSec, stream[i].Frame, stream[i].FromAP)
			}
			i++
		case 1, 2: // frame batch
			n := 1 + rng.Intn(40)
			if i+n > len(stream) {
				n = len(stream) - i
			}
			for _, s := range stores {
				s.IngestFrames(stream[i : i+n])
			}
			i += n
		case 3: // record batch
			n := 1 + rng.Intn(10)
			recs := make([]Record, n)
			for j := range recs {
				recs[j] = Record{
					TimeSec: rng.Float64() * 500,
					Device:  dot11.MAC{0xEE, 0, 0, 0, 0, byte(rng.Intn(8))},
					AP:      dot11.MAC{0xA0, 0, 0, 0, 0, byte(rng.Intn(8))},
					Kind:    Kind(1 + rng.Intn(4)),
				}
			}
			for _, s := range stores {
				s.IngestBatch(recs)
			}
		}
		// Interleaved queries dirty-check and re-sort some logs.
		if rng.Float64() < 0.3 {
			dev := dot11.MAC{0xDD, 0, 0, 0, 0, byte(rng.Intn(8))}
			start := rng.Float64() * 400
			for _, s := range stores {
				s.APSetWindow(dev, start, start+50)
			}
		}
	}
}

func TestShardedEquivalentToSingleShard(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		stream := randomStream(rng, 1500, 24, 12)
		single := NewStoreShards(1)
		sharded := NewStoreShards(8)
		feed(rand.New(rand.NewSource(seed*7+1)), stream, single, sharded)

		if a, b := single.Len(), sharded.Len(); a != b {
			t.Fatalf("seed %d: Len %d != %d", seed, a, b)
		}
		if !reflect.DeepEqual(single.Devices(), sharded.Devices()) {
			t.Fatalf("seed %d: Devices differ", seed)
		}
		if !reflect.DeepEqual(single.ProbingDevices(), sharded.ProbingDevices()) {
			t.Fatalf("seed %d: ProbingDevices differ", seed)
		}
		if !reflect.DeepEqual(single.APs(), sharded.APs()) {
			t.Fatalf("seed %d: APs differ", seed)
		}
		if !reflect.DeepEqual(single.DeviceAPSets(), sharded.DeviceAPSets()) {
			t.Fatalf("seed %d: DeviceAPSets differ", seed)
		}
		for _, dev := range single.Devices() {
			for w := 0; w < 8; w++ {
				start := float64(w) * 60
				a := single.APSetWindow(dev, start, start+60)
				b := sharded.APSetWindow(dev, start, start+60)
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("seed %d: window [%v,%v) for %v: %v != %v", seed, start, start+60, dev, a, b)
				}
			}
			if !reflect.DeepEqual(single.APSet(dev), sharded.APSet(dev)) {
				t.Fatalf("seed %d: APSet(%v) differs", seed, dev)
			}
			if !reflect.DeepEqual(single.FingerprintOf(dev), sharded.FingerprintOf(dev)) {
				t.Fatalf("seed %d: FingerprintOf(%v) differs", seed, dev)
			}
		}
		// The co-observation index must match per device. NaN-timestamped
		// records defeat DeepEqual (NaN != NaN), so compare via string form.
		ia, ib := single.CoObservationIndex(), sharded.CoObservationIndex()
		if len(ia) != len(ib) {
			t.Fatalf("seed %d: CoObservationIndex sizes %d != %d", seed, len(ia), len(ib))
		}
		for dev := range ia {
			if fmt.Sprint(ia[dev]) != fmt.Sprint(ib[dev]) {
				t.Fatalf("seed %d: CoObservationIndex(%v) differs:\n%v\n%v", seed, dev, ia[dev], ib[dev])
			}
		}
		// Save is JSON and rejects NaN timestamps (on any shard count), so
		// the byte-equality check runs on the NaN-free records.
		clean := stream[:0:0]
		for _, c := range stream {
			if !math.IsNaN(c.TimeSec) {
				clean = append(clean, c)
			}
		}
		s1, s8 := NewStoreShards(1), NewStoreShards(8)
		feed(rand.New(rand.NewSource(seed*7+1)), clean, s1, s8)
		var sa, sb bytes.Buffer
		if err := s1.Save(&sa); err != nil {
			t.Fatal(err)
		}
		if err := s8.Save(&sb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sa.Bytes(), sb.Bytes()) {
			t.Fatalf("seed %d: Save output differs between shard counts", seed)
		}
	}
}

// LinkPseudonyms is a pure function of the fingerprint sets, which the
// equivalence above already pins; this checks the cross-shard MAC gather
// directly on a small case.
func TestLinkPseudonymsSharded(t *testing.T) {
	single := NewStoreShards(1)
	sharded := NewStoreShards(8)
	for _, s := range []*Store{single, sharded} {
		for i := byte(0); i < 6; i++ {
			for _, ssid := range []string{"alpha", "beta", fmt.Sprintf("own-%d", i%3)} {
				s.Ingest(float64(i), dot11.NewProbeRequest(mac(i), ssid, 1), false)
			}
		}
	}
	if a, b := single.LinkPseudonyms(0.5), sharded.LinkPseudonyms(0.5); !reflect.DeepEqual(a, b) {
		t.Fatalf("LinkPseudonyms differ:\n%v\n%v", a, b)
	}
}
