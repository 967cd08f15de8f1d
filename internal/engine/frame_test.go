package engine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dot11"
	"repro/internal/geom"
	"repro/internal/obs"
)

// idleWorld is a map-frame world where most devices are silent in any one
// window: one device in five reports every few seconds over [0, span);
// the rest report a short burst at one random time and are idle
// otherwise. Every record names an AP in range of the device's fixed
// position. With odd set, a few devices also carry records at NaN, ±Inf
// and ±1e18 s, times the time index cannot bucket. The records come back
// shuffled, as batches from many capture agents would arrive.
func idleWorld(nDevs int, odd bool, rng *rand.Rand) (core.Knowledge, []obs.Record) {
	const side, spacing, reach, span = 10, 70.0, 100.0, 400.0
	var aps []core.APInfo
	for i := 0; i < side*side; i++ {
		pos := geom.Pt(float64(i%side)*spacing-315, float64(i/side)*spacing-315)
		aps = append(aps, core.APInfo{BSSID: mac(0xA0, byte(i)), Pos: pos, MaxRange: reach})
	}
	var recs []obs.Record
	for d := 0; d < nDevs; d++ {
		dev := mac(0xD0+byte(d/200), byte(d%200))
		pos := geom.Pt(rng.Float64()*630-315, rng.Float64()*630-315)
		var heard []dot11.MAC
		for _, ap := range aps {
			if ap.Pos.Dist(pos) <= ap.MaxRange {
				heard = append(heard, ap.BSSID)
			}
		}
		if len(heard) == 0 {
			continue
		}
		add := func(t float64) {
			ap := heard[rng.Intn(len(heard))]
			recs = append(recs, obs.Record{TimeSec: t, Device: dev, AP: ap, Kind: obs.KindProbeResponse})
		}
		if d%5 == 0 {
			for t := rng.Float64() * 5; t < span; t += 1 + rng.Float64()*6 {
				add(t)
			}
		} else {
			t0 := rng.Float64() * span
			for i := 0; i < 3; i++ {
				add(t0 + rng.Float64()*10)
			}
		}
		if odd && d%37 == 1 {
			for _, t := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e18, -1e18} {
				add(t)
			}
		}
	}
	rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	return core.NewKnowledge(aps), recs
}

// frameWindows are the [start, end) ranges the frame checks draw: 48 s
// windows with both bounds on bucket edges and between them, wider ones up
// to one that walks every bucket of the world, non-finite and out-of-range
// bounds, and an empty one.
var frameWindows = [][2]float64{
	{136, 184}, {0, 48}, {-24, 24}, {179.5, 227.5}, {376, 424}, {13, 13.5},
	{64, 64 + 32*obs.BucketSec}, {0, 1000}, {-1e9, 1e9},
	{math.Inf(-1), math.Inf(1)}, {math.NaN(), 100}, {100, math.NaN()},
	{1e18, math.Inf(1)}, {-2e18, 50}, {200, 100},
}

// perDeviceFrame is a map frame the slow way: FixRange for every device
// Store().Devices() lists, keeping the ones that locate.
func perDeviceFrame(e *Engine, start, end float64) map[dot11.MAC]core.Estimate {
	out := map[dot11.MAC]core.Estimate{}
	for _, dev := range e.Store().Devices() {
		if est, err := e.FixRange(dev, start, end); err == nil {
			out[dev] = est
		}
	}
	return out
}

// TestSnapshotMatchesPerDeviceFixes holds a map frame, which localizes
// only the time index's candidates, to the per-device definition it
// replaces: Fix over every device ever seen. The world is mostly idle, is
// ingested in shuffled batches with frames between them (so logs go dirty
// and get re-sorted), and carries records at NaN, ±Inf and huge times.
// Windows cover bucket edges, wide spans, and non-finite bounds; engines
// cover cache on and off and one or several workers. The bench's
// reference engine shares the index, so this is the check that would see
// a dropped device.
func TestSnapshotMatchesPerDeviceFixes(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	k, recs := idleWorld(900, true, rng)
	store := obs.NewStoreShards(4)
	ref := testEngine(t, Config{Know: k, Store: store, WindowSec: 48, Workers: 1, CacheSize: -1})
	type cfg struct{ workers, cacheSize int }
	cfgs := []cfg{{1, -1}, {1, 0}, {4, -1}, {4, 0}}
	engines := make([]*Engine, len(cfgs))
	for i, c := range cfgs {
		engines[i] = testEngine(t, Config{Know: k, Store: store, WindowSec: 48, Workers: c.workers, CacheSize: c.cacheSize})
	}
	const batch = 250
	for round, lo := 0, 0; lo < len(recs); round, lo = round+1, lo+2*batch {
		for i := lo; i < min(lo+2*batch, len(recs)); i += batch {
			store.IngestBatch(recs[i:min(i+batch, len(recs))])
		}
		for _, w := range frameWindows {
			want := perDeviceFrame(ref, w[0], w[1])
			for i, e := range engines {
				if got := e.SnapshotRange(w[0], w[1]); !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d window %v workers=%d cache=%d: frame of %d devices, per-device fixes locate %d%s",
						round, w, cfgs[i].workers, cfgs[i].cacheSize, len(got), len(want), frameDiff(got, want))
				}
			}
		}
	}
	devs := len(store.Devices())
	before := engines[0].Stats().Fixes
	located := len(engines[0].Snapshot(160))
	fixes := int(engines[0].Stats().Fixes - before)
	if located == 0 || fixes >= devs/2 {
		t.Errorf("idle-majority frame: %d fixes for %d located of %d devices, want fewer than half the devices", fixes, located, devs)
	}
}

// frameDiff names the first device two frames disagree on.
func frameDiff(got, want map[dot11.MAC]core.Estimate) string {
	for dev, w := range want {
		if g, ok := got[dev]; !ok {
			return fmt.Sprintf(": %v missing", dev)
		} else if !reflect.DeepEqual(g, w) {
			return fmt.Sprintf(": %v at %v, want %v", dev, g.Pos, w.Pos)
		}
	}
	for dev := range got {
		if _, ok := want[dev]; !ok {
			return fmt.Sprintf(": %v not wanted", dev)
		}
	}
	return ""
}

// TestRecoveredStoreFramesMatch checks that a store read back from a
// checkpoint, whose time index Load rebuilds record by record, serves the
// same map frames as the live store it was taken from, both equal to
// per-device fixes. The live store was
// fed shuffled batches, so its logs were dirty when it was saved; the
// recovered one loads them in time order. Then the last shuffled batches
// reach both stores out of order, and the frames must still agree.
// Records stay finite: the checkpoint is JSON.
func TestRecoveredStoreFramesMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	k, recs := idleWorld(600, false, rng)
	recs = append(recs, obs.Record{TimeSec: 1e18, Device: mac(0xD0, 1), AP: mac(0xA0, 0), Kind: obs.KindProbeResponse})
	late := recs[len(recs)*3/4:]
	recs = recs[:len(recs)*3/4]
	live := obs.NewStoreShards(2)
	for i := 0; i < len(recs); i += 300 {
		live.IngestBatch(recs[i:min(i+300, len(recs))])
	}
	dir := t.TempDir()
	if _, err := obs.WriteCheckpoint(dir, 1, live, nil); err != nil {
		t.Fatal(err)
	}
	read, _, err := obs.ReadCheckpoint(obs.CheckpointPath(dir, 1), 3)
	if err != nil {
		t.Fatal(err)
	}
	recovered, _, err := obs.Recover(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	liveEng := testEngine(t, Config{Know: k, Store: live, WindowSec: 48, Workers: 2})
	engines := []*Engine{
		testEngine(t, Config{Know: k, Store: read, WindowSec: 48, Workers: 2}),
		testEngine(t, Config{Know: k, Store: recovered, WindowSec: 48, Workers: 2}),
	}
	for _, stage := range []string{"recovered", "after late ingest"} {
		if stage != "recovered" {
			for _, s := range []*obs.Store{live, read, recovered} {
				s.IngestBatch(late)
			}
		}
		for _, w := range frameWindows {
			want := perDeviceFrame(liveEng, w[0], w[1])
			for _, e := range append([]*Engine{liveEng}, engines...) {
				if got := e.SnapshotRange(w[0], w[1]); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s, %d shards, window %v: frame of %d devices, live %d%s",
						stage, e.Store().ShardCount(), w, len(got), len(want), frameDiff(got, want))
				}
			}
		}
	}
}
