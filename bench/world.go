package main

import (
	"cmp"
	"errors"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dot11"
	"repro/internal/faults"
	"repro/internal/geom"
	"repro/internal/rf"
	"repro/internal/sim"
	"repro/internal/sniffer"
)

// scale sizes the worlds and the run's untimed phases. fullScale is the
// benchmark; smokeScale is the same code at a size the tests can afford.
type scale struct {
	campusDevices, campusAPs int
	campusFrom, campusTo     float64 // sim seconds of day 0 (office hours)
	campusFrames             int     // captures the campus pool keeps
	cityDevices, cityAPs     int
	citySpan                 float64 // sim seconds of city traffic
	cityPreload              float64 // sim seconds live_map preloads as history
	warmup                   time.Duration
	setupReps                int
	trackSamples             int // Track calls checked against the reference
}

var (
	fullScale = scale{
		campusDevices: 200, campusAPs: 300,
		campusFrom: 8 * 3600, campusTo: 13 * 3600, campusFrames: 180000,
		cityDevices: 5000, cityAPs: 750,
		citySpan: 600, cityPreload: 120,
		warmup: 2 * time.Second, setupReps: 5, trackSamples: 8,
	}
	smokeScale = scale{
		campusDevices: 40, campusAPs: 60,
		campusFrom: 8 * 3600, campusTo: 9 * 3600, campusFrames: 10000,
		cityDevices: 300, cityAPs: 100,
		citySpan: 120, cityPreload: 24,
		warmup: 200 * time.Millisecond, setupReps: 1, trackSamples: 2,
	}
)

const (
	// cityStart is the sim clock at which city traffic begins (10:00), so
	// every fault of faults.Aggressive is already active.
	cityStart = 10 * 3600
	// windowSec is cmd/marauder's engine window.
	windowSec = 45
	// batchFrames is the capture count of one wire batch.
	batchFrames = 256
)

// world is one deterministic rig world: the attacker's AP knowledge and
// the fleet's captures of the world's traffic, in time order.
type world struct {
	infos    []core.APInfo
	caps     []sniffer.Capture
	from, to float64 // sim span of the traffic
	aps      int
}

// area is a square holding aps APs at the campus density of 300 APs over
// 700 m × 700 m.
func area(aps int) (min, max geom.Point) {
	half := 350 * math.Sqrt(float64(aps)/300)
	return geom.Pt(-half, -half), geom.Pt(half, half)
}

// newSimWorld deploys APs uniformly and places the default device mix;
// every 8th device walks a random-waypoint route for mobileSec seconds, as
// in cmd/soak.
func newSimWorld(seed int64, devices, aps int, mobileSec float64) (*sim.World, []core.APInfo, error) {
	w := sim.NewWorld(seed)
	min, max := area(aps)
	deployed, err := sim.UniformDeployment(sim.DeploymentConfig{
		N: aps, Min: min, Max: max, RangeMin: 70, RangeMax: 130,
	}, w.RNG())
	if err != nil {
		return nil, nil, err
	}
	w.APs = deployed
	for i, d := range sim.DefaultPopulation(devices, min, max, w.RNG()) {
		if i%8 == 0 {
			d.Mobility = sim.NewRandomWaypoint(min, max, 1.2, mobileSec, seed+int64(i))
		}
		w.AddDevice(d)
	}
	infos := make([]core.APInfo, 0, len(deployed))
	for _, ap := range deployed {
		infos = append(infos, core.APInfo{BSSID: ap.MAC, Pos: ap.Pos, MaxRange: ap.MaxRange})
	}
	return w, infos, nil
}

// fleet places a 2×2 sniffer grid across the area holding aps APs.
func fleet(aps int, plan *faults.Plan) *sniffer.Fleet {
	const k = 2
	min, max := area(aps)
	configs := make([]sniffer.Config, 0, k*k)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			configs = append(configs, sniffer.Config{
				Pos: geom.Pt(
					min.X+(float64(i)+0.5)*(max.X-min.X)/k,
					min.Y+(float64(j)+0.5)*(max.Y-min.Y)/k,
				),
				Chain:  rf.ChainLNA(),
				Plan:   dot11.DefaultPlan(),
				Faults: plan,
			})
		}
	}
	return sniffer.NewFleet(configs...)
}

// genCampus is the office campus: one weekday of sim.OfficeTraceDay
// traffic from the start of office hours, cut to its first campusFrames
// captures. A fixed capture count keeps the store the same size whatever
// the seed.
func genCampus(sc scale, seed int64) (*world, error) {
	w, infos, err := newSimWorld(seed, sc.campusDevices, sc.campusAPs, sc.campusTo+3600)
	if err != nil {
		return nil, err
	}
	day := sim.OfficeTraceDay(w, 0, true, w.RNG())
	events := day[:0]
	for _, ev := range day {
		if ev.TimeSec >= sc.campusFrom && ev.TimeSec < sc.campusTo {
			events = append(events, ev)
		}
	}
	const chunk = 4096
	caps := captureEach(fleet(sc.campusAPs, nil), (len(events)+chunk-1)/chunk, func(i int) []sim.TxEvent {
		return events[i*chunk : min((i+1)*chunk, len(events))]
	})
	if len(caps) == 0 {
		return nil, errors.New("the campus fleet captured nothing")
	}
	caps = caps[:min(len(caps), sc.campusFrames)]
	to := math.Nextafter(caps[len(caps)-1].TimeSec, math.Inf(1))
	return &world{infos: infos, caps: caps, from: sc.campusFrom, to: to, aps: sc.campusAPs}, nil
}

// genCity is the city: every device scans (sim.ScanBurst) or chats with
// its AP (sim.AssociatedChatter) at its profile's pace for span seconds
// from cityStart. plan, when set, faults the fleet's monitoring cards.
func genCity(sc scale, seed int64, span float64, plan *faults.Plan) (*world, error) {
	w, infos, err := newSimWorld(seed, sc.cityDevices, sc.cityAPs, span+3600)
	if err != nil {
		return nil, err
	}
	from, to := float64(cityStart), cityStart+span
	type burst struct {
		dev *sim.Device
		t   float64
		seq uint16
	}
	var bursts []burst
	rng := w.RNG()
	for _, d := range w.Devices {
		interval := d.Profile.ProbeIntervalSec
		if !d.Profile.Probes {
			interval = 1200 // quiet devices chat a few times an hour
		}
		seq := uint16(1)
		for t := from + interval*rng.Float64(); t < to; t += interval * (0.5 + rng.Float64()) {
			bursts = append(bursts, burst{d, t, seq})
			seq++
		}
	}
	caps := captureEach(fleet(sc.cityAPs, plan), len(bursts), func(i int) []sim.TxEvent {
		b := bursts[i]
		pos := b.dev.PosAt(b.t - from)
		if b.dev.Profile.Probes {
			return sim.ScanBurst(w, b.dev, b.t, pos, b.seq)
		}
		return sim.AssociatedChatter(w, b.dev, b.t, pos, b.seq)
	})
	slices.SortStableFunc(caps, func(a, b sniffer.Capture) int { return cmp.Compare(a.TimeSec, b.TimeSec) })
	return &world{infos: infos, caps: caps, from: from, to: to, aps: sc.cityAPs}, nil
}

// captureEach runs the events of n transmission groups past the fleet,
// spreading the groups over every core, and returns the captures in group
// order. Fleet.TryCapture is safe for concurrent use, and whether it
// captures a frame does not depend on the order it sees frames in.
func captureEach(f *sniffer.Fleet, n int, events func(i int) []sim.TxEvent) []sniffer.Capture {
	parts := make([][]sniffer.Capture, runtime.GOMAXPROCS(0))
	per := (n + len(parts) - 1) / len(parts)
	var wg sync.WaitGroup
	for p := range parts {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := p * per; i < min((p+1)*per, n); i++ {
				for _, ev := range events(i) {
					if c, ok := f.TryCapture(ev); ok {
						parts[p] = append(parts[p], c)
					}
				}
			}
		}(p)
	}
	wg.Wait()
	return slices.Concat(parts...)
}

// cutBySize splits caps into consecutive batches of at most n captures.
// The batches share caps' backing array.
func cutBySize(caps []sniffer.Capture, n int) [][]sniffer.Capture {
	out := make([][]sniffer.Capture, 0, (len(caps)+n-1)/n)
	for len(caps) > 0 {
		k := min(n, len(caps))
		out = append(out, caps[:k:k])
		caps = caps[k:]
	}
	return out
}

// liveBatch is one open-loop delivery: what the fault injector handed on
// for one slice of sim time, and the sim time the slice ends at.
type liveBatch struct {
	caps   []sniffer.Capture
	simEnd float64
}

// deliverLive cuts caps into stepSec slices of sim time from `from` and
// passes each through the fault injector, which drops, corrupts,
// duplicates, reorders, skews and delays them as the plan says. Slices
// the injector holds back come out with a later slice.
func deliverLive(caps []sniffer.Capture, from, to, stepSec float64, plan *faults.Plan) []liveBatch {
	inj := &sniffer.FaultInjector{Plan: plan}
	var out []liveBatch
	i := 0
	for k := 1; ; k++ {
		end := from + float64(k)*stepSec
		j := i
		for j < len(caps) && caps[j].TimeSec < end {
			j++
		}
		out = append(out, liveBatch{caps: inj.Apply(caps[i:j:j]), simEnd: end})
		i = j
		if end >= to && i == len(caps) {
			break
		}
	}
	if held := inj.Drain(); len(held) > 0 {
		out = append(out, liveBatch{caps: held, simEnd: out[len(out)-1].simEnd})
	}
	return out
}
