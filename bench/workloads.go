package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dot11"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/sniffer"
)

// workload is one traffic mix. gen builds the rig before any clock runs;
// setup readies a fresh pipeline (timed as setup_s); run is the warm-up
// and the timed phase; verify checks the outputs once the load stops.
type workload struct {
	name string
	why  string
	// item is what throughput_per_s counts; the as* fields name the
	// end-to-end metrics as this workload defines them.
	item, asThroughput, asCPU, asLatency string
	gen                                  func(cfg config) (*rig, error)
	setup                                func(ctx context.Context, r *runner) error
	run                                  func(ctx context.Context, r *runner) error
	verify                               func(ctx context.Context, r *runner, ref *engine.Engine)
}

// rig is a workload's pre-generated input. Its captures live in mem,
// off the heap; the world keeps none once the rig is built.
type rig struct {
	w       *world
	mem     offHeap
	preload [][]sniffer.Capture // history streamed in during set-up
	pool    [][]sniffer.Capture // wire_saturate: one cycle of batches
	live    []liveBatch         // live_map: open-loop deliveries
	devs    []dot11.MAC         // track_churn: located devices
}

// batches moves caps off the heap and cuts them into wire batches.
func (rg *rig) batches(caps []sniffer.Capture) ([][]sniffer.Capture, error) {
	moved, err := rg.mem.captures(caps)
	if err != nil {
		return nil, err
	}
	return cutBySize(moved, batchFrames), nil
}

var workloads = []*workload{
	{
		name:         "wire_saturate",
		why:          "one agent streams the campus through capwire as fast as the engine acks; nearly all work is wire, engine ingest and obs ingest",
		item:         "frames ingested",
		asThroughput: "ingest_fps", asCPU: "cpu_ns_per_frame", asLatency: "batch_ms",
		gen:    genWire,
		setup:  setupWire,
		run:    runWire,
		verify: verifyWire,
	},
	{
		name:         "live_map",
		why:          "open-loop faulted city captures at 30 sim-s per s while one client loops the map; writes and reads contend, so it shows freshness",
		item:         "map frames served",
		asThroughput: "map_frames_per_s", asCPU: "cpu_ns_per_map_frame", asLatency: "freshness_ms",
		gen:    genLive,
		setup:  func(ctx context.Context, r *runner) error { return r.p.preload(ctx, r.rig.preload) },
		run:    runLive,
		verify: verifyLive,
	},
	{
		name:         "city_frames",
		why:          "closed-loop map frames over a preloaded city store; all work is snapshot fan-out, windows, M-Loc, the Gamma cache and map encode",
		item:         "devices located",
		asThroughput: "fixes_per_s", asCPU: "cpu_ns_per_fix", asLatency: "frame_ms",
		gen:    genCityRig,
		setup:  func(ctx context.Context, r *runner) error { return r.p.preload(ctx, r.rig.preload) },
		run:    runCityFrames,
		verify: verifyCityFrames,
	},
	{
		name:         "track_churn",
		why:          "closed-loop Track over every located city device across the span; exercises the incremental region kernel and bypasses fan-out and mapserver",
		item:         "trajectory points",
		asThroughput: "fixes_per_s", asCPU: "cpu_ns_per_fix", asLatency: "track_ms",
		gen:    genCityRig,
		setup:  setupTrack,
		run:    runTrack,
		verify: verifyTrack,
	},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// --- wire_saturate -------------------------------------------------------

func genWire(cfg config) (*rig, error) {
	w, err := genCampus(cfg.sc, cfg.seed)
	if err != nil {
		return nil, err
	}
	rg := &rig{w: w}
	rg.pool, err = rg.batches(w.caps)
	w.caps = nil
	return rg, err
}

// setupWire preloads one cycle of the campus pool. The benchmark replays
// the pool in cycles, each shifted one pool span later in sim time,
// and the ingest callback resets the store when a new cycle arrives, so
// the store holds at most one cycle and memory stays flat however fast
// ingest runs.
func setupWire(ctx context.Context, r *runner) error {
	w, p := r.rig.w, r.p
	span := w.to - w.from
	cur := 0 // only the ingest callback touches it; capwire serializes calls
	p.reset = func(caps []sniffer.Capture) {
		if c := int((caps[0].TimeSec - w.from) / span); c > cur {
			cur = c
			p.resetStores()
		}
	}
	return p.preload(ctx, r.rig.pool)
}

// runWire streams cycles after the preloaded one until the timed phase
// ends, then finishes its cycle, so the store ends holding exactly one
// full cycle.
func runWire(ctx context.Context, r *runner) error {
	w := r.rig.w
	span := w.to - w.from
	r.items = &r.p.ingested
	first := len(r.p.sendAt)
	batch := make([]sniffer.Capture, 0, batchFrames)
	err := r.drive(func(stop <-chan struct{}) error {
		for c := 1; ; c++ {
			shift := float64(c) * span
			for _, b := range r.rig.pool {
				batch = append(batch[:0], b...)
				for i := range batch {
					batch[i].TimeSec += shift
				}
				r.ops.Add(1)
				if err := r.p.send(ctx, batch); err != nil {
					r.fail(err)
					return err
				}
			}
			r.lastCycle = c
			select {
			case <-stop:
				return nil
			default:
			}
		}
	})
	if ferr := r.p.flush(ctx); ferr != nil {
		r.fail(ferr)
		err = errors.Join(err, ferr)
	}
	r.p.mu.Lock()
	for k := first; k < len(r.p.sendAt) && k < len(r.p.ingestedAt); k++ {
		done := r.p.ingestedAt[k]
		r.lat = append(r.lat, sample{at: done, ms: ms(done.sub(r.p.sendAt[k]))})
	}
	r.p.mu.Unlock()
	return err
}

func verifyWire(ctx context.Context, r *runner, ref *engine.Engine) {
	w := r.rig.w
	span := w.to - w.from
	base := w.from + float64(r.lastCycle)*span
	r.checkFrames(ref, base+span/4, base+span/2, base+3*span/4)
}

// --- live_map ------------------------------------------------------------

const (
	// liveTick is the open-loop send period; liveSpeed the sim seconds it
	// covers per wall second.
	liveTick  = 20 * time.Millisecond
	liveSpeed = 30
)

func genLive(cfg config) (*rig, error) {
	// Enough city for the preload, the warm-up and the timed phase, plus
	// a margin so the open loop never runs dry.
	span := cfg.sc.cityPreload + liveSpeed*(cfg.sc.warmup.Seconds()+float64(cfg.seconds)) + 30
	plan := faults.Aggressive(cfg.seed)
	w, err := genCity(cfg.sc, cfg.seed, span, plan)
	if err != nil {
		return nil, err
	}
	all := deliverLive(w.caps, w.from, w.to, liveSpeed*liveTick.Seconds(), plan)
	w.caps = nil
	rg := &rig{w: w}
	for i := range all {
		b := &all[i]
		if b.caps, err = rg.mem.captures(b.caps); err != nil {
			return nil, err
		}
		if b.simEnd <= w.from+cfg.sc.cityPreload {
			rg.preload = append(rg.preload, b.caps)
		} else if rg.live == nil {
			rg.live = all[i:]
		}
	}
	return rg, nil
}

// runLive sends one faulted delivery every 20 ms on a fixed schedule
// (open loop) while one map client loops Snapshot → PublishFrame → GET
// (closed loop). Freshness runs from a batch's due time to the end of
// the first response whose Snapshot began after the batch was ingested.
func runLive(ctx context.Context, r *runner) error {
	r.items = &r.count
	first := len(r.p.sendAt)
	var due, started, frameStart, frameEnd []stamp
	err := r.drive(
		func(stop <-chan struct{}) error { // writer
			begin := now()
			for k, b := range r.rig.live {
				at := begin + stamp(time.Duration(k)*liveTick)
				sleepUntil(at)
				select {
				case <-stop:
					return nil
				default:
				}
				if len(b.caps) == 0 {
					continue // the injector held this slice back
				}
				due = append(due, at)
				started = append(started, now())
				r.ops.Add(1)
				if err := r.p.send(ctx, b.caps); err != nil {
					r.fail(err)
					return err
				}
			}
			return nil
		},
		func(stop <-chan struct{}) error { // map client
			for {
				select {
				case <-stop:
					return nil
				default:
				}
				r.ops.Add(1)
				fr, err := r.p.frame(r.p.latestSim())
				if err != nil {
					r.fail(err)
					return err
				}
				frameStart, frameEnd = append(frameStart, fr.start), append(frameEnd, fr.end)
				r.count.Add(1)
				r.frameLat = append(r.frameLat, sample{at: fr.end, ms: ms(fr.end.sub(fr.start))})
			}
		},
	)
	if ferr := r.p.flush(ctx); ferr != nil {
		r.fail(ferr)
		err = errors.Join(err, ferr)
	}
	r.p.mu.Lock()
	ingested := append([]stamp(nil), r.p.ingestedAt[first:]...)
	r.p.mu.Unlock()
	r.lat = freshness(due, ingested, frameStart, frameEnd)
	r.late = lateness(due, started)
	return err
}

func verifyLive(ctx context.Context, r *runner, ref *engine.Engine) {
	r.checkFrames(ref, r.p.latestSim())
}

// --- city_frames ---------------------------------------------------------

func genCityRig(cfg config) (*rig, error) {
	w, err := genCity(cfg.sc, cfg.seed, cfg.sc.citySpan, nil)
	if err != nil {
		return nil, err
	}
	rg := &rig{w: w}
	rg.preload, err = rg.batches(w.caps)
	w.caps = nil
	return rg, err
}

// frameTime is the sim time of the i-th city frame: a golden-ratio walk
// over the span, so consecutive frames land far apart and a run covers
// the span evenly whatever its length.
func frameTime(w *world, i int) float64 {
	f := math.Mod(float64(i)*0.6180339887498949, 1)
	return w.from + windowSec/2 + f*(w.to-w.from-windowSec)
}

// keptFrames bounds the served frames kept for the reference check.
const keptFrames = 8

func runCityFrames(ctx context.Context, r *runner) error {
	r.items = &r.count
	return r.drive(func(stop <-chan struct{}) error {
		for i := 0; ; i++ {
			select {
			case <-stop:
				return nil
			default:
			}
			t := frameTime(r.rig.w, i)
			r.ops.Add(1)
			fr, err := r.p.frame(t)
			if err != nil {
				r.fail(err)
				return err
			}
			if i%shadowEvery == 0 && len(r.kept) < keptFrames {
				r.kept = append(r.kept, keptFrame{t: t, body: append([]byte(nil), fr.body...)})
			}
			r.count.Add(int64(fr.devices))
			r.lat = append(r.lat, sample{at: fr.end, ms: ms(fr.end.sub(fr.start))})
		}
	})
}

func verifyCityFrames(ctx context.Context, r *runner, ref *engine.Engine) {
	for _, k := range r.kept {
		r.ops.Add(1)
		if err := sameFrame(k.body, ref.Snapshot(k.t)); err != nil {
			r.fail(fmt.Errorf("served frame at t=%.1f: %w", k.t, err))
		}
	}
	w := r.rig.w
	r.checkFrames(ref, (w.from+w.to)/2)
}

// --- track_churn ---------------------------------------------------------

// setupTrack preloads the city and lists the devices with any
// observation over the span, the ones Track can locate.
func setupTrack(ctx context.Context, r *runner) error {
	if err := r.p.preload(ctx, r.rig.preload); err != nil {
		return err
	}
	w, store := r.rig.w, r.p.eng.Store()
	r.rig.devs = r.rig.devs[:0]
	var buf []dot11.MAC
	for _, d := range store.Devices() {
		if buf = store.AppendAPSetWindow(buf[:0], d, w.from-windowSec, w.to+windowSec); len(buf) > 0 {
			r.rig.devs = append(r.rig.devs, d)
		}
	}
	if len(r.rig.devs) == 0 {
		return errors.New("no device has observations")
	}
	return nil
}

func runTrack(ctx context.Context, r *runner) error {
	r.items = &r.count
	w := r.rig.w
	every := max(1, (len(r.rig.devs)+r.cfg.sc.trackSamples-1)/r.cfg.sc.trackSamples)
	return r.drive(func(stop <-chan struct{}) error {
		for i := 0; ; i++ {
			select {
			case <-stop:
				return nil
			default:
			}
			dev := r.rig.devs[i%len(r.rig.devs)]
			r.ops.Add(1)
			pts, d, err := r.p.track(dev, w.from, w.to)
			if err != nil {
				r.fail(err)
				return err
			}
			if i%every == 0 && len(r.trajs) < r.cfg.sc.trackSamples {
				r.trajs = append(r.trajs, keptTrack{dev: dev, from: w.from, to: w.to, pts: pts})
			}
			r.count.Add(int64(len(pts)))
			r.lat = append(r.lat, sample{at: now(), ms: ms(d)})
		}
	})
}

func verifyTrack(ctx context.Context, r *runner, ref *engine.Engine) {
	w := r.rig.w
	r.checkFrames(ref, (w.from+w.to)/2)
}

// --- shared verification -------------------------------------------------

type keptFrame struct {
	t    float64
	body []byte
}

type keptTrack struct {
	dev      dot11.MAC
	from, to float64
	pts      []core.TrackPoint
}

// checkFrames serves a map frame at each sim time through the full path
// and checks it, bit for bit, against the sequential uncached reference
// engine over the same store. It then checks Track trajectories of a few
// of the frame's devices (plus any the workload kept) against the
// reference.
func (r *runner) checkFrames(ref *engine.Engine, times ...float64) {
	var located []dot11.MAC
	for _, t := range times {
		r.ops.Add(1)
		fr, err := r.p.frame(t)
		if err != nil {
			r.fail(err)
			continue
		}
		want := ref.Snapshot(t)
		if err := sameFrame(fr.body, want); err != nil {
			r.fail(fmt.Errorf("served frame at t=%.1f: %w", t, err))
		}
		if located == nil {
			for d := range want {
				located = append(located, d)
			}
			sort.Slice(located, func(i, j int) bool { return located[i].String() < located[j].String() })
			n := min(r.cfg.sc.trackSamples, len(located))
			for i := 0; i < n; i++ {
				d := located[i*len(located)/n]
				pts, _, err := r.p.track(d, t-300, t+300)
				if err != nil {
					r.fail(err)
					continue
				}
				r.trajs = append(r.trajs, keptTrack{dev: d, from: t - 300, to: t + 300, pts: pts})
			}
		}
	}
	for _, k := range r.trajs {
		r.ops.Add(1)
		want, err := ref.Track(k.dev, k.from, k.to, trackStep)
		if err == nil {
			err = sameTrack(k.pts, want)
		}
		if err != nil {
			r.fail(fmt.Errorf("track %s: %w", k.dev, err))
		}
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
