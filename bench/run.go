package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/capwire"
	"repro/internal/core"
	"repro/internal/dot11"
	"repro/internal/engine"
	"repro/internal/mapserver"
)

// config is one benchmark invocation for one workload.
type config struct {
	seed    int64
	seconds int
	trace   bool
	smoke   bool
	sc      scale
}

// runner carries one workload run: the rig, the pipeline under test and
// everything measured on it.
type runner struct {
	cfg config
	rig *rig
	p   *pipeline
	rec *recorder

	// items points at the counter throughput_per_s counts; count backs it
	// unless the pipeline already keeps one.
	items *atomic.Int64
	count atomic.Int64

	ops, failed atomic.Int64
	mu          sync.Mutex
	failures    []string

	marks     []mark
	lat       []sample  // end-to-end latency samples
	frameLat  []sample  // live_map: map frame latency
	late      []float64 // live_map: open-loop lateness, ms
	kept      []keptFrame
	trajs     []keptTrack
	lastCycle int // wire_saturate: the cycle the store holds at the end
}

// fail counts one failed operation or check.
func (r *runner) fail(err error) {
	r.failed.Add(1)
	r.mu.Lock()
	if len(r.failures) < 20 {
		r.failures = append(r.failures, err.Error())
	}
	r.mu.Unlock()
}

// drive runs the workload's loops through the warm-up and the timed
// phase, then stops them and waits for them to return.
func (r *runner) drive(loops ...func(stop <-chan struct{}) error) error {
	stop := make(chan struct{})
	errc := make(chan error, len(loops))
	for _, loop := range loops {
		go func(loop func(<-chan struct{}) error) { errc <- loop(stop) }(loop)
	}
	time.Sleep(r.cfg.sc.warmup)
	r.marks = r.sampleWindows(r.cfg.seconds)
	close(stop)
	var errs []error
	for range loops {
		if err := <-errc; err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// sampleWindows marks n one-second windows. In a traced run the odd
// windows record spans and the even ones do not, so one run yields both
// the untraced end-to-end figures and the layer spans, alternating to
// cancel drift.
func (r *runner) sampleWindows(n int) []mark {
	take := func() mark {
		gc, alloc := runtimeNow()
		return mark{at: now(), cpu: cpuTime(), items: r.items.Load(), gcSec: gc, alloc: alloc}
	}
	r.rec.setOn(false)
	marks := []mark{take()}
	start := marks[0].at
	for i := 1; i <= n; i++ {
		sleepUntil(start + stamp(time.Duration(i)*time.Second))
		marks = append(marks, take())
		r.rec.setOn(i%2 == 1)
	}
	r.rec.setOn(true)
	return marks
}

// traced reports whether timed window i recorded spans.
func (r *runner) traced(i int) bool { return r.cfg.trace && i%2 == 1 }

// result is one workload run's report.
type result struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    int                `json:"seconds"`
	Trace      bool               `json:"trace"`
	Smoke      bool               `json:"smoke,omitempty"`
	Go         string             `json:"go"`
	Nproc      int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Correct    bool               `json:"correct"`
	Attempted  int64              `json:"attempted"`
	Failed     int64              `json:"failed"`
	Failures   []string           `json:"failures,omitempty"`
	EndToEnd   map[string]metricV `json:"end_to_end"`
	Extra      map[string]metricV `json:"extra,omitempty"`
	Layers     map[string]metricV `json:"layers,omitempty"`
	Ledger     []check            `json:"ledger,omitempty"`
	Spans      *spanInfo          `json:"spans,omitempty"`
	Setups     []float64          `json:"setup_runs_s"`
	Windows    []windowOut        `json:"windows"`
}

// windowOut is one timed window as measured, for judging noise.
type windowOut struct {
	Traced     bool    `json:"traced,omitempty"`
	PerSec     float64 `json:"items_per_s"`
	CPUNsItem  float64 `json:"cpu_ns_per_item"`
	HostFactor float64 `json:"host_factor"`
}

// metricV is one reported metric with how it was measured.
type metricV struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	As      string  `json:"as,omitempty"`
	Samples int     `json:"samples,omitempty"`
	Note    string  `json:"note,omitempty"`
}

type spanInfo struct {
	File    string `json:"file"`
	Count   int    `json:"count"`
	Dropped int    `json:"dropped,omitempty"`
}

// runWorkload runs one workload end to end: rig generation, set-up
// (several times, reporting the median), warm-up, the timed phase,
// verification against the reference engine, and the report.
func runWorkload(ctx context.Context, wl *workload, cfg config, spansPath string) (*result, error) {
	r := &runner{cfg: cfg}
	if cfg.trace {
		r.rec = newRecorder()
	}
	genStart := time.Now()
	rg, err := wl.gen(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: generating the rig: %w", wl.name, err)
	}
	defer rg.mem.release() // capwire.Client.Send encodes a batch before it returns, so no goroutine holds a capture past close
	r.rig = rg
	genSec := time.Since(genStart).Seconds()

	probe := startHostProbe()
	defer probe.close()
	var setups []float64
	var setupW windowStats // the set-up intervals, for the host factor
	for i := 0; i < cfg.sc.setupReps; i++ {
		if r.p != nil {
			if err := r.p.books(); err != nil {
				r.fail(fmt.Errorf("set-up books: %w", err))
			}
			r.p.close()
		}
		runtime.GC()
		t0 := now()
		if r.p, err = newPipeline(rg.w, r.rec); err != nil {
			return nil, fmt.Errorf("%s: starting the pipeline: %w", wl.name, err)
		}
		if err := wl.setup(ctx, r); err != nil {
			r.p.close()
			return nil, fmt.Errorf("%s: set-up: %w", wl.name, err)
		}
		t1 := now()
		setups = append(setups, t1.sub(t0).Seconds())
		setupW.from, setupW.to = append(setupW.from, t0), append(setupW.to, t1)
	}
	statsBefore := r.p.eng.Stats()

	if err := wl.run(ctx, r); err != nil {
		r.fail(fmt.Errorf("%s: run: %w", wl.name, err))
	}
	r.p.dropLogs()
	withSystem := liveHeapMB()

	if err := r.p.books(); err != nil {
		r.fail(fmt.Errorf("books: %w", err))
	}
	r.ops.Add(1)
	ref, err := engine.New(engine.Config{
		Know:      r.p.eng.Knowledge(),
		Store:     r.p.eng.Store(),
		Localizer: core.MLocalizer{},
		WindowSec: windowSec,
		Workers:   1,
		CacheSize: -1,
	})
	if err != nil {
		r.p.close()
		return nil, err
	}
	wl.verify(ctx, r, ref)
	statsAfter := r.p.eng.Stats()
	totals := r.p.srv.Totals()
	// The system's heap is what closing the pipeline frees: the store,
	// caches, server buffers and map state, but not the rig or the
	// benchmark's own records.
	r.p.close()
	r.p, r.items, r.trajs = nil, nil, nil
	heapMB := withSystem - liveHeapMB()

	res := &result{
		Workload: wl.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Smoke: cfg.smoke,
		Go:    runtime.Version(), Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Attempted: r.ops.Load(), Failed: r.failed.Load(), Failures: r.failures,
		Setups: setups,
	}
	res.Correct = res.Failed == 0
	for i := 0; i+1 < len(r.marks); i++ {
		w := sumWindows(r.marks[i:i+2], nil)
		res.Windows = append(res.Windows, windowOut{Traced: r.traced(i), PerSec: w.rates[0], CPUNsItem: w.cpuPer[0],
			HostFactor: probe.over(w.from[0], w.to[0])})
	}
	res.EndToEnd, res.Extra = r.endToEnd(wl, probe, setups, setupW, heapMB, genSec)
	if r.rec != nil {
		res.Layers, res.Ledger = r.layers(wl, statsBefore, statsAfter, totals)
		for _, n := range []string{"runtime.gc_cpu_frac", "runtime.alloc_bytes_per_item"} {
			res.Layers[n] = res.Extra[n]
		}
		spans := r.rec.snapshot()
		res.Spans = &spanInfo{File: spansPath, Count: len(spans), Dropped: r.rec.dropped}
		if err := r.rec.writeJSONL(spansPath); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return res, nil
}

// untraced sums the timed windows that recorded no spans: all of them
// when the run is untraced.
func (r *runner) untraced() windowStats {
	return sumWindows(r.marks, func(i int) bool { return !r.traced(i) })
}

// endToEnd computes the end-to-end metrics over the untraced windows of
// the timed phase. Times and rates are stated at the probe's nominal host
// speed: each is divided (a rate multiplied) by the host factor measured
// while it was taken, over the set-ups for setup_s and over each window
// for the rest. The figures as measured are kept in extra under raw.*.
func (r *runner) endToEnd(wl *workload, probe *hostProbe, setups []float64, setupW windowStats, heapMB, genSec float64) (map[string]metricV, map[string]metricV) {
	w := r.untraced()
	fSetup := probe.factor(setupW.contains)
	fWin := make([]float64, len(w.from))
	rates, cpuPer := make([]float64, len(fWin)), make([]float64, len(fWin))
	for i := range fWin {
		fWin[i] = probe.over(w.from[i], w.to[i])
		rates[i], cpuPer[i] = w.rates[i]*fWin[i], w.cpuPer[i]/fWin[i]
	}
	timed := func(setup float64, rates, cpuPer, lat []float64, note string) map[string]metricV {
		p50, p99 := quantile(lat, 0.50), quantile(lat, 0.99)
		return map[string]metricV{
			"setup_s": {Value: setup, Unit: "s", Samples: len(setups),
				Note: "median of set-ups: knowledge build, engine and server start, history preload over capwire" + note},
			"throughput_per_s": {Value: median(rates), Unit: "1/s", As: wl.asThroughput, Samples: len(rates),
				Note: wl.item + " per second, median of 1 s windows" + note},
			"cpu_ns_per_item": {Value: median(cpuPer), Unit: "ns", As: wl.asCPU, Samples: len(cpuPer),
				Note: "process user+sys CPU per " + wl.item + ", median of 1 s windows" + note},
			"latency_p50_ms": {Value: p50.Value, Unit: "ms", As: wl.asLatency + " p50", Samples: p50.N,
				Note: strings.TrimPrefix(note, "; ")},
			"latency_p99_ms": {Value: p99.Value, Unit: "ms", As: wl.asLatency + " p99", Samples: p99.N,
				Note: strings.TrimPrefix(p99.note("p99")+note, "; ")},
		}
	}
	e2e := timed(median(setups)/fSetup, rates, cpuPer, keepSamples(r.lat, w, fWin), "; at nominal host speed")
	e2e["heap_retained_mb"] = metricV{Value: heapMB, Unit: "MB",
		Note: "live heap the pipeline holds after the timed phase: what closing it frees, after forced GCs"}
	extra := map[string]metricV{
		"bench.gen_s":                  {Value: genSec, Unit: "s", Note: "rig generation, outside set-up"},
		"bench.host_factor_setup":      {Value: fSetup, Unit: "x", Note: "host probe cost over nominal during the set-ups"},
		"bench.host_factor":            {Value: median(fWin), Unit: "x", Samples: len(fWin), Note: "host probe cost over nominal, median of the windows"},
		"error_rate":                   {Value: float64(r.failed.Load()) / float64(max(r.ops.Load(), 1)), Unit: "frac"},
		"runtime.gc_cpu_frac":          {Value: w.gcSec / w.cpu.Seconds(), Unit: "frac"},
		"runtime.alloc_bytes_per_item": {Value: float64(w.alloc) / float64(max(w.items, 1)), Unit: "bytes"},
	}
	for n, m := range timed(median(setups), w.rates, w.cpuPer, keepSamples(r.lat, w, nil), "") {
		extra["raw."+n] = m
	}
	if len(r.frameLat) > 0 {
		fl := keepSamples(r.frameLat, w, nil)
		f50, f99 := quantile(fl, 0.50), quantile(fl, 0.99)
		extra["frame_p50_ms"] = metricV{Value: f50.Value, Unit: "ms", Samples: f50.N}
		extra["frame_p99_ms"] = metricV{Value: f99.Value, Unit: "ms", Samples: f99.N, Note: f99.note("p99")}
	}
	if len(r.late) > 0 {
		l99 := quantile(r.late, 0.99)
		extra["bench.gen_late_p99_ms"] = metricV{Value: l99.Value, Unit: "ms", Samples: l99.N, Note: l99.note("p99")}
	}
	return e2e, extra
}

// layers computes the per-layer metrics from the traced run's spans, and
// the ledger that reconciles them with the end-to-end figures.
func (r *runner) layers(wl *workload, before, after engine.Stats, t capwire.Totals) (map[string]metricV, []check) {
	spans := r.rec.snapshot()
	ls := sumLayers(spans)
	get := func(name spanName) layerSum {
		if l := ls[name]; l != nil {
			return *l
		}
		return layerSum{}
	}
	send, enc, dec := get(spanSend), get(spanEncode), get(spanDecode)
	ing, oing := get(spanIngest), get(spanObsIngest)
	snap, pub, srv := get(spanSnapshot), get(spanPublish), get(spanServe)
	trk, loc, tkd, devs := get(spanTrack), get(spanLocate), get(spanTracked), get(spanDevices)
	fwin, twin := get(spanWindow), get(spanWindowTrack)
	win := layerSum{calls: fwin.calls + twin.calls, ns: fwin.ns + twin.ns, n: fwin.n + twin.n,
		gamma: fwin.gamma + twin.gamma, nonEmpty: fwin.nonEmpty + twin.nonEmpty}
	fixes := float64(after.Fixes - before.Fixes)
	hits := float64(after.CacheHits - before.CacheHits)
	untraced := r.untraced()
	tracedW := sumWindows(r.marks, func(i int) bool { return r.traced(i) })
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m := map[string]metricV{
		"capwire.send_ns_per_frame":       {Value: send.nsPer(), Unit: "ns", Samples: send.calls},
		"capwire.send_blocked_frac":       {Value: ratio(float64(send.blocked), float64(send.calls)), Unit: "frac", Samples: send.calls},
		"capwire.encode_ns_per_frame":     {Value: enc.nsPer(), Unit: "ns", Samples: enc.calls},
		"capwire.decode_ns_per_frame":     {Value: dec.nsPer(), Unit: "ns", Samples: dec.calls},
		"capwire.bytes_per_frame":         {Value: ratio(float64(enc.bytes), float64(enc.n)), Unit: "bytes", Samples: enc.calls},
		"capwire.dedup_ratio":             {Value: ratio(float64(t.FramesDeduped), float64(t.FramesIngested+t.FramesQuarantined+t.FramesDeduped)), Unit: "frac"},
		"capwire.protocol_errors":         {Value: float64(t.ProtocolErrors), Unit: "count"},
		"engine.ingest_ns_per_frame":      {Value: ing.nsPer(), Unit: "ns", Samples: ing.calls},
		"engine.quarantine_ratio":         {Value: ratio(float64(t.FramesQuarantined), float64(t.FramesIngested+t.FramesQuarantined)), Unit: "frac"},
		"engine.snapshot_ns_per_device":   {Value: snap.nsPer(), Unit: "ns", Samples: snap.calls},
		"engine.cache_hit_ratio":          {Value: ratio(hits, fixes), Unit: "frac", Samples: int(fixes)},
		"engine.cache_evictions_per_kfix": {Value: 1000 * ratio(float64(after.CacheEvictions-before.CacheEvictions), fixes), Unit: "count", Samples: int(fixes)},
		"engine.track_ns_per_fix":         {Value: trk.nsPer(), Unit: "ns", Samples: trk.calls},
		"obs.ingest_ns_per_frame":         {Value: oing.nsPer(), Unit: "ns", Samples: oing.calls},
		"obs.records_per_frame":           {Value: ratio(float64(oing.records), float64(oing.n)), Unit: "count", Samples: oing.calls},
		"obs.devices_ns":                  {Value: ratio(float64(devs.ns), float64(devs.calls)), Unit: "ns", Samples: devs.calls},
		"obs.window_ns_per_fix":           {Value: win.nsPer(), Unit: "ns", Samples: win.calls},
		"obs.gamma_k_mean":                {Value: ratio(float64(win.gamma), float64(win.nonEmpty)), Unit: "count"},
		"obs.gamma_churn_per_fix":         {Value: ratio(float64(twin.churn), float64(twin.n)), Unit: "count", Samples: twin.calls},
		"core.locate_ns_per_miss":         {Value: loc.nsPer(), Unit: "ns", Samples: loc.calls},
		"core.tracked_ns_per_fix":         {Value: tkd.nsPer(), Unit: "ns", Samples: tkd.calls},
		"geom.incremental_ratio":          {Value: ratio(float64(tkd.incremental), float64(tkd.n)), Unit: "frac", Samples: tkd.n},
		"mapserver.publish_ns_per_device": {Value: pub.nsPer(), Unit: "ns", Samples: pub.calls},
		"mapserver.serve_ns_per_device":   {Value: srv.nsPer(), Unit: "ns", Samples: srv.calls},
		"mapserver.bytes_per_device":      {Value: ratio(float64(srv.bytes), float64(srv.n)), Unit: "bytes", Samples: srv.calls},
		"bench.trace_overhead_frac": {Value: median(tracedW.cpuPer)/median(untraced.cpuPer) - 1, Unit: "frac",
			Note: "CPU per item in traced windows over untraced ones, less 1"},
	}
	if tr := transitsUS(spans); len(tr) > 0 {
		p := quantile(tr, 0.5)
		m["capwire.transit_us_p50"] = metricV{Value: p.Value, Unit: "us", Samples: p.N}
	} else {
		m["capwire.transit_us_p50"] = metricV{Value: 0, Unit: "us"}
	}

	var ledger []check
	cpuPer := median(untraced.cpuPer)
	switch wl.name {
	case "wire_saturate":
		c := reconcile("server chain (decode + engine ingest) per frame vs 1e9/ingest_fps",
			dec.nsPer()+ing.nsPer(), 1e9/median(untraced.rates), "ns")
		if f := m["capwire.send_blocked_frac"].Value; f < 0.5 {
			c.Skip = fmt.Sprintf("send_blocked_frac %.2f < 0.5: the agent, not the server, sets the pace", f)
		}
		ledger = append(ledger, c,
			reconcile("Σ layer CPU (encode + decode + engine ingest) + GC per frame vs cpu_ns_per_frame",
				enc.nsPer()+dec.nsPer()+ing.nsPer()+untraced.gcSec/untraced.cpu.Seconds()*cpuPer, cpuPer, "ns"))
	case "city_frames":
		frameP50 := quantile(keepSamples(r.lat, untraced, nil), 0.5).Value
		ledger = append(ledger, reconcile("snapshot + publish + serve p50 vs frame_p50_ms",
			(median(snap.durs)+median(pub.durs)+median(srv.durs))/1e6, frameP50, "ms"))
	case "track_churn":
		// Per step Track assembles a window, and computes the tracked kernel
		// where Γ changed from the step before (a repeated Γ hits the cache).
		ledger = append(ledger, reconcile("window + miss-weighted tracked locate per step vs engine.track_ns_per_fix",
			twin.nsPer()+ratio(float64(tkd.ns), float64(twin.n)), trk.nsPer(), "ns"))
	}
	return m, ledger
}

// sameFrame checks a served /api/state body against the reference
// snapshot, bit for bit.
func sameFrame(body []byte, want map[dot11.MAC]core.Estimate) error {
	var doc struct {
		Devices []mapserver.DeviceMarker `json:"devices"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return fmt.Errorf("decoding /api/state: %w", err)
	}
	if len(doc.Devices) != len(want) {
		return fmt.Errorf("served %d devices, reference located %d", len(doc.Devices), len(want))
	}
	byMAC := make(map[string]core.Estimate, len(want))
	for d, est := range want {
		byMAC[d.String()] = est
	}
	for _, got := range doc.Devices {
		est, ok := byMAC[got.MAC]
		if !ok {
			return fmt.Errorf("served %s, which the reference did not locate", got.MAC)
		}
		if !samePoint(got.Est.X, got.Est.Y, est.Pos.X, est.Pos.Y) || got.K != est.K || got.Method != est.Method {
			return fmt.Errorf("%s: served %v k=%d %s, reference %v k=%d %s", got.MAC, got.Est, got.K, got.Method, est.Pos, est.K, est.Method)
		}
	}
	return nil
}

// sameTrack checks a trajectory against the reference, bit for bit.
func sameTrack(got, want []core.TrackPoint) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d points, reference %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if math.Float64bits(g.TimeSec) != math.Float64bits(w.TimeSec) ||
			!samePoint(g.Est.Pos.X, g.Est.Pos.Y, w.Est.Pos.X, w.Est.Pos.Y) ||
			g.Est.K != w.Est.K || g.Est.Method != w.Est.Method || len(g.Est.Vertices) != len(w.Est.Vertices) {
			return fmt.Errorf("point %d: %+v, reference %+v", i, g, w)
		}
		for j := range g.Est.Vertices {
			a, b := g.Est.Vertices[j], w.Est.Vertices[j]
			if !samePoint(a.X, a.Y, b.X, b.Y) {
				return fmt.Errorf("point %d vertex %d: %v, reference %v", i, j, a, b)
			}
		}
	}
	return nil
}

func samePoint(x1, y1, x2, y2 float64) bool {
	return math.Float64bits(x1) == math.Float64bits(x2) && math.Float64bits(y1) == math.Float64bits(y2)
}

// layerNames lists the layer metrics in output order.
func layerNames(m map[string]metricV) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
