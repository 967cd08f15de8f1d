// Command marauder runs the full digital Marauder's map attack end to end
// on a simulated campus: deploy APs, walk a victim device around, capture
// its probing traffic with the LNA receiver chain, localize it continuously
// with the selected algorithm, and serve the live map on an HTTP port.
//
// Usage:
//
//	marauder [-addr :8642] [-algo mloc|aprad|aploc|centroid|closest]
//	         [-seed 1] [-aps 300] [-speedup 50] [-workers 0] [-shards 0] [-once]
//	         [-metrics-addr :9642] [-pprof] [-log-level info] [-log-format text]
//	         [-trace] [-trace-sample 1] [-trace-buffer 256]
//	         [-chaos] [-chaos-seed 1] [-checkpoint-dir DIR] [-checkpoint-interval 10s]
//	         [-ftdc-dir DIR] [-ftdc-interval 1s]
//	         [-prof-dir DIR] [-prof-interval 60s] [-prof-cpu 10s]
//	         [-mutex-profile-fraction 0] [-block-profile-rate 0]
//	         [-slo SPEC]... [-slo-defaults] [-slo-tick 10s]
//	         [-stage-sample-every 0]
//	         [-agents-listen :7642] [-local-capture=true] [-ingest-stale-after 0]
//
// All five of the paper's algorithms select through the same
// core.Localizer interface and drive the same engine pipeline. With -once
// the attack runs a single pass and prints per-fix accuracy instead of
// serving the map.
//
// The map port always serves /metrics (Prometheus text format) and
// /debug/vars (JSON); -metrics-addr serves the same telemetry on a
// separate port and -pprof additionally mounts net/http/pprof under
// /debug/pprof/ on both. -trace samples localizations into per-estimate
// traces and provenance records (-trace-sample sets the sampled fraction,
// -trace-buffer the retained ring), served at /api/trace and
// /api/explain?device=MAC on the map port.
//
// -chaos injects a deterministic aggressive fault plan (card failures,
// clock skew, frame corruption, drops, duplication, reordering) seeded by
// -chaos-seed; the pipeline's degraded-vs-healthy self-report is served
// at /api/health. -checkpoint-dir enables crash-safe observation
// checkpoints: the newest valid one is restored on start and periodic
// snapshots are written every -checkpoint-interval, plus a final one on
// graceful shutdown (SIGINT or SIGTERM).
//
// -ftdc-dir turns on the flight recorder: every telemetry metric plus Go
// runtime stats (heap, RSS, GC pause, goroutines, scheduler latency) is
// appended every -ftdc-interval to a compact delta-encoded binary file in
// that directory, decodable offline with cmd/ftdcdump; the recorder's
// progress shows under "ftdc" in the /api/health detail.
//
// -prof-dir turns on the continuous profiler: every -prof-interval the
// process captures CPU (-prof-cpu long), delta-heap, goroutine, mutex and
// block profiles into rotated size-capped artifacts in that directory and
// decodes its own CPU capture into the top-N hot-function table served at
// /api/profile. Mutex and block captures are empty unless their runtime
// rates are on: -mutex-profile-fraction samples 1/n of contention events
// and -block-profile-rate records blocking ≥ n nanoseconds (both also
// activate /debug/pprof/mutex and /debug/pprof/block under -pprof).
//
// -slo declares a service-level objective
// (latency:<name>:<series>:<seconds>:<target> or
// availability:<name>:<totalSeries>:<badSeries>:<target>, repeatable);
// -slo-defaults installs the built-in fix-latency and fix-availability
// objectives. Objectives are evaluated every -slo-tick over multi-window
// error budgets, served at /api/slo, and folded into /api/health reasons
// while burning or exhausted. -stage-sample-every times the per-stage
// histograms (marauder_stage_seconds) on every Nth fix (0 = default 16,
// 1 = every fix, negative = off).
//
// -agents-listen starts the distributed capture plane: a capwire server
// accepting remote capture agents (cmd/capagent) that stream frame
// batches over TCP with resumable cursors, served alongside the local
// fleet. Per-agent liveness, lag and resume accounting shows at
// /api/agents and in /api/health; with -checkpoint-dir the agents' ack
// cursors persist next to the observation checkpoints so a restart
// resumes every agent from its acked position. -local-capture=false
// turns the in-process sniffer fleet off (remote agents become the only
// capture source); -ingest-stale-after degrades /api/health when any
// capture source delivers nothing for that long.
//
// Dependent flags are validated after parse: a flag that only tunes a
// feature the command line never enabled (-chaos-seed without -chaos,
// -checkpoint-interval without -checkpoint-dir, ...) is an error, and a
// zero or negative -checkpoint-interval disables periodic checkpoints
// while keeping the final shutdown snapshot.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/capwire"
	"repro/internal/core"
	"repro/internal/dot11"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/flagcheck"
	"repro/internal/geom"
	"repro/internal/mapserver"
	"repro/internal/obs"
	"repro/internal/rf"
	"repro/internal/sim"
	"repro/internal/sniffer"
	"repro/internal/telemetry"
	"repro/internal/telemetry/ftdc"
	"repro/internal/telemetry/prof"
	"repro/internal/telemetry/slo"
	"repro/internal/telemetry/trace"
	"repro/internal/wardrive"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		slog.Error("attack failed", "component", "marauder", "err", err)
		os.Exit(1)
	}
}

type attack struct {
	world   *sim.World
	victim  *sim.Device
	route   *sim.RouteWalk
	store   *obs.Store
	eng     *engine.Engine
	sniffer *sniffer.Sniffer
	// know is the true AP knowledge (for the map's AP layer).
	know core.Knowledge
	// baseKnow is the knowledge the engine trains from: true positions in
	// aprad mode, wardrive-trained ones in aploc mode.
	baseKnow core.Knowledge
	// trains marks the trained modes that need RefreshKnowledge.
	trains bool
	// plan is the chaos fault plan (nil when -chaos is off).
	plan *faults.Plan
	// injector perturbs capture batches (drop/dup/reorder/delay) before
	// ingest; nil when -chaos is off.
	injector *sniffer.FaultInjector
	// ckpt periodically snapshots the observation store; nil when
	// -checkpoint-dir is unset.
	ckpt *obs.Checkpointer
	// rec is the FTDC flight recorder; nil (recorder disabled) when
	// -ftdc-dir is unset — every method on it is nil-safe.
	rec *ftdc.Recorder
	// prof is the continuous profiler; nil (disabled) when -prof-dir is
	// unset — every method on it is nil-safe.
	prof *prof.Profiler
	// slos tracks service-level objectives; nil (disabled) when no -slo
	// flags are given — every method on it is nil-safe.
	slos *slo.Tracker
	// agents is the capwire server for remote capture agents; nil when
	// -agents-listen is unset.
	agents *capwire.Server
	// agentStale is the -ingest-stale-after threshold shared by the
	// engine's per-source check and the agents' liveness reasons.
	agentStale time.Duration
	// localCapture mirrors -local-capture: false turns the in-process
	// sniffer fleet off so remote agents are the only capture source.
	localCapture bool
	// ckptPeriodic is false when -checkpoint-interval disabled periodic
	// snapshots (the final shutdown checkpoint still happens).
	ckptPeriodic bool
}

// attackOpts is the full build configuration; the positional helpers
// below keep the original test-facing signatures.
type attackOpts struct {
	Seed    int64
	APs     int
	Algo    string
	Workers int
	Shards  int
	Tracer  *trace.Tracer
	// Faults, when non-nil, injects the chaos plan into the sniffer (card
	// schedules) and installs a batch injector on the capture path.
	Faults *faults.Plan
	// Store, when non-nil, seeds the engine with a recovered observation
	// store instead of an empty one.
	Store *obs.Store
	// StageSampleEvery forwards to engine.Config.StageSampleEvery.
	StageSampleEvery int
	// StaleIngestAfter forwards to engine.Config.StaleIngestAfter.
	StaleIngestAfter time.Duration
}

// newLocalizer maps an -algo name to its Localizer and the knowledge base
// the engine starts from. know holds the true AP positions and radii; w is
// needed only by aploc, which wardrives the world for training tuples.
func newLocalizer(algo string, know core.Knowledge, w *sim.World) (core.Localizer, core.Knowledge, error) {
	radCfg := core.APRadConfig{MaxRadius: 160, MaxNeighborConstraints: 12}
	switch algo {
	case "mloc", "":
		return core.MLocalizer{}, know, nil
	case "centroid":
		return core.CentroidLocalizer{}, know, nil
	case "closest":
		return core.ClosestAPLocalizer{}, know, nil
	case "aprad":
		// Radii withheld: true AP positions, radii trained from
		// observations by the engine's RefreshKnowledge.
		infos := know.All()
		for i := range infos {
			infos[i].MaxRange = 0
		}
		return core.APRadLocalizer{Cfg: radCfg}, core.NewKnowledge(infos), nil
	case "aploc":
		// Nothing known: wardrive the campus first, estimate AP positions
		// from the training tuples, then train radii from observations.
		var waypoints []geom.Point
		row := 0
		for y := -300.0; y <= 300; y += 100 {
			if row%2 == 0 {
				waypoints = append(waypoints, geom.Pt(-300, y), geom.Pt(300, y))
			} else {
				waypoints = append(waypoints, geom.Pt(300, y), geom.Pt(-300, y))
			}
			row++
		}
		for x := -300.0; x <= 300; x += 100 {
			if row%2 == 0 {
				waypoints = append(waypoints, geom.Pt(x, 300), geom.Pt(x, -300))
			} else {
				waypoints = append(waypoints, geom.Pt(x, -300), geom.Pt(x, 300))
			}
			row++
		}
		drive := sim.NewRouteWalk(waypoints, 10)
		tuples := wardrive.Collector{World: w}.CollectAlong(drive, 6)
		trained, err := core.EstimateAPLocations(tuples, core.APLocConfig{TrainingRadius: 130})
		if err != nil {
			return nil, core.Knowledge{}, fmt.Errorf("aploc training: %w", err)
		}
		loc := &core.APLocLocalizer{
			Trained: trained,
			Cfg:     core.APLocConfig{TrainingRadius: 130, Rad: radCfg},
		}
		return loc, trained, nil
	default:
		return nil, core.Knowledge{}, fmt.Errorf("unknown algorithm %q", algo)
	}
}

func buildAttack(seed int64, nAPs int, algo string) (*attack, error) {
	return buildAttackOpts(attackOpts{Seed: seed, APs: nAPs, Algo: algo})
}

func buildAttackWorkers(seed int64, nAPs int, algo string, workers, shards int) (*attack, error) {
	return buildAttackOpts(attackOpts{Seed: seed, APs: nAPs, Algo: algo, Workers: workers, Shards: shards})
}

func buildAttackTraced(seed int64, nAPs int, algo string, workers, shards int, tracer *trace.Tracer) (*attack, error) {
	return buildAttackOpts(attackOpts{Seed: seed, APs: nAPs, Algo: algo, Workers: workers, Shards: shards, Tracer: tracer})
}

func buildAttackOpts(o attackOpts) (*attack, error) {
	w := sim.NewWorld(o.Seed)
	aps, err := sim.UniformDeployment(sim.DeploymentConfig{
		N:        o.APs,
		Min:      geom.Pt(-350, -350),
		Max:      geom.Pt(350, 350),
		RangeMin: 70,
		RangeMax: 130,
	}, w.RNG())
	if err != nil {
		return nil, err
	}
	w.APs = aps

	var waypoints []geom.Point
	row := 0
	for y := -250.0; y <= 250; y += 125 {
		if row%2 == 0 {
			waypoints = append(waypoints, geom.Pt(-250, y), geom.Pt(250, y))
		} else {
			waypoints = append(waypoints, geom.Pt(250, y), geom.Pt(-250, y))
		}
		row++
	}
	route := sim.NewRouteWalk(waypoints, 1.5)
	victim := &sim.Device{
		MAC:      sim.NewMAC(0xDD, 1),
		Mobility: route,
		TX:       rf.TypicalMobile,
	}
	w.AddDevice(victim)

	knowInfos := make([]core.APInfo, 0, len(aps))
	for _, ap := range aps {
		knowInfos = append(knowInfos, core.APInfo{BSSID: ap.MAC, Pos: ap.Pos, MaxRange: ap.MaxRange})
	}
	know := core.NewKnowledge(knowInfos)

	locate, base, err := newLocalizer(o.Algo, know, w)
	if err != nil {
		return nil, err
	}
	// For trained modes the engine starts on the radius-less base: fixes
	// fail (no usable discs) until RefreshKnowledge swaps trained radii in.
	_, trains := locate.(core.KnowledgeTrainer)
	store := o.Store
	if store == nil {
		store = obs.NewStoreShards(o.Shards)
	}
	eng, err := engine.New(engine.Config{
		Know:             base,
		Store:            store,
		Localizer:        locate,
		WindowSec:        45,
		Workers:          o.Workers,
		Tracer:           o.Tracer,
		StageSampleEvery: o.StageSampleEvery,
		StaleIngestAfter: o.StaleIngestAfter,
	})
	if err != nil {
		return nil, err
	}
	a := &attack{
		world:  w,
		victim: victim,
		route:  route,
		store:  eng.Store(),
		eng:    eng,
		know:   know,
		sniffer: sniffer.New(sniffer.Config{
			Pos:    geom.Pt(0, 0),
			Chain:  rf.ChainLNA(),
			Plan:   dot11.DefaultPlan(),
			Faults: o.Faults,
		}),
		baseKnow:     base,
		trains:       trains,
		plan:         o.Faults,
		localCapture: true,
		ckptPeriodic: true,
	}
	if o.Faults.Enabled() {
		a.injector = &sniffer.FaultInjector{Plan: o.Faults}
	}
	return a, nil
}

// captureUpTo simulates and captures the victim's probing traffic in
// [from, to) seconds of route time, accumulating the decoded frames of
// all scan bursts into one batch and delivering it to the engine through
// the store's sharded batch-ingest path.
func (a *attack) captureUpTo(from, to float64) {
	seq := uint16(from/30) + 1
	var batch []sniffer.Capture
	for t := from; t < to; t += 30 {
		pos := a.victim.PosAt(t)
		batch = a.sniffer.CaptureAllInto(batch, sim.ScanBurst(a.world, a.victim, t, pos, seq))
		seq++
	}
	if a.injector != nil {
		batch = a.injector.Apply(batch)
	}
	a.eng.IngestCaptures(batch)
}

// drainHeld flushes any fault-delayed batches into the engine, so a
// shutdown or end-of-run loses nothing the injector was still holding.
func (a *attack) drainHeld() {
	if a.injector == nil {
		return
	}
	if held := a.injector.Drain(); len(held) > 0 {
		a.eng.IngestCaptures(held)
	}
}

// health composes the pipeline's /api/health report at simulated time
// tSec: the engine's refresh and quarantine state plus the monitoring
// cards' schedules, with fault and checkpoint counters in the detail.
func (a *attack) health(tSec float64) mapserver.Health {
	eh := a.eng.Health()
	h := mapserver.Health{Status: mapserver.StatusHealthy}
	h.Reasons = append(h.Reasons, eh.Reasons...)
	if !eh.Healthy {
		h.Status = mapserver.StatusDegraded
	}
	cards := a.sniffer.CardHealth(tSec)
	for _, c := range cards {
		if !c.Up {
			h.Status = mapserver.StatusDegraded
			h.Reasons = append(h.Reasons, fmt.Sprintf("card channel %d down", c.Channel))
		}
	}
	// A burning or exhausted error budget degrades the pipeline: the map
	// is up, but it is failing its users faster than the SLO allows.
	if rs := a.slos.HealthReasons(); len(rs) > 0 {
		h.Status = mapserver.StatusDegraded
		h.Reasons = append(h.Reasons, rs...)
	}
	// Remote capture agents: accounting mismatches always degrade;
	// silence degrades past -ingest-stale-after.
	if a.agents != nil {
		if rs := a.agents.HealthReasons(a.agentStale); len(rs) > 0 {
			h.Status = mapserver.StatusDegraded
			h.Reasons = append(h.Reasons, rs...)
		}
	}
	detail := map[string]any{"engine": eh, "cards": cards}
	if a.agents != nil {
		detail["agents"] = a.agents.Totals()
	}
	if a.plan.Enabled() {
		detail["faults"] = a.plan.Counters()
	}
	if a.ckpt != nil {
		detail["checkpointGeneration"] = a.ckpt.Generation()
	}
	detail["ftdc"] = a.rec.Status()
	detail["profiler"] = a.prof.Status()
	h.Detail = detail
	return h
}

func run(args []string) error {
	fs := flag.NewFlagSet("marauder", flag.ContinueOnError)
	addr := fs.String("addr", ":8642", "HTTP listen address for the map")
	algo := fs.String("algo", "mloc", "localization algorithm: mloc, aprad, aploc, centroid or closest")
	seed := fs.Int64("seed", 1, "random seed")
	nAPs := fs.Int("aps", 300, "number of deployed APs")
	speedup := fs.Float64("speedup", 50, "simulated seconds per wall second")
	workers := fs.Int("workers", 0, "snapshot worker pool size (0 = GOMAXPROCS)")
	shards := fs.Int("shards", 0, "observation store shard count, rounded to a power of two (0 = GOMAXPROCS-rounded)")
	once := fs.Bool("once", false, "run one pass and print accuracy instead of serving")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics and /debug/vars on this extra address (e.g. :9642)")
	pprofOn := fs.Bool("pprof", false, "also mount net/http/pprof under /debug/pprof/")
	logLevel := fs.String("log-level", "info", "log level: debug, info, warn or error")
	logFormat := fs.String("log-format", "text", "log format: text or json")
	traceOn := fs.Bool("trace", false, "sample localizations into per-estimate traces and provenance records")
	traceSample := fs.Float64("trace-sample", 1, "fraction of localizations traced, in (0, 1] (resolves to every-Nth sampling)")
	traceBuffer := fs.Int("trace-buffer", 256, "finished-trace ring buffer capacity")
	chaos := fs.Bool("chaos", false, "inject the aggressive fault plan: card failures, clock skew, frame corruption, drops, duplication, reordering")
	chaosSeed := fs.Int64("chaos-seed", 1, "fault plan seed (deterministic per seed)")
	ckptDir := fs.String("checkpoint-dir", "", "directory for crash-safe observation checkpoints (recovery on start, periodic snapshots while serving)")
	ckptInterval := fs.Duration("checkpoint-interval", 10*time.Second, "period between observation checkpoints")
	ftdcDir := fs.String("ftdc-dir", "", "directory for FTDC flight-recorder files (empty = recorder off)")
	ftdcInterval := fs.Duration("ftdc-interval", time.Second, "flight-recorder sampling period")
	profDir := fs.String("prof-dir", "", "directory for continuous-profiler artifacts (empty = profiler off)")
	profInterval := fs.Duration("prof-interval", 60*time.Second, "pause between profiler capture cycles")
	profCPU := fs.Duration("prof-cpu", 10*time.Second, "CPU capture length per profiler cycle")
	mutexFrac := fs.Int("mutex-profile-fraction", 0, "sample 1/n of mutex contention events into /debug/pprof/mutex (0 = off)")
	blockRate := fs.Int("block-profile-rate", 0, "record goroutine blocking lasting >= n ns into /debug/pprof/block (0 = off)")
	var sloObjs []slo.Objective
	fs.Func("slo", "SLO spec, repeatable: latency:<name>:<series>:<seconds>:<target> or availability:<name>:<totalSeries>:<badSeries>:<target>", func(s string) error {
		o, err := slo.ParseObjectiveSpec(s)
		if err != nil {
			return err
		}
		sloObjs = append(sloObjs, o)
		return nil
	})
	sloDefaults := fs.Bool("slo-defaults", false, "track the built-in fix-latency and fix-availability objectives")
	sloTick := fs.Duration("slo-tick", 10*time.Second, "SLO evaluation period")
	stageEvery := fs.Int("stage-sample-every", 0, "time per-stage histograms every Nth fix (0 = default 16, 1 = every fix, negative = off)")
	agentsListen := fs.String("agents-listen", "", "TCP listen address for remote capture agents (capwire protocol; empty = no agent plane)")
	localCapture := fs.Bool("local-capture", true, "run the in-process sniffer fleet (false = remote agents are the only capture source)")
	staleAfter := fs.Duration("ingest-stale-after", 0, "degrade /api/health when a capture source delivers nothing for this long (0 = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Dependent-flag validation: a flag that only tunes a feature this
	// command line never enabled is an operator typo, not a no-op.
	fc := flagcheck.New(fs).
		Requires("chaos-seed", "chaos").
		Requires("checkpoint-interval", "checkpoint-dir").
		Requires("ftdc-interval", "ftdc-dir").
		Requires("prof-interval", "prof-dir").
		Requires("prof-cpu", "prof-dir").
		Requires("trace-sample", "trace").
		Requires("trace-buffer", "trace").
		Requires("slo-tick", "slo", "slo-defaults")
	if err := fc.Err(); err != nil {
		return err
	}
	if !*localCapture && *agentsListen == "" {
		return errors.New("-local-capture=false without -agents-listen leaves no capture source")
	}
	if *once && *agentsListen != "" {
		return errors.New("-agents-listen needs the serving loop; it cannot be combined with -once")
	}
	ckptEvery, ckptPeriodic := flagcheck.CheckpointInterval(*ckptInterval, func(format string, args ...any) {
		slog.Info(fmt.Sprintf(format, args...), "component", "marauder")
	})
	telemetry.SetProfileRates(*mutexFrac, *blockRate)
	if _, err := telemetry.SetupLogging(os.Stderr, *logLevel, *logFormat); err != nil {
		return err
	}
	var tracer *trace.Tracer
	if *traceOn {
		var err error
		tracer, err = trace.New(trace.Config{Sample: *traceSample, Buffer: *traceBuffer})
		if err != nil {
			return err
		}
		slog.Info("estimate tracing on", "component", "marauder",
			"sample_every", tracer.SampleEvery(), "buffer", *traceBuffer)
	}

	if *metricsAddr != "" {
		msrv := &http.Server{Addr: *metricsAddr, Handler: telemetry.Mux(telemetry.Default(), *pprofOn)}
		go func() {
			if err := msrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				slog.Error("telemetry server failed", "component", "marauder", "addr", *metricsAddr, "err", err)
			}
		}()
		defer msrv.Close()
		slog.Info("telemetry listening", "component", "marauder", "addr", *metricsAddr, "pprof", *pprofOn)
	}

	opts := attackOpts{Seed: *seed, APs: *nAPs, Algo: *algo, Workers: *workers, Shards: *shards, Tracer: tracer, StageSampleEvery: *stageEvery, StaleIngestAfter: *staleAfter}
	if *chaos {
		opts.Faults = faults.Aggressive(*chaosSeed)
		slog.Info("chaos mode on", "component", "marauder", "seed", *chaosSeed)
	}

	var recoveredGen uint64
	if *ckptDir != "" {
		store, info, err := obs.Recover(*ckptDir, *shards)
		if err != nil {
			return err
		}
		for _, sk := range info.Skipped {
			slog.Warn("checkpoint skipped", "component", "marauder", "path", sk.Path, "err", sk.Err)
		}
		if store != nil {
			opts.Store = store
			recoveredGen = info.Meta.Generation
			slog.Info("observations restored from checkpoint", "component", "marauder",
				"path", info.Path, "generation", info.Meta.Generation,
				"records", info.Meta.Records, "skipped", len(info.Skipped))
		} else {
			slog.Info("no checkpoint to restore", "component", "marauder", "dir", *ckptDir)
		}
	}

	// Process runtime health (goroutines, heap, RSS, GC pause, scheduler
	// latency) registers on the default registry so it shows on /metrics
	// and in the flight record alongside the pipeline series.
	runtimeSampler := telemetry.NewRuntimeSampler(nil)
	runtimeSampler.Sample()

	a, err := buildAttackOpts(opts)
	if err != nil {
		return err
	}
	a.localCapture = *localCapture
	a.ckptPeriodic = ckptPeriodic
	a.agentStale = *staleAfter
	if *ftdcDir != "" {
		rec, err := ftdc.New(ftdc.Config{
			Dir:      *ftdcDir,
			Interval: *ftdcInterval,
			Runtime:  runtimeSampler,
		})
		if err != nil {
			return err
		}
		a.rec = rec
		slog.Info("flight recorder on", "component", "marauder",
			"path", rec.Path(), "interval", *ftdcInterval)
	}
	if *profDir != "" {
		p, err := prof.New(prof.Config{Dir: *profDir, Interval: *profInterval, CPUDuration: *profCPU})
		if err != nil {
			return err
		}
		a.prof = p
		slog.Info("continuous profiler on", "component", "marauder",
			"dir", *profDir, "interval", *profInterval, "cpu", *profCPU)
	}
	if *sloDefaults {
		sloObjs = append(slo.DefaultObjectives(), sloObjs...)
	}
	if len(sloObjs) > 0 {
		trk, err := slo.New(slo.Config{Objectives: sloObjs, TickInterval: *sloTick})
		if err != nil {
			return err
		}
		a.slos = trk
		slog.Info("slo tracking on", "component", "marauder",
			"objectives", len(sloObjs), "tick", *sloTick)
	}
	if *ckptDir != "" {
		a.ckpt = &obs.Checkpointer{
			Dir:      *ckptDir,
			Interval: ckptEvery,
			Source:   func() *obs.Store { return a.eng.Store() },
		}
		a.ckpt.SetGeneration(recoveredGen)
	}

	if *agentsListen != "" {
		// The distributed capture plane: remote agents stream batches in
		// and ingest under per-agent source names, with resumable cursors
		// persisted alongside the observation checkpoints.
		srvCfg := capwire.ServerConfig{
			Ingest: func(agentID string, caps []sniffer.Capture) int {
				return a.eng.IngestCapturesFrom("agent:"+agentID, caps)
			},
			Logf: func(format string, args ...any) {
				slog.Info(fmt.Sprintf(format, args...), "component", "capwire")
			},
		}
		cursorPath := ""
		if *ckptDir != "" {
			cursorPath = filepath.Join(*ckptDir, capwire.CursorFileName)
			cursors, gen, err := capwire.LoadCursors(cursorPath)
			if err != nil {
				return err
			}
			if len(cursors) > 0 {
				switch {
				case gen > recoveredGen:
					// The cursor file outruns the restored observation store
					// (recovery fell back to an older checkpoint). Seeding
					// these stale-forward cursors would make the server dedup
					// replayed batches whose ingested frames were lost with
					// the newer store — silent permanent loss. Discard them:
					// the server starts each agent at cursor 0 and the
					// clients renumber their retained tails from cursor+1,
					// so everything still held agent-side is re-ingested.
					slog.Warn("agent cursors outrun the restored store; discarding them",
						"component", "marauder", "cursorGeneration", gen, "storeGeneration", recoveredGen)
					cursors = nil
				case gen < recoveredGen:
					// A lagging cursor file only widens the replay window:
					// the agents re-send a tail the server dedups
					// (at-least-once delivery, exactly-once ingest), so warn
					// and continue.
					slog.Warn("agent cursors from an older checkpoint generation",
						"component", "marauder", "cursorGeneration", gen, "storeGeneration", recoveredGen)
				}
				if len(cursors) > 0 {
					slog.Info("agent cursors restored", "component", "marauder",
						"path", cursorPath, "agents", len(cursors), "generation", gen)
				}
			}
			srvCfg.Cursors = cursors
		}
		capSrv, err := capwire.NewServer(srvCfg)
		if err != nil {
			return err
		}
		lis, err := net.Listen("tcp", *agentsListen)
		if err != nil {
			return err
		}
		go func() {
			if err := capSrv.Serve(lis); err != nil {
				slog.Error("agent server failed", "component", "marauder", "err", err)
			}
		}()
		defer capSrv.Close()
		a.agents = capSrv
		if a.ckpt != nil && cursorPath != "" {
			a.ckpt.AfterCheckpoint = func(gen uint64) {
				if err := capSrv.SaveCursors(cursorPath, gen); err != nil {
					slog.Warn("agent cursor save failed", "component", "marauder", "err", err)
				}
			}
		}
		slog.Info("capture agent plane listening", "component", "marauder",
			"addr", lis.Addr().String(), "localCapture", *localCapture)
	}

	if *once {
		return runOnce(a, *algo)
	}
	return serve(a, *algo, *addr, *speedup, *pprofOn)
}

func runOnce(a *attack, algo string) error {
	// With the profiler on, one capture cycle runs concurrently with the
	// pass so the CPU profile covers the actual workload; the cycle is cut
	// short when the work finishes first.
	if a.prof != nil {
		profCtx, profStop := context.WithCancel(context.Background())
		profDone := make(chan struct{})
		started := make(chan struct{})
		go func() {
			if err := a.prof.CycleSignaled(profCtx, started); err != nil {
				slog.Warn("profiler cycle failed", "component", "marauder", "err", err)
			}
			close(profDone)
		}()
		<-started
		defer func() {
			profStop()
			<-profDone
			if attr := a.prof.Attribution(); attr != nil {
				if len(attr.TopFunctions) > 0 {
					hot := attr.TopFunctions[0]
					fmt.Printf("profile: %d samples, hottest %s (%.1f%% flat), artifacts in %s\n",
						attr.Samples, hot.Name, 100*hot.FlatShare, a.prof.Status().Dir)
				} else {
					fmt.Printf("profile: %d samples (workload too brief for attribution), artifacts in %s\n",
						attr.Samples, a.prof.Status().Dir)
				}
			}
			if err := a.prof.Close(); err != nil {
				slog.Warn("profiler close failed", "component", "marauder", "err", err)
			}
		}()
	}
	total := a.route.TotalDuration()
	a.captureUpTo(0, total)
	a.drainHeld()
	// One pass has no sampling loop: take a single end-of-run flight
	// record sample so the file still captures the final state.
	if a.rec != nil {
		defer func() {
			if err := a.rec.Close(); err != nil {
				slog.Warn("flight record close failed", "component", "marauder", "err", err)
			}
		}()
		if err := a.rec.Sample(); err != nil {
			slog.Warn("flight record sample failed", "component", "marauder", "err", err)
		}
	}
	if a.ckpt != nil {
		if path, err := a.ckpt.CheckpointNow(); err != nil {
			slog.Warn("final checkpoint failed", "component", "marauder", "err", err)
		} else {
			slog.Info("final checkpoint written", "component", "marauder", "path", path)
		}
	}
	if a.trains {
		if err := a.eng.RefreshKnowledge(); err != nil {
			return err
		}
	}
	points, err := a.eng.Track(a.victim.MAC, 0, total, 60)
	if err != nil {
		return err
	}
	if len(points) == 0 {
		return errors.New("no fixes produced")
	}
	var sum float64
	for _, p := range points {
		truth := a.route.PosAt(p.TimeSec)
		e := core.Error(p.Est, truth)
		sum += e
		fmt.Printf("t=%6.0fs k=%2d est=%v truth=%v err=%.1fm\n",
			p.TimeSec, p.Est.K, p.Est.Pos, truth, e)
	}
	stats := a.eng.Stats()
	fmt.Printf("fixes=%d average error=%.2fm algorithm=%s cache=%d/%d hits\n",
		len(points), sum/float64(len(points)), algo, stats.CacheHits, stats.Fixes)
	if p, ok := a.eng.Tracer().Explain(a.victim.MAC.String()); ok {
		fmt.Printf("last fix explained: trace=%s k=%d area=%.1fm² theorem2=%.1fm² cacheHit=%v stages=%v\n",
			p.TraceID, p.K, p.IntersectedAreaM2, p.Theorem2AreaM2, p.CacheHit, p.StagesMs)
	}
	return nil
}

func serve(a *attack, algo, addr string, speedup float64, pprofOn bool) error {
	state := mapserver.NewState()
	state.APsFromKnowledge(a.know)
	state.SetTracer(a.eng.Tracer())
	state.SetStatsSource(func() any {
		st := a.eng.Stats()
		return map[string]any{
			"algo":       algo,
			"engine":     st,
			"shardLens":  a.eng.Store().ShardLens(),
			"obsDevices": len(a.eng.Store().Devices()),
			"trace":      a.eng.Tracer().Stats(),
		}
	})
	// simNow mirrors the serve loop's simulated clock for the health
	// endpoint, which runs on HTTP goroutines.
	var simNow atomic.Uint64
	state.SetHealthSource(func() mapserver.Health {
		return a.health(math.Float64frombits(simNow.Load()))
	})
	if a.slos != nil {
		state.SetSLOSource(func() any { return a.slos.Report() })
	}
	if a.prof != nil {
		state.SetProfileSource(func() any {
			return map[string]any{
				"enabled":     true,
				"status":      a.prof.Status(),
				"attribution": a.prof.Attribution(),
			}
		})
	}
	if a.agents != nil {
		state.SetAgentsSource(func() any { return a.agents.Report() })
	}

	srv := &http.Server{Addr: addr, Handler: mapserver.NewHandler(state, mapserver.HandlerOpts{Pprof: pprofOn})}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	url := "http://" + addr
	if strings.HasPrefix(addr, ":") {
		url = "http://localhost" + addr
	}
	slog.Info("the Marauder's map is live",
		"component", "marauder", "url", url, "algo", algo,
		"device", a.victim.MAC.String(), "speedup", speedup)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if a.ckpt != nil && a.ckptPeriodic {
		go a.ckpt.Run(ctx)
	}
	recDone := make(chan struct{})
	if a.rec != nil {
		go func() { a.rec.Run(ctx); close(recDone) }()
	} else {
		close(recDone)
	}
	profDone := make(chan struct{})
	if a.prof != nil {
		go func() { a.prof.Run(ctx); close(profDone) }()
	} else {
		close(profDone)
	}
	if a.slos != nil {
		go a.slos.Run(ctx)
	}

	total := a.route.TotalDuration()
	simTime := 0.0
	ticker := time.NewTicker(500 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			// Graceful shutdown: flush delayed batches and snapshot the
			// store one last time so a restart resumes from here.
			a.drainHeld()
			if a.ckpt != nil {
				if path, err := a.ckpt.CheckpointNow(); err != nil {
					slog.Warn("final checkpoint failed", "component", "marauder", "err", err)
				} else {
					slog.Info("final checkpoint written", "component", "marauder", "path", path)
				}
			}
			// The recorder's Run takes its final sample on ctx cancel;
			// wait for it, then seal the file.
			<-recDone
			if err := a.rec.Close(); err != nil {
				slog.Warn("flight record close failed", "component", "marauder", "err", err)
			}
			<-profDone
			if err := a.prof.Close(); err != nil {
				slog.Warn("profiler close failed", "component", "marauder", "err", err)
			}
			shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			return srv.Shutdown(shutdownCtx)
		case err := <-errCh:
			if errors.Is(err, http.ErrServerClosed) {
				return nil
			}
			return err
		case <-ticker.C:
			next := simTime + speedup/2
			if next > total {
				next = total
			}
			if a.localCapture {
				a.captureUpTo(simTime, next)
			}
			simTime = next
			simNow.Store(math.Float64bits(simTime))
			a.sniffer.UpdateHealthMetrics(simTime)
			if a.trains {
				if err := a.eng.RefreshKnowledge(); err != nil {
					// Not enough data yet; the next tick retries.
					slog.Debug("knowledge refresh deferred",
						"component", "marauder", "algo", algo, "err", err)
					continue
				}
			}
			// One full frame of the map: every observed device localized
			// across the engine's worker pool.
			frame := a.eng.Snapshot(simTime - 22)
			state.PublishFrame(frame, func(m dot11.MAC) (geom.Point, bool) {
				if m == a.victim.MAC {
					return a.route.PosAt(simTime - 22), true
				}
				return geom.Point{}, false
			})
			if simTime >= total {
				simTime = 0 // loop the walk
				a.eng.ResetObservations()
				a.store = a.eng.Store()
			}
		}
	}
}
