// Command marauder runs the full digital Marauder's map attack end to end
// on a simulated campus: deploy APs, walk a victim device around, capture
// its probing traffic with the LNA receiver chain, localize it continuously
// with the selected algorithm, and serve the live map on an HTTP port.
//
// Usage:
//
//	marauder [-addr :8642] [-algo mloc|aprad|aploc|centroid|closest]
//	         [-seed 1] [-aps 300] [-speedup 50] [-workers 0] [-once]
//	         [-agents-listen :7642] [-local-capture=true] [-ingest-stale-after 0]
//	         [operational flags]
//
// All five of the paper's algorithms select through the same
// core.Localizer interface and drive the same engine pipeline. With -once
// the attack runs a single pass and prints per-fix accuracy instead of
// serving the map.
//
// The map port serves the map, /metrics, /debug/vars and the /api/*
// endpoints (state, trace, explain, health, slo, profile, agents); with
// -pprof it also mounts net/http/pprof.
//
// -agents-listen starts the distributed capture plane: a capwire server
// accepting remote capture agents (cmd/capagent) that stream frame
// batches over TCP with resumable cursors, served alongside the local
// fleet. Per-agent liveness, lag and resume accounting shows at
// /api/agents and in /api/health; with -checkpoint-dir the agents' ack
// cursors are saved inside each observation checkpoint, read before the
// store it holds, so a restart resumes every agent from the cursor of
// the checkpoint it restores. -local-capture=false
// turns the in-process sniffer fleet off (remote agents become the only
// capture source); -ingest-stale-after degrades /api/health when any
// capture source delivers nothing for that long.
//
// The operational flags — logging, -metrics-addr and -pprof, tracing,
// -chaos, checkpoints, the profiler, the flight recorder and SLOs — are
// internal/ops's, shared with cmd/replay and cmd/capagent and listed in
// the README. A flag that only tunes a feature the command line never
// enabled is an error.
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
	"sync/atomic"
	"time"

	"repro/internal/capwire"
	"repro/internal/core"
	"repro/internal/dot11"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/mapserver"
	"repro/internal/obs"
	"repro/internal/ops"
	"repro/internal/rf"
	"repro/internal/sim"
	"repro/internal/sniffer"
	"repro/internal/wardrive"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		slog.Error("attack failed", "component", "marauder", "err", err)
		os.Exit(1)
	}
}

type attack struct {
	campus  *sim.Campus
	eng     *engine.Engine
	sniffer *sniffer.Sniffer
	// know is the true AP knowledge (for the map's AP layer).
	know core.Knowledge
	// baseKnow is the knowledge the engine trains from: true positions in
	// aprad mode, wardrive-trained ones in aploc mode.
	baseKnow core.Knowledge
	// trains marks the trained modes that need RefreshKnowledge.
	trains bool
	// injector perturbs capture batches (drop/dup/reorder/delay) before
	// ingest; nil when -chaos is off.
	injector *sniffer.FaultInjector
	// ops holds the chaos plan, checkpointer, flight recorder, profiler
	// and SLO tracker the health report reads; each is nil when off.
	ops *ops.Process
	// agents is the capwire server for remote capture agents; nil when
	// -agents-listen is unset.
	agents *capwire.Server
	// localCapture mirrors -local-capture: false turns the in-process
	// sniffer fleet off so remote agents are the only capture source.
	localCapture bool
}

// attackOpts is the full build configuration; buildAttack keeps the
// short test-facing signature.
type attackOpts struct {
	Seed    int64
	APs     int
	Algo    string
	Workers int
	// Ops, when non-nil, supplies the tracer, the starting store and the
	// chaos plan, which drives the sniffer's card schedules and a batch
	// injector on the capture path.
	Ops *ops.Process
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
		drive := sim.NewRouteWalk(sim.Sweep(300, 100, true), 10)
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

func buildAttackOpts(o attackOpts) (*attack, error) {
	c, err := sim.NewCampus(o.Seed, o.APs)
	if err != nil {
		return nil, err
	}
	knowInfos := make([]core.APInfo, 0, len(c.World.APs))
	for _, ap := range c.World.APs {
		knowInfos = append(knowInfos, core.APInfo{BSSID: ap.MAC, Pos: ap.Pos, MaxRange: ap.MaxRange})
	}
	know := core.NewKnowledge(knowInfos)

	locate, base, err := newLocalizer(o.Algo, know, c.World)
	if err != nil {
		return nil, err
	}
	// For trained modes the engine starts on the radius-less base: fixes
	// fail (no usable discs) until RefreshKnowledge swaps trained radii in.
	_, trains := locate.(core.KnowledgeTrainer)
	p := o.Ops
	if p == nil {
		p = &ops.Process{}
	}
	store := p.Store
	if store == nil {
		store = obs.NewStore()
	}
	eng, err := engine.New(engine.Config{
		Know:             base,
		Store:            store,
		Localizer:        locate,
		WindowSec:        45,
		Workers:          o.Workers,
		Tracer:           p.Tracer,
		StaleIngestAfter: o.StaleIngestAfter,
	})
	if err != nil {
		return nil, err
	}
	a := &attack{
		campus: c,
		eng:    eng,
		know:   know,
		sniffer: sniffer.New(sniffer.Config{
			Pos:    geom.Pt(0, 0),
			Chain:  rf.ChainLNA(),
			Plan:   dot11.DefaultPlan(),
			Faults: p.Faults,
		}),
		baseKnow:     base,
		trains:       trains,
		ops:          p,
		localCapture: true,
	}
	if p.Faults.Enabled() {
		a.injector = &sniffer.FaultInjector{Plan: p.Faults}
	}
	return a, nil
}

// captureUpTo simulates and captures the victim's probing traffic in
// [from, to) seconds of route time as one batch and delivers it to the
// engine through the store's sharded batch-ingest path.
func (a *attack) captureUpTo(from, to float64) {
	batch := a.sniffer.CaptureAll(a.campus.Scans(from, to))
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
	if rs := a.ops.SLOs.HealthReasons(); len(rs) > 0 {
		h.Status = mapserver.StatusDegraded
		h.Reasons = append(h.Reasons, rs...)
	}
	// Remote capture agents: accounting mismatches degrade. A silent
	// agent is a silent capture source, which the engine's check above
	// already reports past -ingest-stale-after.
	if a.agents != nil {
		if rs := a.agents.HealthReasons(); len(rs) > 0 {
			h.Status = mapserver.StatusDegraded
			h.Reasons = append(h.Reasons, rs...)
		}
	}
	detail := map[string]any{"engine": eh, "cards": cards}
	if a.agents != nil {
		detail["agents"] = a.agents.Totals()
	}
	if a.ops.Faults.Enabled() {
		detail["faults"] = a.ops.Faults.Counters()
	}
	if a.ops.Checkpointer != nil {
		detail["checkpointGeneration"] = a.ops.Checkpointer.Generation()
	}
	detail["ftdc"] = a.ops.Recorder.Status()
	detail["profiler"] = a.ops.Profiler.Status()
	h.Detail = detail
	return h
}

// config is marauder's command line: the flags it owns plus the
// operational groups it takes from ops.
type config struct {
	ops                      *ops.Flags
	addr, algo, agentsListen string
	seed                     int64
	aps, workers             int
	speedup                  float64
	once, localCapture       bool
	staleAfter               time.Duration
}

func newFlags() (*flag.FlagSet, *config) {
	fs := flag.NewFlagSet("marauder", flag.ContinueOnError)
	c := &config{ops: ops.Register(fs, "marauder",
		ops.Metrics|ops.Pprof|ops.Trace|ops.Chaos|ops.Checkpoint|ops.Prof|ops.FTDC|ops.SLO|ops.Serving)}
	fs.StringVar(&c.addr, "addr", ":8642", "HTTP listen address for the map")
	fs.StringVar(&c.algo, "algo", "mloc", "localization algorithm: mloc, aprad, aploc, centroid or closest")
	fs.Int64Var(&c.seed, "seed", 1, "random seed")
	fs.IntVar(&c.aps, "aps", 300, "number of deployed APs")
	fs.Float64Var(&c.speedup, "speedup", 50, "simulated seconds per wall second")
	fs.IntVar(&c.workers, "workers", 0, "snapshot worker pool size (0 = GOMAXPROCS)")
	fs.BoolVar(&c.once, "once", false, "run one pass and print accuracy instead of serving")
	fs.StringVar(&c.agentsListen, "agents-listen", "", "TCP listen address for remote capture agents (capwire protocol; empty = no agent plane)")
	fs.BoolVar(&c.localCapture, "local-capture", true, "run the in-process sniffer fleet (false = remote agents are the only capture source)")
	fs.DurationVar(&c.staleAfter, "ingest-stale-after", 0, "degrade /api/health when a capture source delivers nothing for this long (0 = off)")
	return fs, c
}

func run(args []string) error {
	fs, c := newFlags()
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := c.ops.Checker().Err(); err != nil {
		return err
	}
	if !c.localCapture && c.agentsListen == "" {
		return errors.New("-local-capture=false without -agents-listen leaves no capture source")
	}
	if c.once && c.agentsListen != "" {
		return errors.New("-agents-listen needs the serving loop; it cannot be combined with -once")
	}
	p, err := c.ops.Start()
	if err != nil {
		return err
	}
	defer p.Close()

	a, err := buildAttackOpts(attackOpts{
		Seed: c.seed, APs: c.aps, Algo: c.algo, Workers: c.workers, Ops: p, StaleIngestAfter: c.staleAfter,
	})
	if err != nil {
		return err
	}
	a.localCapture = c.localCapture

	if c.agentsListen != "" {
		capSrv, err := listenAgents(a, c.agentsListen)
		if err != nil {
			return err
		}
		defer capSrv.Close()
	}

	if c.once {
		return p.RunFinite(func() (*obs.Store, error) {
			err := runOnce(a, c.algo)
			return a.eng.Store(), err
		})
	}
	return serve(a, p, c)
}

// listenAgents starts the distributed capture plane: remote agents
// stream batches in and ingest under per-agent source names. Their
// resume cursors start from the restored checkpoint and are saved inside
// every later one.
func listenAgents(a *attack, addr string) (*capwire.Server, error) {
	capSrv, err := capwire.NewServer(capwire.ServerConfig{
		Ingest: func(agentID string, caps []sniffer.Capture) int {
			return a.eng.IngestCapturesFrom("agent:"+agentID, caps)
		},
		Cursors: a.ops.Cursors,
		Logf: func(format string, args ...any) {
			slog.Info(fmt.Sprintf(format, args...), "component", "capwire")
		},
	})
	if err != nil {
		return nil, err
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		capSrv.Close()
		return nil, err
	}
	go serveAgents(capSrv, lis)
	a.agents = capSrv
	if a.ops.Checkpointer != nil {
		a.ops.Checkpointer.Cursors = capSrv.Cursors
	}
	slog.Info("capture agent plane listening", "component", "marauder",
		"addr", lis.Addr().String(), "localCapture", a.localCapture)
	return capSrv, nil
}

// serveAgents runs the agent server on lis until it stops. Close makes
// Serve return the closed listener's error: that is a clean stop, and
// only any other error is logged.
func serveAgents(srv *capwire.Server, lis net.Listener) {
	if err := srv.Serve(lis); err != nil && !errors.Is(err, net.ErrClosed) {
		slog.Error("agent server failed", "component", "marauder", "err", err)
	}
}

// runOnce captures the victim's whole route, localizes it and prints
// per-fix accuracy.
func runOnce(a *attack, algo string) error {
	total := a.campus.Route.TotalDuration()
	a.captureUpTo(0, total)
	a.drainHeld()
	if a.trains {
		if err := a.eng.RefreshKnowledge(); err != nil {
			return err
		}
	}
	victim := a.campus.Victim.MAC
	points, err := a.eng.Track(victim, 0, total, 60)
	if err != nil {
		return err
	}
	if len(points) == 0 {
		return errors.New("no fixes produced")
	}
	var sum float64
	for _, p := range points {
		truth := a.campus.Route.PosAt(p.TimeSec)
		e := core.Error(p.Est, truth)
		sum += e
		fmt.Printf("t=%6.0fs k=%2d est=%v truth=%v err=%.1fm\n",
			p.TimeSec, p.Est.K, p.Est.Pos, truth, e)
	}
	stats := a.eng.Stats()
	fmt.Printf("fixes=%d average error=%.2fm algorithm=%s cache=%d/%d hits\n",
		len(points), sum/float64(len(points)), algo, stats.CacheHits, stats.Fixes)
	if p, ok := a.eng.Tracer().Explain(victim.String()); ok {
		fmt.Printf("last fix explained: trace=%s k=%d area=%.1fm² theorem2=%.1fm² cacheHit=%v stages=%v\n",
			p.TraceID, p.K, p.IntersectedAreaM2, p.Theorem2AreaM2, p.CacheHit, p.StagesMs)
	}
	return nil
}

// mapServer is the map's HTTP server: the map UI, its JSON API with the
// status providers in opts and, with -pprof, the profiling endpoints.
func mapServer(state *mapserver.State, opts mapserver.HandlerOpts) *http.Server {
	return ops.HTTPServer(mapserver.NewHandler(state, opts))
}

func serve(a *attack, p *ops.Process, c *config) error {
	state := mapserver.NewState()
	state.APsFromKnowledge(a.know)
	state.SetTracer(a.eng.Tracer())
	// simNow mirrors the serve loop's simulated clock for the health
	// endpoint, which runs on HTTP goroutines.
	var simNow atomic.Uint64
	opts := mapserver.HandlerOpts{
		Pprof: c.ops.Pprof,
		Stats: func() any {
			st := a.eng.Stats()
			return map[string]any{
				"algo":       c.algo,
				"engine":     st,
				"shardLens":  a.eng.Store().ShardLens(),
				"obsDevices": a.eng.Store().DeviceCount(),
				"trace":      a.eng.Tracer().Stats(),
			}
		},
		Health: func() mapserver.Health {
			return a.health(math.Float64frombits(simNow.Load()))
		},
	}
	if p.SLOs != nil {
		opts.SLO = func() any { return p.SLOs.Report() }
	}
	if p.Profiler != nil {
		opts.Profile = func() any {
			return map[string]any{
				"enabled":     true,
				"status":      p.Profiler.Status(),
				"attribution": p.Profiler.Attribution(),
			}
		}
	}
	if a.agents != nil {
		opts.Agents = func() any { return a.agents.Report() }
	}

	ln, err := net.Listen("tcp", c.addr)
	if err != nil {
		return err
	}
	srv := mapServer(state, opts)
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	url := mapserver.URL(c.addr)
	victim, route := a.campus.Victim.MAC, a.campus.Route
	slog.Info("the Marauder's map is live",
		"component", "marauder", "url", url, "algo", c.algo,
		"device", victim.String(), "speedup", c.speedup)

	ctx, stop := ops.StopContext()
	defer stop()
	shutdown := p.Background(ctx, a.eng.Store)

	total := route.TotalDuration()
	simTime := 0.0
	ticker := time.NewTicker(500 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			// Graceful shutdown: flush delayed batches so the final
			// checkpoint holds them and a restart resumes from here.
			a.drainHeld()
			shutdown()
			shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			return srv.Shutdown(shutdownCtx)
		case err := <-errCh:
			stop()
			shutdown()
			return err
		case <-ticker.C:
			next := simTime + c.speedup/2
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
						"component", "marauder", "algo", c.algo, "err", err)
					continue
				}
			}
			// One full frame of the map: every observed device localized
			// across the engine's worker pool.
			frame := a.eng.Snapshot(simTime - 22)
			state.PublishFrame(frame, func(m dot11.MAC) (geom.Point, bool) {
				if m == victim {
					return route.PosAt(simTime - 22), true
				}
				return geom.Point{}, false
			})
			if simTime >= total {
				simTime = 0 // loop the walk
				a.eng.ResetObservations()
			}
		}
	}
}
