package ops

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/faults"
	"repro/internal/flagcheck"
	"repro/internal/obs"
	"repro/internal/telemetry"
	"repro/internal/telemetry/ftdc"
	"repro/internal/telemetry/prof"
	"repro/internal/telemetry/slo"
	"repro/internal/telemetry/trace"
)

// Process is one command's running operational layer. Each service is
// nil when its flags leave it off; the recorder, profiler and SLO
// tracker are nil-safe.
//
// One registry sampler feeds the telemetry services: every
// -sample-interval it refreshes the runtime series and hands one
// registry snapshot, taken at one now, to both the flight recorder and
// the SLO tracker.
type Process struct {
	Tracer       *trace.Tracer
	Faults       *faults.Plan
	Checkpointer *obs.Checkpointer
	Recorder     *ftdc.Recorder
	Profiler     *prof.Profiler
	SLOs         *slo.Tracker
	// Store is the observation store to start from, under the Checkpoint
	// group: the newest valid checkpoint, else an empty -shards store.
	Store *obs.Store
	// Cursors are the capture agents' resume cursors saved with that
	// checkpoint; nil when it holds none.
	Cursors map[string]uint64

	f           *Flags
	log         *slog.Logger
	runtime     *telemetry.RuntimeSampler // nil without the FTDC or SLO group
	periodic    bool                      // -checkpoint-interval left periodic checkpoints on
	metrics     *http.Server
	metricsDone chan struct{}
}

// Start sets the process up from the parsed flags, in this order: the
// runtime profile rates, slog, the tracer, the metrics listener, the
// chaos plan, checkpoint recovery, then the runtime series, flight
// recorder, profiler, SLO tracker and checkpointer. The metrics address
// is bound here, so an address in use is Start's error. Nothing
// periodic runs yet.
func (f *Flags) Start() (*Process, error) {
	telemetry.SetProfileRates(f.mutexFraction, f.blockRate)
	logger, err := telemetry.SetupLogging(os.Stderr, f.logLevel, f.logFormat)
	if err != nil {
		return nil, err
	}
	p := &Process{f: f, log: logger.With("component", f.component)}
	if err := p.start(); err != nil {
		p.Close()
		return nil, err
	}
	return p, nil
}

func (p *Process) start() error {
	f := p.f
	ckptEvery, periodic := f.checkpointInterval, true
	if f.has(Checkpoint) && f.has(Serving) {
		ckptEvery, periodic = flagcheck.CheckpointInterval(f.checkpointInterval, func(format string, args ...any) {
			p.log.Info(fmt.Sprintf(format, args...))
		})
	}
	p.periodic = periodic
	if f.trace {
		var err error
		if p.Tracer, err = trace.New(trace.Config{Sample: f.traceSample, Buffer: f.traceBuffer}); err != nil {
			return err
		}
		p.log.Info("estimate tracing on", "sample_every", p.Tracer.SampleEvery(), "buffer", f.traceBuffer)
	}
	if f.metricsAddr != "" {
		ln, err := net.Listen("tcp", f.metricsAddr)
		if err != nil {
			return fmt.Errorf("-metrics-addr: %w", err)
		}
		p.metrics = HTTPServer(telemetry.Mux(telemetry.Default(), f.Pprof))
		p.metricsDone = make(chan struct{})
		go func() {
			defer close(p.metricsDone)
			if err := p.metrics.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
				p.log.Error("telemetry server failed", "addr", ln.Addr().String(), "err", err)
			}
		}()
		p.log.Info("telemetry listening", "addr", ln.Addr().String(), "pprof", f.Pprof)
	}
	if f.chaos {
		p.Faults = faults.Aggressive(f.chaosSeed)
		p.log.Info("chaos mode on", "seed", f.chaosSeed)
	}
	var recoveredGen uint64
	if f.checkpointDir != "" {
		store, info, err := obs.Recover(f.checkpointDir, f.shards)
		if err != nil {
			return err
		}
		for _, sk := range info.Skipped {
			p.log.Warn("checkpoint skipped", "path", sk.Path, "err", sk.Err)
		}
		if store != nil {
			p.Store, p.Cursors, recoveredGen = store, info.Meta.Cursors, info.Meta.Generation
			p.log.Info("observations restored from checkpoint", "path", info.Path,
				"generation", info.Meta.Generation, "records", info.Meta.Records,
				"agentCursors", len(info.Meta.Cursors), "skipped", len(info.Skipped))
		} else {
			p.log.Info("no checkpoint to restore", "dir", f.checkpointDir)
		}
	}
	if p.Store == nil && f.has(Checkpoint) {
		p.Store = obs.NewStoreShards(f.shards)
	}
	if f.has(sampled) {
		if f.sampleInterval <= 0 {
			return fmt.Errorf("-sample-interval must be positive, got %v", f.sampleInterval)
		}
		// The process runtime series (goroutines, heap, RSS, GC pause,
		// scheduler latency) show on /metrics with or without the recorder.
		p.runtime = telemetry.NewRuntimeSampler(nil)
	}
	if f.ftdcDir != "" {
		rec, err := ftdc.New(ftdc.Config{Dir: f.ftdcDir, Interval: f.sampleInterval})
		if err != nil {
			return err
		}
		p.Recorder = rec
		p.log.Info("flight recorder on", "path", rec.Path(), "interval", f.sampleInterval)
	}
	if f.profDir != "" {
		interval := f.profCPU // a finite run captures one cycle
		if f.has(Serving) {
			interval = f.profInterval
		}
		pr, err := prof.New(prof.Config{Dir: f.profDir, Interval: interval, CPUDuration: f.profCPU})
		if err != nil {
			return err
		}
		p.Profiler = pr
		p.log.Info("profiler on", "dir", f.profDir, "interval", interval, "cpu", f.profCPU)
	}
	objs := f.slos
	if f.sloDefaults {
		objs = append(slo.DefaultObjectives(), objs...)
	}
	if len(objs) > 0 {
		trk, err := slo.New(slo.Config{Objectives: objs})
		if err != nil {
			return err
		}
		p.SLOs = trk
		p.log.Info("slo tracking on", "objectives", len(objs), "interval", f.sampleInterval)
	}
	if f.checkpointDir != "" {
		p.Checkpointer = &obs.Checkpointer{Dir: f.checkpointDir, Interval: ckptEvery}
		p.Checkpointer.SetGeneration(recoveredGen)
	}
	return nil
}

// RunFinite runs work as one finite pass. With -prof-dir a single
// profiler cycle covers it: the CPU capture is live before work starts
// and is cut short when work returns, and its hot-function attribution is
// printed. After work succeeds, the sampler takes its one end-of-run
// sample and the final checkpoint snapshots the store work returned.
func (p *Process) RunFinite(work func() (*obs.Store, error)) error {
	stopProfile := p.profileCycle()
	defer stopProfile()
	store, err := work()
	if err != nil {
		return err
	}
	if err := p.sample(); err != nil {
		p.log.Warn("flight record sample failed", "err", err)
	}
	if p.Checkpointer == nil {
		return nil
	}
	p.Checkpointer.Source = func() *obs.Store { return store }
	return p.finalCheckpoint()
}

// Background runs a serving loop's services until ctx is cancelled:
// periodic checkpoints of store, the registry sampler and the profiler.
// Call the returned shutdown once ctx is done and the loop has flushed
// what it holds: it waits for the services, whose sampler takes a last
// sample, then writes the final checkpoint.
func (p *Process) Background(ctx context.Context, store func() *obs.Store) (shutdown func()) {
	var wg sync.WaitGroup
	runs := []func(context.Context){p.runSampler, p.Profiler.Run}
	if p.Checkpointer != nil {
		p.Checkpointer.Source = store
		if p.periodic {
			runs = append(runs, p.Checkpointer.Run)
		}
	}
	for _, run := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(ctx)
		}()
	}
	return func() {
		wg.Wait()
		if p.Checkpointer != nil {
			if err := p.finalCheckpoint(); err != nil {
				p.log.Warn("final checkpoint failed", "err", err)
			}
		}
	}
}

// runSampler samples at once, then every -sample-interval until ctx is
// cancelled, and once more on the way out to capture the shutdown state.
func (p *Process) runSampler(ctx context.Context) {
	if p.runtime == nil {
		return
	}
	_ = p.sample() // an append error stays in the recorder's Status
	t := time.NewTicker(p.f.sampleInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			_ = p.sample()
			return
		case <-t.C:
			_ = p.sample()
		}
	}
}

// sample is one tick of the registry sampler: it refreshes the runtime
// series, then, when the recorder or the SLO tracker is on, takes one
// registry snapshot and hands it to both at the same now. It returns the
// recorder's append error.
func (p *Process) sample() error {
	if p.runtime == nil {
		return nil
	}
	p.runtime.Sample()
	if p.Recorder == nil && p.SLOs == nil {
		return nil
	}
	now, snap := time.Now(), telemetry.Default().Snapshot()
	p.SLOs.Observe(now, snap)
	return p.Recorder.Append(now, snap)
}

// Close ends the process after the last checkpoint: it seals the flight
// recorder, then closes the profiler, then stops the metrics listener.
// Every step is idempotent.
func (p *Process) Close() {
	if err := p.Recorder.Close(); err != nil {
		p.log.Warn("flight record close failed", "err", err)
	}
	if err := p.Profiler.Close(); err != nil {
		p.log.Warn("profiler close failed", "err", err)
	}
	if p.metrics != nil {
		_ = p.metrics.Close() // its only error is the listener's close
		<-p.metricsDone
		p.metrics = nil
	}
}

func (p *Process) finalCheckpoint() error {
	path, err := p.Checkpointer.CheckpointNow()
	if err != nil {
		return fmt.Errorf("final checkpoint: %w", err)
	}
	p.log.Info("final checkpoint written", "path", path, "generation", p.Checkpointer.Generation())
	return nil
}

// profileCycle starts a finite run's profiler cycle and returns once its
// CPU capture is live, so the capture covers the run even on one CPU.
// The returned stop cuts the capture short, waits for the cycle and
// prints its attribution.
func (p *Process) profileCycle() (stop func()) {
	if p.Profiler == nil {
		return func() {}
	}
	ctx, cancel := context.WithCancel(context.Background())
	done, started := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		if err := p.Profiler.CycleSignaled(ctx, started); err != nil {
			p.log.Warn("profiler cycle failed", "err", err)
		}
	}()
	<-started
	return func() {
		cancel()
		<-done
		attr, dir := p.Profiler.Attribution(), p.Profiler.Status().Dir
		switch {
		case attr == nil:
		case len(attr.TopFunctions) > 0:
			hot := attr.TopFunctions[0]
			fmt.Printf("profile: %d samples, hottest %s (%.1f%% flat), artifacts in %s\n",
				attr.Samples, hot.Name, 100*hot.FlatShare, dir)
		default:
			fmt.Printf("profile: %d samples (run too brief for attribution), artifacts in %s\n", attr.Samples, dir)
		}
	}
}

// ReadHeaderTimeout bounds how long a command's HTTP servers wait for a
// request's headers, so a peer that trickles them cannot hold a
// connection and its goroutine open indefinitely.
const ReadHeaderTimeout = 10 * time.Second

// HTTPServer builds a command's HTTP server for h: the metrics listener
// and a serving command's own port.
func HTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: ReadHeaderTimeout}
}

// StopContext returns a context cancelled on SIGINT or SIGTERM, the stop
// signals of every command; its cancel restores default signal handling.
func StopContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}
