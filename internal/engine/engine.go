// Package engine owns the digital Marauder's map pipeline: it ingests
// captured frames into the observation store, keeps the localization
// knowledge trained as observations accumulate, and localizes devices —
// one of them, or every device of a map frame in parallel across a worker
// pool. Every front-end (cmd/marauder, cmd/replay, the map server loop,
// the examples) drives this type instead of hand-wiring
// capture→ingest→localize itself.
//
// The engine memoizes estimates by canonicalized Γ: localization is a
// pure function of (knowledge, Γ), identical AP sets recur constantly
// across windows and devices, and knowledge changes are explicit
// (SetKnowledge / RefreshKnowledge). Everything a fix reads — store,
// knowledge, its generation, the training record and the Γ cache — is one
// immutable view, loaded once per fix, track or map frame; a knowledge
// change publishes a view with a fresh cache, so a cached estimate is only
// ever served for the knowledge it was computed against. The cache is
// sharded, evicts one entry at a time by CLOCK, and is sized from the
// store's device count, so the Γ working set of a stable population stays
// resident across map frames. Fix, Track and the snapshot workers share
// one fix path: a step of an obs.Sweep over the device's log, then the
// cache or the localizer, then tracing. Track drives one sweep through
// all its steps, and with the cache on a fix whose Γ equals the last one
// its caller answered reuses that answer, counted as a cache hit.
package engine

import (
	"errors"
	"fmt"
	"log/slog"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dot11"
	"repro/internal/obs"
	"repro/internal/sniffer"
	"repro/internal/telemetry/trace"
)

// Config assembles an Engine.
type Config struct {
	// Know is the AP knowledge base. For trained algorithms (AP-Rad,
	// AP-Loc) it is the training base — positions without radii, or nil —
	// and the working knowledge is produced by RefreshKnowledge.
	Know core.Knowledge
	// Store supplies the observations; nil creates an empty store.
	Store *obs.Store
	// Localizer is the algorithm; nil means M-Loc.
	Localizer core.Localizer
	// WindowSec is the observation window width; a device's Γ for a fix
	// at time t is everything observed in [t−WindowSec/2, t+WindowSec/2).
	// Required.
	WindowSec float64
	// Workers caps snapshot parallelism; ≤ 0 means GOMAXPROCS.
	Workers int
	// CacheSize switches the Γ-memoization cache: negative disables it;
	// 0 (the default) sizes it from the store's device count (two entries
	// per device seen, at least 4096). Positive values are rejected.
	CacheSize int
	// Tracer samples localizations into per-estimate traces and
	// provenance records. nil disables tracing at zero cost.
	Tracer *trace.Tracer
	// StaleIngestAfter flags a capture source (the local sniffer fleet or
	// a remote capwire agent) as stale in Health when it has delivered
	// nothing for this long after having delivered at least once — so a
	// silently dead capture path degrades /api/health instead of starving
	// the map quietly. 0 disables the check.
	StaleIngestAfter time.Duration
}

// Engine runs the concurrent ingest→observe→localize pipeline. It is safe
// for concurrent use: captures may stream in while snapshots run.
type Engine struct {
	loc       core.Localizer
	windowSec float64
	workers   int

	base   core.Knowledge // immutable training base
	tracer *trace.Tracer

	// view is the state fixes read; writeMu serializes the writers that
	// publish its successors (SetKnowledge, ResetObservations, refresh).
	view    atomic.Pointer[view]
	writeMu sync.Mutex

	// rejects is the bounded quarantine for corrupt/undecodable captures.
	rejects quarantine

	// srcMu guards sources, the per-capture-source delivery liveness used
	// by Health to flag silently dead paths (see sources.go).
	srcMu      sync.Mutex
	sources    map[string]*sourceState
	staleAfter time.Duration

	fixes     atomic.Uint64
	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64

	// stageCtr drives the deterministic 1-in-stageSampleEvery fix timing.
	stageCtr atomic.Uint64

	// trainedOnce flips when a training run first succeeds: from then on a
	// failed refresh degrades to the last-known-good knowledge instead of
	// erroring the pipeline.
	trainedOnce   atomic.Bool
	refreshRetry  atomic.Uint64
	refreshFail   atomic.Uint64 // consecutive failed RefreshKnowledge calls
	refreshFellBk atomic.Uint64
}

// view is one consistent state of the engine: a fix reads its window from
// store and localizes against know through cache, and its provenance
// names gen and training. A published view is never modified; a change
// publishes a copy. know and cache change together — a knowledge change
// brings a fresh, empty cache — so a result computed against the old
// knowledge can only land in the old cache, which no later fix reads.
type view struct {
	store *obs.Store
	know  core.Knowledge
	// gen counts knowledge changes since construction.
	gen uint64
	// training is the provenance of the latest RefreshKnowledge run (nil
	// before the first).
	training *trace.TrainingInfo
	// cache memoizes localizations against know; nil when disabled.
	cache *gammaCache
}

// Stats counts engine work since construction.
type Stats struct {
	// Fixes is the number of localization requests answered (cached or
	// computed), successful or not. A map frame asks only for its window's
	// candidates (obs.Store.WindowCandidates), so a device the time index
	// rules out of the window is not a fix, where a Fix call for it is.
	Fixes uint64
	// CacheHits is how many of them were served from the Γ cache,
	// including the fixes (mostly Track steps) that reused the answer of
	// the same Γ their caller had just been given.
	CacheHits uint64
	// CacheMisses is how many ran the localization algorithm.
	CacheMisses uint64
	// CacheEvictions is how many cache entries were dropped — by CLOCK
	// eviction from a full shard or with a cache a knowledge change
	// retired.
	CacheEvictions uint64
	// CacheEntries is how many entries the Γ cache holds now.
	CacheEntries int
	// CacheCapacity is the Γ cache's entry budget for the current store:
	// two per device seen, at least 4096. Both are 0 with the cache
	// disabled.
	CacheCapacity int
	// Workers is the resolved snapshot worker-pool size.
	Workers int
	// ObsShards is the observation store's shard count.
	ObsShards int
	// ObsRecords is the observation store's pairwise record count.
	ObsRecords int
	// KnowledgeGen counts knowledge-base swaps since construction — the
	// generation the provenance of new estimates references.
	KnowledgeGen uint64
	// Quarantined is the number of captures diverted to the reject queue
	// instead of ingested.
	Quarantined uint64
}

// logWorkersOnce makes the resolved-worker startup log fire once per
// process: on a 1-vCPU box the GOMAXPROCS default silently serializes
// snapshots, and the log line is what makes that self-explaining.
var logWorkersOnce sync.Once

// New builds an Engine and validates the configuration.
func New(cfg Config) (*Engine, error) {
	if cfg.WindowSec <= 0 {
		return nil, fmt.Errorf("engine: WindowSec must be > 0, got %v", cfg.WindowSec)
	}
	if cfg.CacheSize > 0 {
		return nil, fmt.Errorf("engine: CacheSize must be 0 (sized from the store) or negative (disabled), got %d", cfg.CacheSize)
	}
	loc := cfg.Localizer
	if loc == nil {
		loc = core.MLocalizer{}
	}
	store := cfg.Store
	if store == nil {
		store = obs.NewStore()
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	mWorkers.Set(float64(workers))
	logWorkersOnce.Do(func() {
		slog.Info("engine worker pool resolved",
			"component", "engine",
			"workers", workers,
			"configured", cfg.Workers,
			"gomaxprocs", runtime.GOMAXPROCS(0),
			"algo", loc.Name())
	})
	e := &Engine{
		loc:        loc,
		windowSec:  cfg.WindowSec,
		workers:    workers,
		base:       cfg.Know,
		tracer:     cfg.Tracer,
		staleAfter: max(cfg.StaleIngestAfter, 0),
	}
	v := &view{store: store, know: cfg.Know}
	if cfg.CacheSize == 0 {
		v.cache = newGammaCache()
	}
	e.view.Store(v)
	return e, nil
}

// Localizer returns the engine's algorithm.
func (e *Engine) Localizer() core.Localizer { return e.loc }

// Tracer returns the engine's tracer (nil when tracing is disabled), so
// front-ends can serve its ring dump and per-device explanations.
func (e *Engine) Tracer() *trace.Tracer { return e.tracer }

// Store returns the observation store the engine ingests into. The store
// is safe for concurrent use, so callers may also feed or query it
// directly.
func (e *Engine) Store() *obs.Store { return e.view.Load().store }

// Ingest feeds one captured frame into the observation store.
func (e *Engine) Ingest(timeSec float64, f *dot11.Frame, fromAP bool) {
	mFramesIngested.Inc()
	e.Store().Ingest(timeSec, f, fromAP)
}

// IngestCaptures feeds a batch of sniffer captures through the store's
// batched ingest path — grouped by shard, one lock acquisition per shard
// per batch instead of one per frame — and returns how many were ingested.
//
// Corrupt captures never poison the store: a capture without a decoded
// frame gets one decode attempt from its raw bytes and is otherwise
// diverted to the counted quarantine queue (see Quarantine) instead of
// erroring the batch or silently disappearing.
func (e *Engine) IngestCaptures(caps []sniffer.Capture) int {
	return e.IngestCapturesFrom(SourceLocal, caps)
}

// IngestCapturesFrom is IngestCaptures with an explicit capture-source
// name (SourceLocal for the in-process sniffers, "agent:<id>" for remote
// capwire agents). Any non-empty delivery — even one that quarantines
// every capture — marks the source alive, because the path itself worked;
// content problems are the quarantine counters' job.
func (e *Engine) IngestCapturesFrom(source string, caps []sniffer.Capture) int {
	if len(caps) == 0 {
		return 0
	}
	if source != "" {
		e.markSource(source, len(caps))
	}
	start := time.Now()
	batch := make([]obs.FrameCapture, 0, len(caps))
	quarantined := 0
	for _, c := range caps {
		if c.Frame == nil {
			var reason string
			if len(c.Raw) > 0 {
				if f, err := dot11.Decode(c.Raw); err == nil {
					c.Frame = f
				} else {
					reason = ReasonUndecodable
				}
			} else {
				reason = ReasonMissingFrame
			}
			if reason != "" {
				e.quarantine(QuarantinedCapture{
					TimeSec:     c.TimeSec,
					Reason:      reason,
					RawLen:      len(c.Raw),
					CardChannel: c.CardChannel,
				})
				quarantined++
				continue
			}
		}
		batch = append(batch, obs.FrameCapture{TimeSec: c.TimeSec, Frame: c.Frame, FromAP: c.FromAP})
	}
	e.Store().IngestFrames(batch)
	mFramesIngested.Add(uint64(len(batch)))
	dur := time.Since(start)
	mStageIngest.Observe(dur.Seconds())
	if tr := e.tracer.Start(trace.KindIngest, ""); tr != nil {
		attrs := map[string]any{"frames": len(caps)}
		if quarantined > 0 {
			attrs["quarantined"] = quarantined
		}
		tr.Finish(start, dur, nil, trace.Span{Name: "ingest", DurUS: dur.Microseconds(), Attrs: attrs})
	}
	return len(batch)
}

// Quarantine reports the reject queue: totals per reason and the newest
// retained samples.
func (e *Engine) Quarantine() QuarantineStats { return e.rejects.stats() }

// ResetObservations discards all accumulated observations (a fresh store)
// while keeping knowledge and cache: localization is a function of
// (knowledge, Γ) only, so previously memoized Γ keys stay valid. The
// cache's capacity follows the fresh store's device count, so later
// inserts evict it back down to the floor.
func (e *Engine) ResetObservations() {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	v := *e.view.Load()
	// Keep the configured shard count: a reset changes the contents, not
	// the store's concurrency shape.
	v.store = obs.NewStoreShards(v.store.ShardCount())
	e.view.Store(&v)
}

// Knowledge returns the active working knowledge base.
func (e *Engine) Knowledge() core.Knowledge { return e.view.Load().know }

// SetKnowledge swaps in a new working knowledge base with a fresh Γ
// cache, keeping the current training record. The swap is exact: when the
// new base holds the same entries as the current one — the common case of
// a retrain over unchanged observations — nothing changed that a cached
// estimate could depend on, so the generation and the cache are kept. The
// snapshot-epoch fast path makes the unchanged check O(1) when the base is
// literally the same snapshot, falling back to a content comparison
// otherwise.
func (e *Engine) SetKnowledge(k core.Knowledge) {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	e.view.Store(e.withKnowledge(k))
}

// withKnowledge returns the current view with knowledge k: with the next
// generation and a fresh cache when k differs from the current knowledge.
// The retired cache's entries count as evictions. The caller holds
// writeMu and publishes the result.
func (e *Engine) withKnowledge(k core.Knowledge) *view {
	v := *e.view.Load()
	if k.Epoch() != v.know.Epoch() && !k.Equal(v.know) {
		v.gen++
		if v.cache != nil {
			dropped := uint64(v.cache.len())
			e.evictions.Add(dropped)
			mCacheEvictions.Add(dropped)
			mCacheEntries.Set(0)
			v.cache = newGammaCache()
		}
	}
	v.know = k
	return &v
}

// RefreshKnowledge's retry loop: refreshAttempts training runs at most,
// the first retry after refreshBackoff, each further one after twice the
// delay before it.
const (
	refreshAttempts = 3
	refreshBackoff  = 25 * time.Millisecond
)

// RefreshKnowledge re-trains the working knowledge from everything
// observed so far when the algorithm learns from observations (AP-Rad
// estimates radii, AP-Loc estimates positions too). For algorithms that
// take knowledge as given it is a no-op.
//
// A failed training run no longer wedges the pipeline: the run is tried
// up to refreshAttempts times with exponential backoff, and once
// any training run has ever succeeded, exhausting the retries degrades to
// the last-known-good knowledge (returning nil, counted in Health as a
// fallback) instead of surfacing the error. Before the first success
// there is nothing good to fall back on, so the error propagates.
func (e *Engine) RefreshKnowledge() error {
	trainer, ok := e.loc.(core.KnowledgeTrainer)
	if !ok {
		return nil
	}
	var err error
	for attempt := 0; attempt < refreshAttempts; attempt++ {
		if attempt > 0 {
			e.refreshRetry.Add(1)
			mRefreshRetries.Inc()
			time.Sleep(refreshBackoff << (attempt - 1))
		}
		if err = e.refreshOnce(trainer); err == nil {
			e.trainedOnce.Store(true)
			e.refreshFail.Store(0)
			return nil
		}
	}
	e.refreshFail.Add(1)
	if e.trainedOnce.Load() {
		e.refreshFellBk.Add(1)
		mRefreshFallbacks.Inc()
		slog.Warn("knowledge refresh failed; keeping last-known-good knowledge",
			"component", "engine",
			"algo", e.loc.Name(),
			"attempts", refreshAttempts,
			"gen", e.view.Load().gen,
			"err", err)
		return nil
	}
	return err
}

// refreshOnce runs one training attempt end to end.
func (e *Engine) refreshOnce(trainer core.KnowledgeTrainer) error {
	start := time.Now()
	store := e.Store()
	var (
		trained   core.Knowledge
		diag      core.TrainDiag
		diagnosed bool
		err       error
	)
	if dt, ok := trainer.(core.DiagnosedTrainer); ok {
		trained, diag, err = dt.TrainDiagnosed(e.base, store.DeviceAPSets())
		diagnosed = true
	} else {
		trained, err = trainer.Train(e.base, store.DeviceAPSets())
	}
	if err != nil {
		e.traceRefresh(start, time.Since(start), map[string]any{"err": err.Error()})
		return fmt.Errorf("engine: refresh knowledge: %w", err)
	}
	info := &trace.TrainingInfo{Algorithm: e.loc.Name()}
	if diagnosed {
		info.Constraints = diag.Constraints
		info.LPIterations = diag.LPIterations
		info.LowerBoundViolations = diag.LowerBoundViolations
		info.Objective = diag.Objective
	}
	// The trained knowledge and its record are published as one view, so
	// info.Gen is the generation fixes against that knowledge report.
	e.writeMu.Lock()
	v := e.withKnowledge(trained)
	dur := time.Since(start)
	info.Gen, info.DurationMs = v.gen, dur.Seconds()*1e3
	v.training = info
	e.view.Store(v)
	e.writeMu.Unlock()
	mRefreshes.Inc()
	mRefreshSeconds.Observe(dur.Seconds())
	e.traceRefresh(start, dur, map[string]any{
		"gen":           info.Gen,
		"constraints":   info.Constraints,
		"lp_iterations": info.LPIterations,
	})
	return nil
}

// traceRefresh files one training attempt, timed by the clock pair that
// feeds marauder_engine_knowledge_refresh_seconds, as a single-span
// refresh trace when the tracer samples it.
func (e *Engine) traceRefresh(start time.Time, dur time.Duration, attrs map[string]any) {
	e.tracer.Start(trace.KindRefresh, "").Finish(start, dur, nil,
		trace.Span{Name: "knowledge", DurUS: dur.Microseconds(), Attrs: attrs})
}

// fixer runs one caller's fixes against one view: a Fix call, a Track or
// a snapshot worker. It keeps its buffers across its fixes, its last
// answer, and its own fix, hit and miss counts and stage-sampler ticks,
// which flush hands to the engine once the caller is done, so no fix
// writes a shared counter.
type fixer struct {
	e *Engine
	v *view
	// gamma is the last window's Γ as packed AP keys, in ascending order;
	// macs holds Γ as MACs once a miss or a traced fix needed them.
	gamma []uint64
	macs  []dot11.MAC
	// lastGamma, lastEst and lastErr are the cached answer of the last
	// non-empty Γ, kept only with the cache on: a fix whose Γ equals it
	// reuses the answer as a cache hit.
	lastGamma []uint64
	lastEst   core.Estimate
	lastErr   error
	// tick is the last stage-sampler tick this fixer reserved and used.
	tick                uint64
	fixes, hits, misses uint64
}

func (e *Engine) newFixer(v *view) *fixer { return &fixer{e: e, v: v} }

// reserve claims the stage sampler's next n ticks, one per fix the
// caller is about to make, so the 1-in-stageSampleEvery sampling is the
// same as if every fix took its tick from the shared counter.
func (f *fixer) reserve(n int) {
	f.tick = f.e.stageCtr.Add(uint64(n)) - uint64(n)
}

// flush adds the fixer's counts to the engine's and to the telemetry
// counters and zeroes them.
func (f *fixer) flush() {
	e := f.e
	e.fixes.Add(f.fixes)
	e.hits.Add(f.hits)
	e.misses.Add(f.misses)
	mFixes.Add(f.fixes)
	mCacheHits.Add(f.hits)
	mCacheMisses.Add(f.misses)
	f.fixes, f.hits, f.misses = 0, 0, 0
}

// fix answers one localization over [start, end) from the next step of
// sweep w, for dev: the window_assembly → localize → trace_record chain
// shared by Fix, Track and the snapshot workers. It uses one reserved
// sampler tick. A fix is timed when the sampler picks that tick or the
// tracer sampled it. Adjacent stages share clock reads, so a timed fix
// costs four time.Now calls and an untimed one none. With tracing
// disabled the only cost over the raw path is one nil check.
func (f *fixer) fix(w *obs.Sweep, dev dot11.MAC, start, end float64) (core.Estimate, error) {
	var tr *trace.Trace
	if f.e.tracer != nil {
		tr = f.e.tracer.Start(trace.KindFix, dev.String())
	}
	var sp fixSpan
	f.tick++
	timed := f.tick%stageSampleEvery == 0 || tr != nil
	if timed {
		sp.start = time.Now()
	}
	gamma, scanned, resorted, same := w.Step(f.gamma, start, end)
	f.gamma = gamma
	if timed {
		sp.mark(stageWindow)
	}
	est, hit, err := f.locate(same)
	if timed {
		// A cache hit's lookup time is localization cost too.
		sp.mark(stageLocalize)
	}
	var p *trace.Provenance
	if tr != nil {
		f.macs = dot11.AppendFromKeys(f.macs[:0], gamma)
		p = f.e.provenance(f.v, dev, f.macs, est, err, hit, start, end)
	}
	if timed {
		sp.mark(stageTrace)
		sp.observe()
	}
	if tr != nil {
		fileFix(tr, &sp, p, scanned, resorted)
	}
	if err != nil && !errors.Is(err, core.ErrNoAPs) {
		mFixErrors.Inc()
	}
	return est, err
}

// locate answers the fix whose Γ is f.gamma against f's view: the last
// answer when the cache is on and Γ equals its Γ (same says the sweep
// found the window unchanged, so it does), else through the Γ cache when
// enabled, else from the localizer. It reports whether the answer counts
// as a cache hit.
func (f *fixer) locate(same bool) (est core.Estimate, hit bool, err error) {
	f.fixes++
	gamma, v := f.gamma, f.v
	if len(gamma) == 0 {
		return core.Estimate{}, false, core.ErrNoAPs
	}
	if v.cache == nil {
		f.misses++
		f.macs = dot11.AppendFromKeys(f.macs[:0], gamma)
		est, err = f.e.loc.Locate(v.know, f.macs)
		return est, false, err
	}
	if same || slices.Equal(gamma, f.lastGamma) {
		f.hits++
		return f.lastEst, true, f.lastErr
	}
	// Keys of up to 32 APs — nearly every Γ — stay on the stack.
	var keyBuf [32 * len(dot11.MAC{})]byte
	key := appendGammaKey(keyBuf[:0], gamma)
	est, err, hit = v.cache.get(key)
	if hit {
		f.hits++
	} else {
		f.misses++
		f.macs = dot11.AppendFromKeys(f.macs[:0], gamma)
		est, err = f.e.loc.Locate(v.know, f.macs)
		if evicted := v.cache.put(key, est, err, cacheCapacity(v.store.DeviceCount())); evicted > 0 {
			f.e.evictions.Add(uint64(evicted))
			mCacheEvictions.Add(uint64(evicted))
		}
	}
	f.lastGamma = append(f.lastGamma[:0], gamma...)
	f.lastEst, f.lastErr = est, err
	return est, hit, err
}

// Fix estimates the device's position from the observations in the window
// centred at timeSec.
func (e *Engine) Fix(dev dot11.MAC, timeSec float64) (core.Estimate, error) {
	return e.FixRange(dev, timeSec-e.windowSec/2, timeSec+e.windowSec/2)
}

// FixRange estimates the device's position from the observations with
// start ≤ t < end.
func (e *Engine) FixRange(dev dot11.MAC, start, end float64) (core.Estimate, error) {
	v := e.view.Load()
	f := e.newFixer(v)
	f.reserve(1)
	w := v.store.Sweep(dev)
	est, err := f.fix(&w, dev, start, end)
	f.flush()
	return est, err
}

// Track produces fixes for the device every stepSec over [startSec,
// endSec]; windows without observations or with failing localization are
// skipped. Steps are computed as startSec + i·stepSec (no float
// accumulation drift), and every bound must be finite. Each step is an
// ordinary fix, counted, timed and traced like any other: every
// localizer computes a position from Γ alone, so what carries over
// between steps is only work. The steps are one obs.Sweep over the
// device's log, so a step reads only the records its window gained and
// lost, and with the cache on a step whose Γ equals the previous step's
// reuses that answer as a cache hit. Every step reads the same view, and
// the engine's counters include every step when Track returns.
func (e *Engine) Track(dev dot11.MAC, startSec, endSec, stepSec float64) ([]core.TrackPoint, error) {
	if stepSec <= 0 {
		return nil, fmt.Errorf("engine: Track needs stepSec > 0")
	}
	for _, x := range [...]float64{startSec, endSec, stepSec} {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("engine: Track needs finite bounds and step, got [%v, %v] by %v", startSec, endSec, stepSec)
		}
	}
	steps := 0
	for startSec+float64(steps)*stepSec <= endSec {
		steps++
	}
	v := e.view.Load()
	f := e.newFixer(v)
	f.reserve(steps)
	w := v.store.Sweep(dev)
	var out []core.TrackPoint
	for i := range steps {
		ts := startSec + float64(i)*stepSec
		est, err := f.fix(&w, dev, ts-e.windowSec/2, ts+e.windowSec/2)
		if err == nil {
			out = append(out, core.TrackPoint{TimeSec: ts, Est: est})
		}
	}
	f.flush()
	return out, nil
}

// Snapshot locates every device with observations in the window centred
// at timeSec — one full frame of the Marauder's map — fanning the devices
// out across the worker pool. Devices whose localization fails are
// omitted. The result is identical to localizing sequentially, and to
// calling Fix for every device of Store().Devices(): a device with no
// record in the window has an empty Γ, which Fix answers with
// core.ErrNoAPs.
func (e *Engine) Snapshot(timeSec float64) map[dot11.MAC]core.Estimate {
	return e.SnapshotRange(timeSec-e.windowSec/2, timeSec+e.windowSec/2)
}

// SnapshotRange is Snapshot over an explicit observation range — e.g. the
// whole capture history when replaying an attack offline.
//
// A frame localizes only the window's candidates from the store's time
// index (obs.Store.WindowCandidates), fixed at frame start: every device
// with a record in the window is one, so the devices left out could only
// have failed with core.ErrNoAPs. They are not fixes, and a traced frame
// files no trace for them. The store_scan stage times the candidate
// assembly.
//
// Workers claim snapshotChunk candidates at a time from one shared atomic
// cursor and collect their located estimates privately; the collections
// are merged into the result map once every worker is done. A frame that
// needs one worker runs the same body inline, with no goroutine. The map
// holds one estimate per device whatever the interleaving, so the result
// is identical to localizing sequentially. The whole frame reads one
// view: a concurrent knowledge swap or reset takes effect from the next
// frame.
func (e *Engine) SnapshotRange(start, end float64) map[dot11.MAC]core.Estimate {
	began := time.Now()
	defer func() {
		mSnapshots.Inc()
		mSnapshotSeconds.ObserveSince(began)
	}()
	v := e.view.Load()
	scanStart := time.Now()
	cands := v.store.WindowCandidates(start, end)
	mStageScan.ObserveSince(scanStart)
	workers := max(1, min(e.workers, (len(cands)+snapshotChunk-1)/snapshotChunk))
	var next atomic.Int64
	found := make([][]located, workers)
	work := func(w int) {
		f := e.newFixer(v)
		var mine []located
		for {
			hi := int(next.Add(snapshotChunk))
			lo := hi - snapshotChunk
			if lo >= len(cands) {
				break
			}
			hi = min(hi, len(cands))
			f.reserve(hi - lo)
			for i := lo; i < hi; i++ {
				c := &cands[i]
				sw := c.Sweep()
				if est, err := f.fix(&sw, c.Device(), start, end); err == nil {
					mine = append(mine, located{c.Device(), est})
				}
			}
		}
		f.flush()
		found[w] = mine
	}
	if workers == 1 {
		work(0)
	} else {
		var wg sync.WaitGroup
		for w := range found {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work(w)
			}()
		}
		wg.Wait()
	}
	n := 0
	for _, f := range found {
		n += len(f)
	}
	out := make(map[dot11.MAC]core.Estimate, n)
	for _, f := range found {
		for _, l := range f {
			out[l.dev] = l.est
		}
	}
	return out
}

// snapshotChunk is how many candidates a snapshot worker claims at once:
// enough to amortize the shared cursor, few enough that the last chunks
// still balance across workers.
const snapshotChunk = 32

// located is one device a snapshot worker managed to locate.
type located struct {
	dev dot11.MAC
	est core.Estimate
}

// Stats reports fix and cache counters plus the store's shard shape.
func (e *Engine) Stats() Stats {
	v := e.view.Load()
	var entries, capacity int
	if v.cache != nil {
		entries, capacity = v.cache.len(), cacheCapacity(v.store.DeviceCount())
	}
	return Stats{
		Fixes:          e.fixes.Load(),
		CacheHits:      e.hits.Load(),
		CacheMisses:    e.misses.Load(),
		CacheEvictions: e.evictions.Load(),
		CacheEntries:   entries,
		CacheCapacity:  capacity,
		Workers:        e.workers,
		ObsShards:      v.store.ShardCount(),
		ObsRecords:     v.store.Len(),
		KnowledgeGen:   v.gen,
		Quarantined:    e.rejects.stats().Total,
	}
}

// Health reports the engine's degraded-vs-healthy state: the pipeline is
// degraded while knowledge refreshes keep failing (the map is being drawn
// from stale last-known-good knowledge). Quarantined captures are
// reported but do not degrade health by themselves — diverting corrupt
// input is the engine doing its job.
func (e *Engine) Health() Health {
	h := Health{
		Healthy:                    true,
		Quarantined:                e.rejects.stats().Total,
		RefreshRetries:             e.refreshRetry.Load(),
		RefreshFallbacks:           e.refreshFellBk.Load(),
		ConsecutiveRefreshFailures: e.refreshFail.Load(),
		KnowledgeGen:               e.view.Load().gen,
		TrainedOnce:                e.trainedOnce.Load(),
	}
	if _, trains := e.loc.(core.KnowledgeTrainer); !trains {
		h.TrainedOnce = true
	}
	if n := h.ConsecutiveRefreshFailures; n > 0 {
		h.Healthy = false
		h.Reasons = append(h.Reasons,
			fmt.Sprintf("knowledge refresh failing (%d consecutive, serving generation %d)",
				n, h.KnowledgeGen))
	}
	h.Sources = e.sourceHealth(time.Now())
	if stale := staleSourceReasons(h.Sources); len(stale) > 0 {
		h.Healthy = false
		h.Reasons = append(h.Reasons, stale...)
	}
	return h
}
