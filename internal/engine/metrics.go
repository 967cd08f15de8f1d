package engine

import (
	"time"

	"repro/internal/telemetry"
)

// Process-wide pipeline metrics, registered at package init so an
// exposition endpoint serves the full engine series set from the first
// scrape. Several engines in one process share these series (the gauge is
// last-engine-wins); the per-engine view stays available through
// Engine.Stats.
var (
	mFramesIngested = telemetry.Default().Counter(
		"marauder_engine_frames_ingested_total",
		"Captured frames fed into the observation store through the engine.", nil)
	mSnapshots = telemetry.Default().Counter(
		"marauder_engine_snapshots_total",
		"Full map-frame snapshots taken.", nil)
	mSnapshotSeconds = telemetry.Default().Histogram(
		"marauder_engine_snapshot_seconds",
		"Wall time per map-frame snapshot.", telemetry.LatencyBuckets(), nil)
	mWorkers = telemetry.Default().Gauge(
		"marauder_engine_workers",
		"Resolved snapshot worker-pool size (Config.Workers after the GOMAXPROCS default).", nil)
	mFixes = telemetry.Default().Counter(
		"marauder_engine_fixes_total",
		"Localization requests answered, cached or computed, successful or not; a map frame asks only for its window's candidates from the observation store's time index.", nil)
	mCacheHits = telemetry.Default().Counter(
		"marauder_engine_cache_hits_total",
		"Fixes served from the Γ-memoization cache.", nil)
	mCacheMisses = telemetry.Default().Counter(
		"marauder_engine_cache_misses_total",
		"Fixes that ran the localization algorithm.", nil)
	mCacheEvictions = telemetry.Default().Counter(
		"marauder_engine_cache_evictions_total",
		"Γ-cache entries dropped by CLOCK eviction from a full shard or with a cache a knowledge change retired.", nil)
	mCacheEntries = telemetry.Default().Gauge(
		"marauder_engine_cache_entries",
		"Entries the Γ-memoization cache holds (last engine to insert, evict or change knowledge wins).", nil)
	mRefreshes = telemetry.Default().Counter(
		"marauder_engine_knowledge_refresh_total",
		"Knowledge re-training runs (RefreshKnowledge on a trained algorithm).", nil)
	mRefreshSeconds = telemetry.Default().Histogram(
		"marauder_engine_knowledge_refresh_seconds",
		"Wall time per knowledge re-training run.", telemetry.LatencyBuckets(), nil)
	mRefreshRetries = telemetry.Default().Counter(
		"marauder_engine_knowledge_refresh_retries_total",
		"Knowledge re-training attempts beyond the first within one RefreshKnowledge call.", nil)
	mRefreshFallbacks = telemetry.Default().Counter(
		"marauder_engine_knowledge_refresh_fallbacks_total",
		"RefreshKnowledge calls that exhausted retries and kept the last-known-good knowledge.", nil)
)

// Per-stage wall-time histograms for the fix/ingest hot paths, so the
// engine-level cost breakdown is a /metrics scrape away. Fix-path stages
// (window_assembly, localize, trace_record) and
// marauder_fix_seconds are fed from one fixSpan per timed fix — the same
// clock reads a traced fix's spans and provenance report. Batch-level
// stages (store_scan, a map frame's candidate assembly; ingest) are timed
// on every occurrence.
var (
	mFixStage = func() (h [numFixStages]*telemetry.Histogram) {
		for s, name := range stageNames {
			h[s] = stageSeconds(name)
		}
		return h
	}()
	mStageScan   = stageSeconds("store_scan")
	mStageIngest = stageSeconds("ingest")
	mFixSeconds  = telemetry.Default().Histogram(
		"marauder_fix_seconds",
		"End-to-end wall time per localization fix (timed on 1 fix in 16 plus every traced fix).",
		telemetry.LatencyBuckets(), nil)
	mFixErrors = telemetry.Default().Counter(
		"marauder_engine_fix_errors_total",
		"Fixes that failed for a reason other than an empty observation window.", nil)
)

// stageSeconds returns the marauder_stage_seconds instance for one stage.
func stageSeconds(stage string) *telemetry.Histogram {
	return telemetry.Default().Histogram(
		"marauder_stage_seconds",
		"Wall time per pipeline stage (fix-path stages timed on 1 fix in 16 plus every traced fix; store_scan is a map frame's candidate assembly).",
		telemetry.LatencyBuckets(),
		telemetry.Labels{"stage": stage})
}

// stageSampleEvery is the fix timing stride: every 16th fix is timed (plus
// every traced one), keeping the cached-fix path at one atomic add. All
// fix stages share the rate, so stage shares computed from the sums are
// unbiased.
const stageSampleEvery = 16

// stage is one fix-path stage; its name is the marauder_stage_seconds
// label, the trace span name and the Provenance.StagesMs key alike.
type stage uint8

const (
	stageWindow stage = iota
	stageLocalize
	stageTrace
	numFixStages
)

var stageNames = [numFixStages]string{"window_assembly", "localize", "trace_record"}

// fixSpan is one timed fix's clock reads: the start and the end of each
// stage (window assembly, localize, trace record). It lives on the fix
// path's stack, and every consumer — the stage and fix histograms, the
// trace's spans, Provenance.StagesMs and TotalMs — reads these
// timestamps, so they agree to the nanosecond.
type fixSpan struct {
	start time.Time
	ends  [numFixStages]time.Time
}

// mark ends stage s now.
func (f *fixSpan) mark(s stage) { f.ends[s] = time.Now() }

// bounds returns stage s's start and end: it begins where the previous
// stage ended.
func (f *fixSpan) bounds(s stage) (from, to time.Time) {
	from = f.start
	if s > 0 {
		from = f.ends[s-1]
	}
	return from, f.ends[s]
}

// total is the whole fix's wall time.
func (f *fixSpan) total() time.Duration { return f.ends[numFixStages-1].Sub(f.start) }

// observe feeds the stage histograms and marauder_fix_seconds.
func (f *fixSpan) observe() {
	for s := range numFixStages {
		from, to := f.bounds(s)
		mFixStage[s].Observe(to.Sub(from).Seconds())
	}
	mFixSeconds.Observe(f.total().Seconds())
}

// mQuarantined counts captures diverted to the reject queue, by reason.
// Every reason's handle is resolved here, once, so the per-capture path
// never takes the registry lock or builds a label key.
var mQuarantined = map[string]*telemetry.Counter{
	ReasonUndecodable:  quarantinedCounter(ReasonUndecodable),
	ReasonMissingFrame: quarantinedCounter(ReasonMissingFrame),
}

func quarantinedCounter(reason string) *telemetry.Counter {
	return telemetry.Default().Counter(
		"marauder_engine_quarantined_total",
		"Captures quarantined instead of ingested, by reason.",
		telemetry.Labels{"reason": reason})
}
