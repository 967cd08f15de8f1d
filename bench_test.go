package repro

// One benchmark per table/figure of the paper's evaluation section. Each
// bench regenerates the figure from scratch and reports the figure's
// headline quantity as a custom metric, so `go test -bench=. -benchmem`
// doubles as the reproduction's results table.

import (
	"context"
	"reflect"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dot11"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/rf"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/telemetry/ftdc"
)

// lastFloat pulls a float out of a table cell, for reporting headline
// metrics from the regenerated figure.
func lastFloat(b *testing.B, t experiments.Table, row, col int) float64 {
	b.Helper()
	if row < 0 {
		row += len(t.Rows)
	}
	v, err := strconv.ParseFloat(t.Rows[row][col], 64)
	if err != nil {
		b.Fatalf("cell (%d,%d) = %q: %v", row, col, t.Rows[row][col], err)
	}
	return v
}

func BenchmarkFig2IntersectedAreaVsK(b *testing.B) {
	var t experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = experiments.Fig2(1000, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	// CA at k=10, the paper's reference operating point.
	b.ReportMetric(lastFloat(b, t, 9, 1), "CA@k=10")
}

func BenchmarkFig3AreaVsRadius(b *testing.B) {
	var t experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = experiments.Fig3(5)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(lastFloat(b, t, -1, 2), "CA@r=3")
}

func BenchmarkFig4BiasedCentroid(b *testing.B) {
	var t experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = experiments.Fig4(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(lastFloat(b, t, -1, 1), "centroid_err_m")
	b.ReportMetric(lastFloat(b, t, -1, 2), "mloc_err_m")
}

func BenchmarkFig5AreaVsEstimatedR(b *testing.B) {
	var t experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = experiments.Fig5(1000, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(lastFloat(b, t, -1, 1), "CA@R=3r")
}

func BenchmarkFig6CoverageProb(b *testing.B) {
	var t experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = experiments.Fig6(20000, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(lastFloat(b, t, 2, 1), "p@R=0.9r")
}

func BenchmarkFig8ChannelDistribution(b *testing.B) {
	var t experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = experiments.Fig8(1000, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(lastFloat(b, t, -1, 2)*100, "pct_1_6_11")
}

func BenchmarkFig9ChannelLeakage(b *testing.B) {
	var t experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = experiments.Fig9(200, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Recognition on the on-channel card (row for channel 11) and the
	// adjacent channel 10.
	b.ReportMetric(lastFloat(b, t, 10, 2), "frac_ch11")
	b.ReportMetric(lastFloat(b, t, 9, 2), "frac_ch10")
}

func BenchmarkFig10ProbingMobiles(b *testing.B) {
	var t experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = experiments.Figs10And11(150, 60, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Highest daily probing percentage (paper peaks at 91.61%).
	peak := 0.0
	for r := range t.Rows {
		if v := lastFloat(b, t, r, 4); v > peak {
			peak = v
		}
	}
	b.ReportMetric(peak, "peak_pct_probing")
}

func BenchmarkFig12CoverageRadius(b *testing.B) {
	var t experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = experiments.Fig12()
		if err != nil {
			b.Fatal(err)
		}
	}
	// Urban coverage radius of the full LNA chain (paper: ~1000 m).
	b.ReportMetric(lastFloat(b, t, 3, 2), "lna_urban_m")
}

// campusBench shares one campus run across the Figs 13-17 benches within a
// single bench invocation.
func campusBench(b *testing.B, fig func(*experiments.CampusRun) (experiments.Table, error)) experiments.Table {
	b.Helper()
	var t experiments.Table
	for i := 0; i < b.N; i++ {
		run, err := experiments.RunCampus(experiments.CampusConfig{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		t, err = fig(run)
		if err != nil {
			b.Fatal(err)
		}
	}
	return t
}

func BenchmarkFig13ErrorHistogram(b *testing.B) {
	t := campusBench(b, experiments.Fig13)
	b.ReportMetric(lastFloat(b, t, -1, 1), "mloc_mean_m")
	b.ReportMetric(lastFloat(b, t, -1, 2), "aprad_mean_m")
	b.ReportMetric(lastFloat(b, t, -1, 3), "centroid_mean_m")
}

func BenchmarkFig14ErrorVsK(b *testing.B) {
	t := campusBench(b, experiments.Fig14)
	b.ReportMetric(lastFloat(b, t, 0, 1), "mloc@min_k")
	b.ReportMetric(lastFloat(b, t, -1, 1), "mloc@max_k")
}

func BenchmarkFig15AreaVsK(b *testing.B) {
	t := campusBench(b, experiments.Fig15)
	b.ReportMetric(lastFloat(b, t, 0, 1), "mloc_area_m2")
	b.ReportMetric(lastFloat(b, t, 0, 2), "aprad_area_m2")
}

func BenchmarkFig16CoverageVsK(b *testing.B) {
	t := campusBench(b, experiments.Fig16)
	b.ReportMetric(lastFloat(b, t, 0, 1), "mloc_cov")
	b.ReportMetric(lastFloat(b, t, 0, 2), "aprad_cov")
}

func BenchmarkFig17APLocTraining(b *testing.B) {
	t := campusBench(b, experiments.Fig17)
	// Error at 19 training tuples — the paper's headline (12.21 m).
	for r, row := range t.Rows {
		if row[0] == "19" {
			b.ReportMetric(lastFloat(b, t, r, 1), "aploc@19tuples_m")
		}
	}
	b.ReportMetric(lastFloat(b, t, -1, 1), "aploc@max_tuples_m")
}

func BenchmarkThm1LinkBudget(b *testing.B) {
	var r float64
	for i := 0; i < b.N; i++ {
		for _, chain := range rf.Fig12Chains() {
			r = rf.CoverageRadius(rf.TypicalMobile, chain)
		}
	}
	b.ReportMetric(r, "lna_freespace_m")
}

// Ablation: the paper's 3-card channel plan versus the 11-card plan and
// the debunked {3,6,9} folk plan — fraction of a campus's APs whose
// channel each plan can decode.
func BenchmarkAblationChannelPlans(b *testing.B) {
	var t experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = experiments.AblationChannelPlans(1000, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	for r, row := range t.Rows {
		b.ReportMetric(lastFloat(b, t, r, 2)*100, "pct_"+row[0])
	}
}

// Ablation: M-Loc's vertex centroid versus the Monte-Carlo region-area
// centroid — accuracy and cost of the paper's estimator choice.
func BenchmarkAblationCentroidEstimators(b *testing.B) {
	var t experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = experiments.AblationCentroidEstimators(300, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(lastFloat(b, t, 0, 1), "vertex_err_m")
	b.ReportMetric(lastFloat(b, t, 1, 1), "area_err_m")
}

// Ablation: AP-Rad's LP radius estimation versus fixed upper-bound and
// fixed lower-bound radii (Theorem 3's two failure modes).
func BenchmarkAblationRadiusEstimators(b *testing.B) {
	var t experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = experiments.AblationRadiusEstimators(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	for r, row := range t.Rows {
		b.ReportMetric(lastFloat(b, t, r, 1), row[0]+"_err_m")
	}
}

// Extension: countermeasure evaluation (the camouflaging protocols the
// paper's conclusion calls for).
func BenchmarkExtensionDefenses(b *testing.B) {
	var t experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = experiments.DefenseEvaluation(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	for r, row := range t.Rows {
		b.ReportMetric(lastFloat(b, t, r, 1), "fixes_"+row[0])
	}
}

// Extension: set-only attack vs the RSS self-positioning baselines from
// the paper's related-work taxonomy.
func BenchmarkExtensionPositioningComparison(b *testing.B) {
	var t experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = experiments.PositioningComparison(150, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	for r, row := range t.Rows {
		b.ReportMetric(lastFloat(b, t, r, 1), row[0]+"_err_m")
	}
}

// Extension: coverage scaling with a fleet of sniffer sites.
func BenchmarkExtensionFleetCoverage(b *testing.B) {
	var t experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = experiments.FleetCoverage(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(lastFloat(b, t, 0, 1), "observed_1site")
	b.ReportMetric(lastFloat(b, t, 1, 1), "observed_2sites")
}

// engineBenchWorld builds a deterministic 200-device campus: a 12×12 AP
// grid and one observation window in which every device has probed the
// APs whose discs cover it. idle more devices were heard only long before
// that window, as most of a city's devices are silent in any one. Returns
// the knowledge base and a pre-filled store, shared read-only by every
// engine under benchmark.
func engineBenchWorld(b *testing.B, idle int) (core.Knowledge, *obs.Store) {
	b.Helper()
	const (
		nSide   = 12
		spacing = 70.0
		apRange = 100.0
		nDevs   = 200
	)
	aps := make([]core.APInfo, 0, nSide*nSide)
	for i := 0; i < nSide*nSide; i++ {
		pos := geom.Pt(
			float64(i%nSide)*spacing-float64(nSide-1)*spacing/2,
			float64(i/nSide)*spacing-float64(nSide-1)*spacing/2,
		)
		aps = append(aps, core.APInfo{BSSID: sim.NewMAC(0xA9, i), Pos: pos, MaxRange: apRange})
	}
	know := core.NewKnowledge(aps)
	store := obs.NewStore()
	for d := 0; d < nDevs; d++ {
		dev := sim.NewMAC(0xDD, d)
		pos := geom.Pt(
			float64((d*7919)%700)-350,
			float64((d*104729)%700)-350,
		)
		seq := uint16(1)
		for _, ap := range aps {
			if ap.Pos.Dist(pos) <= ap.MaxRange {
				store.Ingest(50, dot11.NewProbeResponse(ap.BSSID, dev, "", 1, seq), true)
				seq++
			}
		}
	}
	for d := 0; d < idle; d++ {
		dev := sim.NewMAC(0xDE, d)
		for i := 0; i < 3; i++ {
			ap := aps[(d*31+i)%len(aps)].BSSID
			store.Ingest(float64(-3600+d%3000+i), dot11.NewProbeResponse(ap, dev, "", 1, uint16(i+1)), true)
		}
	}
	return know, store
}

// BenchmarkEngineSnapshot measures one full map frame — localizing every
// observed device in the window — across the engine's operating modes:
// sequential vs a worker pool, and with the Γ cache cold-disabled vs warm.
// The idle-majority arms add 1,800 devices silent in the window, which the
// frame's time index should leave out at little cost. Parallel and
// sequential frames, and the idle-majority frame and per-device fixes over
// every device, are checked identical before timing.
func BenchmarkEngineSnapshot(b *testing.B) {
	know, store := engineBenchWorld(b, 0)
	_, idleStore := engineBenchWorld(b, 1800)
	newEngine := func(store *obs.Store, workers, cacheSize int) *engine.Engine {
		eng, err := engine.New(engine.Config{
			Know: know, Store: store, WindowSec: 60,
			Workers: workers, CacheSize: cacheSize,
		})
		if err != nil {
			b.Fatal(err)
		}
		return eng
	}
	nWorkers := runtime.GOMAXPROCS(0)
	if nWorkers < 2 {
		nWorkers = 4 // still exercises the pooled path on a 1-CPU box
	}
	seqFrame := newEngine(store, 1, -1).Snapshot(50)
	parFrame := newEngine(store, nWorkers, -1).Snapshot(50)
	if !reflect.DeepEqual(seqFrame, parFrame) {
		b.Fatal("parallel snapshot differs from sequential")
	}
	idleRef := newEngine(idleStore, 1, -1)
	perDevice := map[dot11.MAC]core.Estimate{}
	for _, dev := range idleStore.Devices() {
		if est, err := idleRef.Fix(dev, 50); err == nil {
			perDevice[dev] = est
		}
	}
	if !reflect.DeepEqual(newEngine(idleStore, nWorkers, 0).Snapshot(50), perDevice) {
		b.Fatal("idle-majority snapshot differs from per-device fixes")
	}

	for _, bc := range []struct {
		name      string
		store     *obs.Store
		workers   int
		cacheSize int
	}{
		{"sequential/uncached", store, 1, -1},
		{"parallel/uncached", store, nWorkers, -1},
		{"sequential/cached", store, 1, 0},
		{"parallel/cached", store, nWorkers, 0},
		{"idle-majority/sequential/cached", idleStore, 1, 0},
		{"idle-majority/parallel/cached", idleStore, nWorkers, 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			eng := newEngine(bc.store, bc.workers, bc.cacheSize)
			var frame map[dot11.MAC]core.Estimate
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				frame = eng.Snapshot(50)
			}
			b.ReportMetric(float64(len(frame)), "located")
			st := eng.Stats()
			if st.Fixes > 0 {
				b.ReportMetric(float64(st.CacheHits)/float64(st.Fixes), "hit_rate")
			}
		})
	}
}

// BenchmarkEngineSnapshotFTDC measures the flight recorder's overhead on
// the serving path: the same full-frame loop as BenchmarkEngineSnapshot,
// with the recorder off (its nil no-op state) versus sampling the whole
// process registry every second in the background — the production
// configuration. The two ns/op figures must stay within a few percent of
// each other: recording is asynchronous, so a frame never waits on it.
func BenchmarkEngineSnapshotFTDC(b *testing.B) {
	know, store := engineBenchWorld(b, 0)
	newEngine := func() *engine.Engine {
		eng, err := engine.New(engine.Config{
			Know: know, Store: store, WindowSec: 60, Workers: 1, CacheSize: -1,
		})
		if err != nil {
			b.Fatal(err)
		}
		return eng
	}
	frameLoop := func(b *testing.B, rec *ftdc.Recorder) {
		eng := newEngine()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.Snapshot(50)
			// The disabled state costs exactly this nil check per frame.
			if rec != nil {
				_ = rec.Status()
			}
		}
	}
	b.Run("recorder=off", func(b *testing.B) { frameLoop(b, nil) })
	b.Run("recorder=1s", func(b *testing.B) {
		rec, err := ftdc.New(ftdc.Config{Dir: b.TempDir(), Interval: time.Second})
		if err != nil {
			b.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() { // the serving process's sampler, reduced to the recorder
			defer close(done)
			t := time.NewTicker(time.Second)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case now := <-t.C:
					_ = rec.Append(now, telemetry.Default().Snapshot())
				}
			}
		}()
		frameLoop(b, rec)
		b.StopTimer()
		cancel()
		<-done
		if err := rec.Close(); err != nil {
			b.Fatal(err)
		}
	})
}

// Ablation: the spherical worst-case model vs obstructed/derated reality
// (DESIGN.md §5's propagation-model ablation).
func BenchmarkAblationPropagation(b *testing.B) {
	var t experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = experiments.AblationPropagation(300, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	for r, row := range t.Rows {
		b.ReportMetric(lastFloat(b, t, r, 2), "coverage_"+row[0])
	}
}

// churnWorld builds the tracked-device churn fixture shared by the
// BenchmarkTrackChurn sub-benchmarks: nAPs on a line 30 m apart with
// 150 m ranges, the sliding k-AP Γ for every step, and an observation
// store in which the device is heard by exactly window s's APs at
// t = s·30.
func churnWorld(nAPs, k int) (core.Knowledge, [][]dot11.MAC, *obs.Store, dot11.MAC) {
	aps := make([]core.APInfo, 0, nAPs)
	for i := 0; i < nAPs; i++ {
		aps = append(aps, core.APInfo{
			BSSID:    sim.NewMAC(0xC8, i+1),
			Pos:      geom.Pt(float64(i)*30, 0),
			MaxRange: 150,
		})
	}
	know := core.NewKnowledge(aps)
	gammas := make([][]dot11.MAC, 0, nAPs-k+1)
	for s := 0; s+k <= nAPs; s++ {
		gamma := make([]dot11.MAC, 0, k)
		for i := s; i < s+k; i++ {
			gamma = append(gamma, aps[i].BSSID)
		}
		gammas = append(gammas, gamma)
	}
	store := obs.NewStore()
	dev := sim.NewMAC(0xDE, 1)
	seq := uint16(1)
	for s, gamma := range gammas {
		for _, ap := range gamma {
			store.Ingest(float64(s)*30, dot11.NewProbeResponse(ap, dev, "", 1, seq), true)
			seq++
		}
	}
	return know, gammas, store, dev
}

// BenchmarkTrackChurn measures the incremental intersection kernel on the
// tracked-device churn pattern — Γ of k discs sliding ±1 AP per fix, the
// cache-hostile workload the kernel exists for. The kernel pair measures
// the full per-fix region payload of a traced tracked fix — the position
// estimate plus the intersected area that provenance records for every
// sampled fix — on both paths: incremental (core.MLocTracked diffing one
// reused Region, area served from the same live region) versus full
// recompute (core.MLoc plus core.RegionArea re-intersecting all k discs).
// scripts/bench_floors.sh enforces the ≥5× speedup floor on exactly this
// pair. The engine arm runs the same churn end to end through Track with
// caching disabled; every engine fix, Track's included, is a plain
// Localizer.Locate, so it has one path.
func BenchmarkTrackChurn(b *testing.B) {
	const nAPs, k = 40, 8
	know, gammas, store, dev := churnWorld(nAPs, k)

	// The kernel pair walks the windows ping-pong (slide right to the end,
	// then back) so every measured step is a genuine ±1 Γ churn; a plain
	// modulo walk would teleport from the last window to the first once
	// per cycle, and that jump measures the rebuild path, not the churn.
	period := 2 * (len(gammas) - 1)
	pingpong := func(i int) []dot11.MAC {
		idx := i % period
		if idx >= len(gammas) {
			idx = period - idx
		}
		return gammas[idx]
	}
	b.Run("kernel/path=incremental", func(b *testing.B) {
		var rt core.RegionTracker
		warm := func(i int) float64 {
			if _, err := core.MLocTracked(know, pingpong(i), &rt); err != nil {
				b.Fatal(err)
			}
			area, ok := rt.RegionArea()
			if !ok {
				b.Fatal("tracker has no region area after a canonical fix")
			}
			return area
		}
		for i := 0; i < period; i++ { // warm arenas over a full cycle
			warm(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			warm(i)
		}
	})
	b.Run("kernel/path=full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.MLoc(know, pingpong(i)); err != nil {
				b.Fatal(err)
			}
			_ = core.RegionArea(know, pingpong(i))
		}
	})

	endSec := float64(len(gammas)-1) * 30
	b.Run("engine", func(b *testing.B) {
		eng, err := engine.New(engine.Config{
			Know: know, Store: store, Localizer: core.MLocalizer{},
			WindowSec: 30, Workers: 1, CacheSize: -1,
		})
		if err != nil {
			b.Fatal(err)
		}
		var pts []core.TrackPoint
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pts, err = eng.Track(dev, 0, endSec, 30)
			if err != nil {
				b.Fatal(err)
			}
		}
		if len(pts) != len(gammas) {
			b.Fatalf("%d track points, want %d", len(pts), len(gammas))
		}
		b.ReportMetric(float64(len(pts)), "fixes/track")
	})
}
