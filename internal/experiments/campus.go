package experiments

import (
	"fmt"
	"math"

	"repro/internal/apdb"
	"repro/internal/core"
	"repro/internal/dot11"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/rf"
	"repro/internal/sim"
	"repro/internal/sniffer"
	"repro/internal/stats"
	"repro/internal/wardrive"
)

// CampusConfig controls the campus localization-accuracy experiment that
// backs Figs 13-17.
type CampusConfig struct {
	// Seed drives every random choice.
	Seed int64
	// NAPs is the number of deployed APs (default 120).
	NAPs int
	// ScanPositions is the number of walk positions the mobile scans from
	// (default 80).
	ScanPositions int
	// MaxRadius is AP-Rad's theoretical upper bound on AP transmission
	// distance (default 200 m; true ranges are 60-140 m).
	MaxRadius float64
}

func (c CampusConfig) withDefaults() CampusConfig {
	if c.NAPs == 0 {
		c.NAPs = 300
	}
	if c.ScanPositions == 0 {
		c.ScanPositions = 100
	}
	if c.MaxRadius == 0 {
		c.MaxRadius = 160
	}
	return c
}

// PositionResult is the outcome of localizing the mobile at one true
// position with each algorithm.
type PositionResult struct {
	Truth geom.Point `json:"truth"`
	// K is the number of communicable APs observed at this position.
	K int `json:"k"`
	// Errors in metres; NaN when the algorithm failed at this position.
	MLocErr     float64 `json:"mlocErr"`
	APRadErr    float64 `json:"apradErr"`
	CentroidErr float64 `json:"centroidErr"`
	// Region areas (m²) of the disc intersections.
	MLocArea  float64 `json:"mlocArea"`
	APRadArea float64 `json:"apradArea"`
	// Region coverage of the true position.
	MLocCovers  bool `json:"mlocCovers"`
	APRadCovers bool `json:"apradCovers"`
}

// CampusRun is the shared state of one campus experiment: the world, the
// attacker's knowledge bases, and per-position results.
type CampusRun struct {
	World *sim.World
	// KnowTrue has true AP locations and radii (the M-Loc setting).
	KnowTrue core.Knowledge
	// KnowEst has true locations with AP-Rad-estimated radii.
	KnowEst core.Knowledge
	// Diag is the AP-Rad radius-estimation diagnostics.
	Diag core.APRadDiagnostics
	// Results holds one entry per scan position with at least one observed
	// AP.
	Results []PositionResult
	// Tuples is the wardriving training set used by Fig 17.
	Tuples []wardrive.Tuple
	// scanGammas are the per-position observed AP sets.
	scanGammas [][]dot11.MAC
	// scanTruths are the matching true positions.
	scanTruths []geom.Point
	cfg        CampusConfig
}

// ScanObservations returns the per-scan-position observed AP sets and the
// matching true positions (positions with empty Γ included, aligned by
// index).
func (r *CampusRun) ScanObservations() ([][]dot11.MAC, []geom.Point) {
	return r.scanGammas, r.scanTruths
}

// worldKnowledge snapshots a world's APs as attacker knowledge.
func worldKnowledge(w *sim.World, includeRange bool) core.Knowledge {
	return core.KnowledgeFromSnapshot(apdb.FromWorld(w, includeRange))
}

// RunCampus executes the full attack pipeline on a synthetic campus: AP
// deployment → a mobile device walking and scanning → LNA sniffer capture
// → observation store → M-Loc / AP-Rad / Centroid localization at every
// scan position.
func RunCampus(cfg CampusConfig) (*CampusRun, error) {
	cfg = cfg.withDefaults()
	w := sim.NewWorld(cfg.Seed)
	// Urban-campus density: ~300 APs over 700×700 m gives a typical scan
	// position 10-20 communicable APs. 60% of APs scatter uniformly and 40%
	// pack into building pockets — the biased distribution real campuses
	// have and the paper's Fig 4 analyses (it is what breaks the Centroid
	// baseline while leaving disc-intersection unharmed).
	uniformN := cfg.NAPs * 6 / 10
	aps, err := sim.UniformDeployment(sim.DeploymentConfig{
		N:        uniformN,
		Min:      geom.Pt(-350, -350),
		Max:      geom.Pt(350, 350),
		RangeMin: 70,
		RangeMax: 130,
	}, w.RNG())
	if err != nil {
		return nil, fmt.Errorf("campus: %w", err)
	}
	clusters := []geom.Point{
		geom.Pt(-180, 140), geom.Pt(160, -120), geom.Pt(40, 230),
		geom.Pt(-120, -220), geom.Pt(230, 170),
	}
	rng := w.RNG()
	for i := uniformN; i < cfg.NAPs; i++ {
		c := clusters[rng.Intn(len(clusters))]
		pos := geom.Pt(c.X+rng.NormFloat64()*40, c.Y+rng.NormFloat64()*40)
		r := 70 + rng.Float64()*60
		ap, err := sim.NewAP(i, fmt.Sprintf("bldg-%04d", i), pos, 6, r)
		if err != nil {
			return nil, fmt.Errorf("campus cluster ap: %w", err)
		}
		aps = append(aps, ap)
	}
	w.APs = aps

	// The walk covers the campus interior, staying off the deployment
	// edges, where the AP density a device sees drops off.
	route := sim.NewRouteWalk(sim.Sweep(280, 80, false), 1.5)
	// Namespace 0xDD keeps the tracked device's MAC disjoint from the
	// background population's 0xD0 namespace.
	dev := &sim.Device{
		MAC:      sim.NewMAC(0xDD, 1),
		Mobility: route,
		TX:       rf.TypicalMobile,
	}
	w.AddDevice(dev)

	// The walking device scans at evenly spaced times along the route.
	total := route.TotalDuration()
	interval := total / float64(cfg.ScanPositions)
	events := sim.WalkTrace(w, dev, total, interval)

	// A static background population probes too; its bursts enrich the
	// co-observation data AP-Rad's radius estimation feeds on (the paper's
	// sniffer watches every mobile in the covered area, not just the one
	// being walked).
	background := sim.DefaultPopulation(700, geom.Pt(-350, -350), geom.Pt(350, 350), w.RNG())
	for i, bg := range background {
		events = append(events, sim.ScanBurst(w, bg, float64(i), bg.Home, 1)...)
	}

	sn := sniffer.New(sniffer.Config{
		Pos:   geom.Pt(0, 0),
		Chain: rf.ChainLNA(),
		Plan:  dot11.DefaultPlan(),
	})
	store := obs.NewStore()
	for _, c := range sn.CaptureAll(events) {
		store.Ingest(c.TimeSec, c.Frame, c.FromAP)
	}

	run := &CampusRun{
		World:    w,
		KnowTrue: worldKnowledge(w, true),
		cfg:      cfg,
	}

	// Per-position observed AP sets from windows around each burst, which
	// double as the per-burst pseudo-devices feeding AP-Rad's constraints.
	deviceSets := make(map[dot11.MAC][]dot11.MAC, cfg.ScanPositions)
	truths := make([]geom.Point, 0, cfg.ScanPositions)
	for i := 0; i < cfg.ScanPositions; i++ {
		ts := float64(i) * interval
		gamma := store.APSetWindow(dev.MAC, ts-interval/2, ts+interval/2)
		run.scanGammas = append(run.scanGammas, gamma)
		run.scanTruths = append(run.scanTruths, route.PosAt(ts))
		truths = append(truths, route.PosAt(ts))
		if len(gamma) >= 2 {
			deviceSets[sim.NewMAC(0xB0, i)] = gamma
		}
	}

	// Background devices contribute their (single-position) AP sets.
	for _, bg := range background {
		if gamma := store.APSet(bg.MAC); len(gamma) >= 2 {
			deviceSets[bg.MAC] = gamma
		}
	}

	knowLoc := worldKnowledge(w, false)
	knowEst, diag, err := core.EstimateRadii(knowLoc, deviceSets,
		core.APRadConfig{MaxRadius: cfg.MaxRadius, MaxNeighborConstraints: 12})
	if err != nil {
		return nil, fmt.Errorf("campus ap-rad: %w", err)
	}
	run.KnowEst = knowEst
	run.Diag = diag

	for i, gamma := range run.scanGammas {
		if len(gamma) == 0 {
			continue
		}
		truth := truths[i]
		res := PositionResult{
			Truth:       truth,
			K:           len(gamma),
			MLocErr:     math.NaN(),
			APRadErr:    math.NaN(),
			CentroidErr: math.NaN(),
		}
		if est, err := core.MLoc(run.KnowTrue, gamma); err == nil {
			res.MLocErr = core.Error(est, truth)
		}
		res.MLocArea = core.RegionArea(run.KnowTrue, gamma)
		res.MLocCovers = core.RegionCovers(run.KnowTrue, gamma, truth)
		if est, _, err := core.MLocInflated(run.KnowEst, gamma, 4); err == nil {
			res.APRadErr = core.Error(est, truth)
		}
		res.APRadArea = core.RegionArea(run.KnowEst, gamma)
		res.APRadCovers = core.RegionCovers(run.KnowEst, gamma, truth)
		if est, err := core.CentroidBaseline(run.KnowTrue, gamma); err == nil {
			res.CentroidErr = core.Error(est, truth)
		}
		run.Results = append(run.Results, res)
	}
	if len(run.Results) == 0 {
		return nil, fmt.Errorf("campus: no scan position observed any AP")
	}

	// Wardrive training set for Fig 17: a crosshatch drive (horizontal and
	// vertical passes) like driving a street grid. One-directional routes
	// leave the AP-location estimate symmetric about the route line; the
	// crosshatch breaks that symmetry.
	run.Tuples = wardrive.Collector{World: w}.CollectAlong(sim.NewRouteWalk(sim.Sweep(300, 100, true), 10), 6)
	return run, nil
}

func filterValid(errs []float64) []float64 {
	out := errs[:0:0]
	for _, e := range errs {
		if !math.IsNaN(e) {
			out = append(out, e)
		}
	}
	return out
}

// Fig13 renders the localization-error comparison: mean error and a
// histogram for M-Loc, AP-Rad and Centroid.
func Fig13(run *CampusRun) (Table, error) {
	t := Table{
		ID:     "fig13",
		Title:  "Localization error (m): M-Loc vs AP-Rad vs Centroid",
		Header: []string{"bin_m", "mloc", "aprad", "centroid"},
		Notes:  "paper averages: M-Loc 9.41 m, AP-Rad 13.75 m, Centroid 17.28 m",
	}
	var ml, ar, ce []float64
	for _, r := range run.Results {
		ml = append(ml, r.MLocErr)
		ar = append(ar, r.APRadErr)
		ce = append(ce, r.CentroidErr)
	}
	ml, ar, ce = filterValid(ml), filterValid(ar), filterValid(ce)
	if len(ml) == 0 || len(ar) == 0 || len(ce) == 0 {
		return t, fmt.Errorf("fig13: a method produced no estimates")
	}
	maxErr := 0.0
	for _, xs := range [][]float64{ml, ar, ce} {
		for _, x := range xs {
			maxErr = math.Max(maxErr, x)
		}
	}
	bins := 10
	hm, err := stats.NewHistogram(0, maxErr+1, bins)
	if err != nil {
		return t, err
	}
	ha, _ := stats.NewHistogram(0, maxErr+1, bins)
	hc, _ := stats.NewHistogram(0, maxErr+1, bins)
	hm.AddAll(ml)
	ha.AddAll(ar)
	hc.AddAll(ce)
	for i := 0; i < bins; i++ {
		t.AddRow(hm.BinCenter(i), hm.Counts[i], ha.Counts[i], hc.Counts[i])
	}
	t.AddRow("mean", stats.Mean(ml), stats.Mean(ar), stats.Mean(ce))
	return t, nil
}

// errsByK gathers (k, error) pairs for one error selector.
func errsByK(run *CampusRun, sel func(PositionResult) float64) ([]int, []float64) {
	var ks []int
	var es []float64
	for _, r := range run.Results {
		e := sel(r)
		if math.IsNaN(e) {
			continue
		}
		ks = append(ks, r.K)
		es = append(es, e)
	}
	return ks, es
}

// minKSeries computes mean(value | K >= k) for the ks the run observed.
func minKSeries(run *CampusRun, sel func(PositionResult) float64) (map[int]float64, []int, error) {
	ks, es := errsByK(run, sel)
	th, means, err := stats.MeanByMinKey(ks, es)
	if err != nil {
		return nil, nil, err
	}
	m := make(map[int]float64, len(th))
	for i, k := range th {
		m[k] = means[i]
	}
	return m, th, nil
}

// Fig14 renders average error versus the minimum number of communicable
// APs for the three methods.
func Fig14(run *CampusRun) (Table, error) {
	t := Table{
		ID:     "fig14",
		Title:  "Average error (m) vs minimum number of communicable APs",
		Header: []string{"min_k", "mloc", "aprad", "centroid"},
		Notes:  "paper: M-Loc error decreases with k; Centroid error increases",
	}
	ml, keys, err := minKSeries(run, func(r PositionResult) float64 { return r.MLocErr })
	if err != nil {
		return t, err
	}
	ar, _, err := minKSeries(run, func(r PositionResult) float64 { return r.APRadErr })
	if err != nil {
		return t, err
	}
	ce, _, err := minKSeries(run, func(r PositionResult) float64 { return r.CentroidErr })
	if err != nil {
		return t, err
	}
	for _, k := range keys {
		t.AddRow(k, cell(ml, k), cell(ar, k), cell(ce, k))
	}
	return t, nil
}

// cell formats a series value, or "n/a" when the series has no positions
// with that minimum k (e.g. every estimate at that k failed).
func cell(series map[int]float64, k int) interface{} {
	v, ok := series[k]
	if !ok {
		return "n/a"
	}
	return v
}

// Fig15 renders the intersected area versus minimum k for M-Loc and AP-Rad.
func Fig15(run *CampusRun) (Table, error) {
	t := Table{
		ID:     "fig15",
		Title:  "Intersected area (m²) vs minimum number of communicable APs",
		Header: []string{"min_k", "mloc_area", "aprad_area"},
		Notes:  "paper: AP-Rad's area exceeds M-Loc's (radius overestimation)",
	}
	ml, keys, err := minKSeries(run, func(r PositionResult) float64 { return r.MLocArea })
	if err != nil {
		return t, err
	}
	ar, _, err := minKSeries(run, func(r PositionResult) float64 { return r.APRadArea })
	if err != nil {
		return t, err
	}
	for _, k := range keys {
		t.AddRow(k, cell(ml, k), cell(ar, k))
	}
	return t, nil
}

// Fig16 renders the probability that the intersected region covers the
// device's true position, versus minimum k.
func Fig16(run *CampusRun) (Table, error) {
	t := Table{
		ID:     "fig16",
		Title:  "Coverage probability vs minimum number of communicable APs",
		Header: []string{"min_k", "mloc", "aprad"},
		Notes:  "paper: AP-Rad's coverage probability trails M-Loc's",
	}
	toF := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	ml, keys, err := minKSeries(run, func(r PositionResult) float64 { return toF(r.MLocCovers) })
	if err != nil {
		return t, err
	}
	ar, _, err := minKSeries(run, func(r PositionResult) float64 { return toF(r.APRadCovers) })
	if err != nil {
		return t, err
	}
	for _, k := range keys {
		t.AddRow(k, cell(ml, k), cell(ar, k))
	}
	return t, nil
}

// Fig17 renders AP-Loc's average localization error versus the number of
// training tuples, against the (training-free) Centroid baseline.
func Fig17(run *CampusRun) (Table, error) {
	t := Table{
		ID:     "fig17",
		Title:  "AP-Loc average error (m) vs number of training tuples",
		Header: []string{"tuples", "aploc_err", "centroid_err"},
		Notes:  "paper: 12.21 m with only 19 training tuples, beating Centroid",
	}
	if len(run.Tuples) < 5 {
		return t, fmt.Errorf("fig17: only %d training tuples", len(run.Tuples))
	}
	// Centroid reference over the same positions.
	var ce []float64
	for _, r := range run.Results {
		if !math.IsNaN(r.CentroidErr) {
			ce = append(ce, r.CentroidErr)
		}
	}
	centMean := stats.Mean(ce)

	counts := []int{5, 9, 14, 19, 25, 32, 40, 60, 90, 130}
	for _, n := range counts {
		if n > len(run.Tuples) {
			break
		}
		// Evenly spaced subset of the training drive.
		subset := make([]wardrive.Tuple, 0, n)
		for i := 0; i < n; i++ {
			subset = append(subset, run.Tuples[i*len(run.Tuples)/n])
		}
		know, err := core.EstimateAPLocations(subset, core.APLocConfig{
			TrainingRadius: 130,
		})
		if err != nil {
			return t, fmt.Errorf("fig17 n=%d: %w", n, err)
		}
		// Estimate radii over the observed device sets restricted to the
		// trained APs, then localize each scan position.
		deviceSets := make(map[dot11.MAC][]dot11.MAC)
		for i, gamma := range run.scanGammas {
			var g []dot11.MAC
			for _, m := range gamma {
				if _, ok := know.Get(m); ok {
					g = append(g, m)
				}
			}
			if len(g) >= 2 {
				deviceSets[sim.NewMAC(0xB0, i)] = g
			}
		}
		knowEst, _, err := core.EstimateRadii(know, deviceSets,
			core.APRadConfig{MaxRadius: run.cfg.MaxRadius, MaxNeighborConstraints: 12})
		if err != nil {
			return t, fmt.Errorf("fig17 radii n=%d: %w", n, err)
		}
		var errs []float64
		for i, gamma := range run.scanGammas {
			if len(gamma) == 0 {
				continue
			}
			est, err := core.MLoc(knowEst, gamma)
			if err != nil {
				continue
			}
			truth := run.Results[resultIndex(run, i)].Truth
			errs = append(errs, core.Error(est, truth))
		}
		if len(errs) == 0 {
			t.AddRow(n, "n/a", centMean)
			continue
		}
		t.AddRow(n, stats.Mean(errs), centMean)
	}
	return t, nil
}

// resultIndex maps a scan index to its entry in run.Results (scan
// positions with empty Γ produce no result).
func resultIndex(run *CampusRun, scanIdx int) int {
	idx := -1
	for i := 0; i <= scanIdx && i < len(run.scanGammas); i++ {
		if len(run.scanGammas[i]) > 0 {
			idx++
		}
	}
	return idx
}
