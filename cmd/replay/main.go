// Command replay re-runs the localization attack from persisted inputs: a
// pcap capture file (as the sniffer writes, bare 802.11 or radiotap) and a
// WiGLE-style AP database CSV. It rebuilds the observation store from the
// capture, localizes every observed device, and prints the resulting map —
// the attack pipeline decoupled from the simulator.
//
// Usage:
//
//	replay -pcap capture.pcap -aps aps.csv [-algo mloc|centroid|closest|aprad]
//	       [-aps-snap FILE] [-save-aps-snap FILE] [-demo]
//	       [-origin-lat 42.6555] [-origin-lon -71.3254] [-obs store.json]
//	       [-fallback-range 160] [operational flags]
//
// With -demo it first generates a demo capture+database pair into the
// given paths, then replays them (useful without prior artifacts).
// -aps-snap loads a binary AP snapshot instead of the CSV, and
// -save-aps-snap writes one after loading.
//
// Replay is a finite run of the operational layer (internal/ops, flags
// listed in the README): -chaos runs the capture batch through the fault
// plan before ingest and prints the fault and quarantine counts with the
// map; -checkpoint-dir restores the newest valid checkpoint before the
// replay and writes a final one after it; -prof-dir covers the replay
// with one profiler cycle and prints its hottest ledger layer; -trace
// explains one located device's estimate after the map. -pprof needs
// -metrics-addr, since replay serves no port of its own.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"math"
	"os"
	"sort"
	"time"

	"repro/internal/apdb"
	"repro/internal/core"
	"repro/internal/dot11"
	"repro/internal/engine"
	"repro/internal/geo"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/ops"
	"repro/internal/rf"
	"repro/internal/sim"
	"repro/internal/sniffer"
)

var captureEpoch = time.Date(2008, 10, 24, 0, 0, 0, 0, time.UTC)

func main() {
	if err := run(os.Args[1:]); err != nil {
		slog.Error("replay failed", "component", "replay", "err", err)
		os.Exit(1)
	}
}

// config is replay's command line: the flags it owns plus the
// operational groups it takes from ops.
type config struct {
	ops                                           *ops.Flags
	pcap, aps, apsSnap, saveApsSnap, algo, obsOut string
	originLat, originLon, fallback                float64
	demo                                          bool
}

func newFlags() (*flag.FlagSet, *config) {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	c := &config{ops: ops.Register(fs, "replay", ops.Metrics|ops.Pprof|ops.Trace|ops.Chaos|ops.Checkpoint|ops.Prof)}
	fs.StringVar(&c.pcap, "pcap", "", "pcap capture to replay (required)")
	fs.StringVar(&c.aps, "aps", "", "AP database CSV (required unless -aps-snap is given)")
	fs.StringVar(&c.apsSnap, "aps-snap", "", "binary AP snapshot (apdb format) to load instead of the CSV — no re-ingest")
	fs.StringVar(&c.saveApsSnap, "save-aps-snap", "", "after loading, save the AP database as a binary snapshot here")
	fs.StringVar(&c.algo, "algo", "mloc", "localization algorithm: mloc, centroid, closest or aprad")
	fs.Float64Var(&c.originLat, "origin-lat", 42.6555, "local-plane origin latitude")
	fs.Float64Var(&c.originLon, "origin-lon", -71.3254, "local-plane origin longitude")
	fs.StringVar(&c.obsOut, "obs", "", "also save the rebuilt observation store as JSON here")
	fs.BoolVar(&c.demo, "demo", false, "generate a demo capture and AP database first")
	fs.Float64Var(&c.fallback, "fallback-range", 160, "disc radius for APs with unknown range")
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
	if c.pcap == "" || (c.aps == "" && c.apsSnap == "") {
		return fmt.Errorf("-pcap and one of -aps / -aps-snap are required")
	}
	p, err := c.ops.Start()
	if err != nil {
		return err
	}
	defer p.Close()
	return p.RunFinite(func() (*obs.Store, error) { return replay(c, p) })
}

// replay rebuilds the observation store from the capture, localizes
// every observed device and prints the map. It returns the store the
// final checkpoint snapshots.
func replay(c *config, p *ops.Process) (*obs.Store, error) {
	proj := geo.NewProjection(geo.LatLon{Lat: c.originLat, Lon: c.originLon})
	if c.demo {
		if err := generateDemo(c.pcap, c.aps, proj); err != nil {
			return nil, fmt.Errorf("generate demo: %w", err)
		}
		slog.Info("demo artifacts written", "component", "replay", "pcap", c.pcap, "aps", c.aps)
	}

	var db *apdb.Snapshot
	if c.apsSnap != "" {
		var err error
		db, err = apdb.LoadSnapshotFile(c.apsSnap)
		if err != nil {
			return nil, err
		}
		slog.Info("AP snapshot loaded", "component", "replay", "path", c.apsSnap, "aps", db.Len())
	} else {
		apsFile, err := os.Open(c.aps)
		if err != nil {
			return nil, err
		}
		defer apsFile.Close()
		db, err = apdb.ImportCSV(apsFile, proj)
		if err != nil {
			return nil, err
		}
	}
	if c.saveApsSnap != "" {
		if err := obs.WriteFileAtomic(c.saveApsSnap, db.WriteSnapshot); err != nil {
			return nil, err
		}
		slog.Info("AP snapshot saved", "component", "replay", "path", c.saveApsSnap, "aps", db.Len())
	}

	capFile, err := os.Open(c.pcap)
	if err != nil {
		return nil, err
	}
	defer capFile.Close()
	caps, err := sniffer.ReadPcap(capFile, captureEpoch)
	if err != nil {
		return nil, err
	}

	knowInfos := db.All()
	for i := range knowInfos {
		if knowInfos[i].MaxRange <= 0 {
			knowInfos[i].MaxRange = c.fallback
		}
	}
	know := core.NewKnowledge(knowInfos)

	var locate core.Localizer
	switch c.algo {
	case "mloc":
		locate = core.MLocalizer{}
	case "centroid":
		locate = core.CentroidLocalizer{}
	case "closest":
		locate = core.ClosestAPLocalizer{}
	case "aprad":
		// Trust only the database's positions; re-estimate radii from the
		// replayed co-observations.
		stripped := know.All()
		for i := range stripped {
			stripped[i].MaxRange = 0
		}
		know = core.NewKnowledge(stripped)
		locate = core.APRadLocalizer{
			Cfg: core.APRadConfig{MaxRadius: 2 * c.fallback, MaxNeighborConstraints: 12},
		}
	default:
		return nil, fmt.Errorf("unknown algorithm %q", c.algo)
	}

	eng, err := engine.New(engine.Config{
		Know:      know,
		Store:     p.Store,
		Localizer: locate,
		WindowSec: 60, // SnapshotRange below spans the whole capture
		Tracer:    p.Tracer,
	})
	if err != nil {
		return nil, err
	}
	for i := range caps {
		if caps[i].Frame == nil {
			// Undecodable packet kept as raw bytes; the engine quarantines
			// it with a counted reason instead of dropping it here.
			continue
		}
		// Replay cannot know the capture-side FromAP attribution; trust
		// beacons whose source appears in the AP database.
		_, caps[i].FromAP = db.Get(caps[i].Frame.Addr2)
	}
	if p.Faults != nil {
		inj := &sniffer.FaultInjector{Plan: p.Faults}
		caps = append(inj.Apply(caps), inj.Drain()...)
	}
	// The whole capture is one batch: the store groups it by shard and
	// takes each shard lock once instead of once per frame.
	eng.IngestCaptures(caps)
	store := eng.Store()
	fmt.Printf("replayed %d frames: %d devices (%d probing), %d APs observed\n",
		len(caps), len(store.Devices()), len(store.ProbingDevices()), len(store.APs()))
	if q := eng.Quarantine(); q.Total > 0 {
		fmt.Printf("quarantined %d captures: %v\n", q.Total, q.ByReason)
	}
	if p.Faults != nil {
		fc := p.Faults.Counters()
		fmt.Printf("faults injected: dropped=%d corrupted=%d duplicated=%d reorderedBatches=%d delayedBatches=%d\n",
			fc.Dropped, fc.Corrupted, fc.Duplicated, fc.ReorderedBatches, fc.DelayedBatches)
	}

	if err := eng.RefreshKnowledge(); err != nil {
		return nil, fmt.Errorf("train knowledge: %w", err)
	}

	// Localize every observed device over the whole capture history, in
	// parallel across the engine's worker pool.
	frame := eng.SnapshotRange(0, math.MaxFloat64)
	sets := store.DeviceAPSets()
	devs := make([]dot11.MAC, 0, len(sets))
	for dev := range sets {
		devs = append(devs, dev)
	}
	sort.Slice(devs, func(i, j int) bool { return devs[i].String() < devs[j].String() })
	located := 0
	for _, dev := range devs {
		est, ok := frame[dev]
		if !ok {
			fmt.Printf("%v  k=%-2d  not locatable\n", dev, len(sets[dev]))
			continue
		}
		ll := proj.ToLatLon(est.Pos)
		fmt.Printf("%v  k=%-2d  plane=%v  geo=%s  (%s)\n",
			dev, est.K, est.Pos, ll, est.Method)
		located++
	}
	fmt.Printf("located %d devices\n", located)

	if tracer := p.Tracer; tracer != nil {
		st := tracer.Stats()
		fmt.Printf("tracing: %d finished traces (1 in %d), %d buffered, %d devices explained\n",
			st.Finished, st.SampleEvery, st.Buffered, st.Devices)
		for _, dev := range devs {
			pv, ok := tracer.Explain(dev.String())
			if !ok {
				continue
			}
			fmt.Printf("explain %s: trace=%s algo=%s k=%d cacheHit=%v area=%.1fm² theorem2=%.1fm² stages=%v\n",
				pv.Device, pv.TraceID, pv.Algorithm, pv.K, pv.CacheHit,
				pv.IntersectedAreaM2, pv.Theorem2AreaM2, pv.StagesMs)
			break // one worked example is enough for the console
		}
	}

	if c.obsOut != "" {
		// Atomic write: a crash mid-save leaves the previous file intact
		// instead of a truncated JSON document.
		if err := obs.WriteFileAtomic(c.obsOut, store.Save); err != nil {
			return nil, err
		}
		slog.Info("observation store saved", "component", "replay", "path", c.obsOut)
	}
	return store, nil
}

// generateDemo simulates a short attack and persists its capture and AP
// database, so replay has something to chew on out of the box.
func generateDemo(pcapPath, apsPath string, proj *geo.Projection) error {
	w := sim.NewWorld(11)
	aps, err := sim.UniformDeployment(sim.DeploymentConfig{
		N:        150,
		Min:      geom.Pt(-300, -300),
		Max:      geom.Pt(300, 300),
		RangeMin: 70,
		RangeMax: 130,
	}, w.RNG())
	if err != nil {
		return err
	}
	w.APs = aps
	dev := &sim.Device{
		MAC:      sim.NewMAC(0xDD, 1),
		Mobility: sim.NewRouteWalk([]geom.Point{geom.Pt(-250, -100), geom.Pt(250, 120)}, 1.5),
		TX:       rf.TypicalMobile,
	}
	w.AddDevice(dev)
	events := sim.WalkTrace(w, dev, 360, 30)
	sn := sniffer.New(sniffer.Config{
		Pos:   geom.Pt(0, 0),
		Chain: rf.ChainLNA(),
		Plan:  dot11.DefaultPlan(),
	})
	caps := sn.CaptureAll(events)

	pf, err := os.Create(pcapPath)
	if err != nil {
		return err
	}
	if err := sn.WritePcapRadiotap(pf, captureEpoch, caps); err != nil {
		pf.Close()
		return err
	}
	if err := pf.Close(); err != nil {
		return err
	}

	if apsPath == "" {
		// Demo replayed against an existing -aps-snap: the capture is
		// regenerated but the AP database comes from the snapshot.
		return nil
	}
	db := apdb.FromWorld(w, true)
	af, err := os.Create(apsPath)
	if err != nil {
		return err
	}
	if err := db.ExportCSV(af, proj); err != nil {
		af.Close()
		return err
	}
	return af.Close()
}
