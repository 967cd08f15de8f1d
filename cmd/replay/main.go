// Command replay re-runs the localization attack from persisted inputs: a
// pcap capture file (as the sniffer writes, bare 802.11 or radiotap) and a
// WiGLE-style AP database CSV. It rebuilds the observation store from the
// capture, localizes every observed device, and prints the resulting map —
// the attack pipeline decoupled from the simulator.
//
// Usage:
//
//	replay -pcap capture.pcap -aps aps.csv [-algo mloc|centroid|closest|aprad]
//	       [-origin-lat 42.6555] [-origin-lon -71.3254] [-obs store.json] [-shards 0]
//	       [-trace] [-trace-sample 1] [-trace-buffer 256]
//	       [-chaos] [-chaos-seed 1] [-checkpoint-dir DIR]
//	       [-prof-dir DIR] [-prof-cpu 10s]
//	       [-mutex-profile-fraction 0] [-block-profile-rate 0]
//
// With -prof-dir one profiler capture cycle runs concurrently with the
// replay (CPU capture first, cut short when the replay finishes, then
// heap/goroutine/mutex/block snapshots), and the decoded hot-function
// attribution is printed at the end. -mutex-profile-fraction and
// -block-profile-rate turn on the runtime's contention profilers, which
// otherwise leave the mutex and block captures empty.
//
// With -chaos the capture batch runs through the deterministic aggressive
// fault plan (drops, corruption, duplication, reordering) before ingest;
// corrupted frames land in the engine's quarantine, and the fault and
// quarantine counts are printed with the map. With -checkpoint-dir the
// newest valid observation checkpoint is restored before the replay and a
// final checkpoint is written after it.
//
// With -demo it first generates a demo capture+database pair into the
// given paths, then replays them (useful without prior artifacts). With
// -trace every sampled localization carries a trace and provenance
// record, and each located device's estimate is explained after the map
// is printed. The per-stage histograms time 1 fix in 16 plus every traced
// one, so -trace -trace-sample 1 times every fix.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"os"
	"sort"
	"time"

	"repro/internal/apdb"
	"repro/internal/core"
	"repro/internal/dot11"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/flagcheck"
	"repro/internal/geo"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/rf"
	"repro/internal/sim"
	"repro/internal/sniffer"
	"repro/internal/telemetry"
	"repro/internal/telemetry/prof"
	"repro/internal/telemetry/trace"
)

var captureEpoch = time.Date(2008, 10, 24, 0, 0, 0, 0, time.UTC)

func main() {
	if err := run(os.Args[1:]); err != nil {
		slog.Error("replay failed", "component", "replay", "err", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	pcapPath := fs.String("pcap", "", "pcap capture to replay (required)")
	apsPath := fs.String("aps", "", "AP database CSV (required unless -aps-snap is given)")
	apsSnap := fs.String("aps-snap", "", "binary AP snapshot (apdb format) to load instead of the CSV — no re-ingest")
	saveApsSnap := fs.String("save-aps-snap", "", "after loading, save the AP database as a binary snapshot here")
	algo := fs.String("algo", "mloc", "localization algorithm: mloc, centroid, closest or aprad")
	originLat := fs.Float64("origin-lat", 42.6555, "local-plane origin latitude")
	originLon := fs.Float64("origin-lon", -71.3254, "local-plane origin longitude")
	obsOut := fs.String("obs", "", "also save the rebuilt observation store as JSON here")
	demo := fs.Bool("demo", false, "generate a demo capture and AP database first")
	fallback := fs.Float64("fallback-range", 160, "disc radius for APs with unknown range")
	shards := fs.Int("shards", 0, "observation store shard count, rounded to a power of two (0 = GOMAXPROCS-rounded)")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics and /debug/vars on this address for the replay's duration")
	pprofOn := fs.Bool("pprof", false, "also mount net/http/pprof under /debug/pprof/")
	logLevel := fs.String("log-level", "info", "log level: debug, info, warn or error")
	logFormat := fs.String("log-format", "text", "log format: text or json")
	traceOn := fs.Bool("trace", false, "sample localizations into per-estimate traces and provenance records")
	traceSample := fs.Float64("trace-sample", 1, "fraction of localizations traced, in (0, 1] (resolves to every-Nth sampling)")
	traceBuffer := fs.Int("trace-buffer", 256, "finished-trace ring buffer capacity")
	chaos := fs.Bool("chaos", false, "run the capture through the aggressive fault plan before ingest")
	chaosSeed := fs.Int64("chaos-seed", 1, "fault plan seed (deterministic per seed)")
	ckptDir := fs.String("checkpoint-dir", "", "restore the newest observation checkpoint before the replay and write one after it")
	profDir := fs.String("prof-dir", "", "directory for profiler artifacts; one capture cycle covers the replay (empty = off)")
	profCPU := fs.Duration("prof-cpu", 10*time.Second, "maximum CPU capture length (cut short when the replay finishes first)")
	mutexFrac := fs.Int("mutex-profile-fraction", 0, "sample 1/n of mutex contention events into the mutex profile (0 = off)")
	blockRate := fs.Int("block-profile-rate", 0, "record goroutine blocking lasting >= n ns into the block profile (0 = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Dependent-flag validation, shared semantics with cmd/marauder: a
	// flag that only tunes a never-enabled feature is an error.
	fc := flagcheck.New(fs).
		Requires("chaos-seed", "chaos").
		Requires("prof-cpu", "prof-dir").
		Requires("trace-sample", "trace").
		Requires("trace-buffer", "trace")
	if err := fc.Err(); err != nil {
		return err
	}
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
		slog.Info("estimate tracing on", "component", "replay",
			"sample_every", tracer.SampleEvery(), "buffer", *traceBuffer)
	}
	if *pcapPath == "" || (*apsPath == "" && *apsSnap == "") {
		return fmt.Errorf("-pcap and one of -aps / -aps-snap are required")
	}
	if *metricsAddr != "" {
		msrv := &http.Server{Addr: *metricsAddr, Handler: telemetry.Mux(telemetry.Default(), *pprofOn)}
		go func() {
			if err := msrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				slog.Error("telemetry server failed", "component", "replay", "addr", *metricsAddr, "err", err)
			}
		}()
		defer msrv.Close()
		slog.Info("telemetry listening", "component", "replay", "addr", *metricsAddr, "pprof", *pprofOn)
	}
	if *profDir != "" {
		p, err := prof.New(prof.Config{Dir: *profDir, CPUDuration: *profCPU, Interval: *profCPU})
		if err != nil {
			return err
		}
		profCtx, profStop := context.WithCancel(context.Background())
		profDone := make(chan struct{})
		started := make(chan struct{})
		go func() {
			if err := p.CycleSignaled(profCtx, started); err != nil {
				slog.Warn("profiler cycle failed", "component", "replay", "err", err)
			}
			close(profDone)
		}()
		<-started
		defer func() {
			profStop()
			<-profDone
			if attr := p.Attribution(); attr != nil {
				if len(attr.TopFunctions) > 0 {
					hot := attr.TopFunctions[0]
					fmt.Printf("profile: %d samples, hottest %s (%.1f%% flat), artifacts in %s\n",
						attr.Samples, hot.Name, 100*hot.FlatShare, *profDir)
				} else {
					fmt.Printf("profile: %d samples (replay too brief for attribution), artifacts in %s\n",
						attr.Samples, *profDir)
				}
			}
			_ = p.Close()
		}()
		slog.Info("profiler on", "component", "replay", "dir", *profDir, "cpu", *profCPU)
	}
	proj := geo.NewProjection(geo.LatLon{Lat: *originLat, Lon: *originLon})

	if *demo {
		if err := generateDemo(*pcapPath, *apsPath, proj); err != nil {
			return fmt.Errorf("generate demo: %w", err)
		}
		slog.Info("demo artifacts written", "component", "replay", "pcap", *pcapPath, "aps", *apsPath)
	}

	var db *apdb.Store
	if *apsSnap != "" {
		var err error
		db, err = apdb.LoadSnapshotFile(*apsSnap)
		if err != nil {
			return err
		}
		slog.Info("AP snapshot loaded", "component", "replay", "path", *apsSnap, "aps", db.Len())
	} else {
		apsFile, err := os.Open(*apsPath)
		if err != nil {
			return err
		}
		defer apsFile.Close()
		db, err = apdb.ImportCSV(apsFile, proj)
		if err != nil {
			return err
		}
	}
	if *saveApsSnap != "" {
		if err := db.SaveSnapshotFile(*saveApsSnap); err != nil {
			return err
		}
		slog.Info("AP snapshot saved", "component", "replay", "path", *saveApsSnap, "aps", db.Len())
	}

	capFile, err := os.Open(*pcapPath)
	if err != nil {
		return err
	}
	defer capFile.Close()
	caps, err := sniffer.ReadPcap(capFile, captureEpoch)
	if err != nil {
		return err
	}

	knowInfos := db.All()
	for i := range knowInfos {
		if knowInfos[i].MaxRange <= 0 {
			knowInfos[i].MaxRange = *fallback
		}
	}
	know := core.NewKnowledge(knowInfos)

	var locate core.Localizer
	switch *algo {
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
			Cfg: core.APRadConfig{MaxRadius: 2 * *fallback, MaxNeighborConstraints: 12},
		}
	default:
		return fmt.Errorf("unknown algorithm %q", *algo)
	}

	store := obs.NewStoreShards(*shards)
	var recoveredGen uint64
	if *ckptDir != "" {
		recovered, info, err := obs.Recover(*ckptDir, *shards)
		if err != nil {
			return err
		}
		for _, sk := range info.Skipped {
			slog.Warn("checkpoint skipped", "component", "replay", "path", sk.Path, "err", sk.Err)
		}
		if recovered != nil {
			store = recovered
			recoveredGen = info.Meta.Generation
			slog.Info("observations restored from checkpoint", "component", "replay",
				"path", info.Path, "generation", info.Meta.Generation, "records", info.Meta.Records)
		}
	}

	eng, err := engine.New(engine.Config{
		Know:      know,
		Store:     store,
		Localizer: locate,
		WindowSec: 60, // SnapshotRange below spans the whole capture
		Tracer:    tracer,
	})
	if err != nil {
		return err
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
	var plan *faults.Plan
	if *chaos {
		plan = faults.Aggressive(*chaosSeed)
		inj := &sniffer.FaultInjector{Plan: plan}
		caps = append(inj.Apply(caps), inj.Drain()...)
		slog.Info("chaos mode on", "component", "replay", "seed", *chaosSeed)
	}
	// The whole capture is one batch: the store groups it by shard and
	// takes each shard lock once instead of once per frame.
	eng.IngestCaptures(caps)
	store = eng.Store()
	fmt.Printf("replayed %d frames: %d devices (%d probing), %d APs observed\n",
		len(caps), len(store.Devices()), len(store.ProbingDevices()), len(store.APs()))
	if q := eng.Quarantine(); q.Total > 0 {
		fmt.Printf("quarantined %d captures: %v\n", q.Total, q.ByReason)
	}
	if plan != nil {
		c := plan.Counters()
		fmt.Printf("faults injected: dropped=%d corrupted=%d duplicated=%d reorderedBatches=%d delayedBatches=%d\n",
			c.Dropped, c.Corrupted, c.Duplicated, c.ReorderedBatches, c.DelayedBatches)
	}

	if err := eng.RefreshKnowledge(); err != nil {
		return fmt.Errorf("train knowledge: %w", err)
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

	if tracer != nil {
		st := tracer.Stats()
		fmt.Printf("tracing: %d finished traces (1 in %d), %d buffered, %d devices explained\n",
			st.Finished, st.SampleEvery, st.Buffered, st.Devices)
		for _, dev := range devs {
			p, ok := tracer.Explain(dev.String())
			if !ok {
				continue
			}
			fmt.Printf("explain %s: trace=%s algo=%s k=%d cacheHit=%v area=%.1fm² theorem2=%.1fm² stages=%v\n",
				p.Device, p.TraceID, p.Algorithm, p.K, p.CacheHit,
				p.IntersectedAreaM2, p.Theorem2AreaM2, p.StagesMs)
			break // one worked example is enough for the console
		}
	}

	if *obsOut != "" {
		// Atomic write: a crash mid-save leaves the previous file intact
		// instead of a truncated JSON document.
		if err := obs.WriteFileAtomic(*obsOut, store.Save); err != nil {
			return err
		}
		slog.Info("observation store saved", "component", "replay", "path", *obsOut)
	}
	if *ckptDir != "" {
		ckpt := &obs.Checkpointer{Dir: *ckptDir, Source: func() *obs.Store { return store }}
		ckpt.SetGeneration(recoveredGen)
		path, err := ckpt.CheckpointNow()
		if err != nil {
			return err
		}
		slog.Info("final checkpoint written", "component", "replay", "path", path, "generation", ckpt.Generation())
	}
	return nil
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
