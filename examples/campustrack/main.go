// Campustrack: the full attack pipeline on a simulated campus — deploy
// APs, let a victim walk and probe, capture its traffic through the
// high-gain receiver chain, and track it continuously with M-Loc. Prints
// the victim's estimated trail with per-fix error and optionally serves
// the live map.
//
//	go run ./examples/campustrack [-serve :8642]
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/dot11"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/mapserver"
	"repro/internal/rf"
	"repro/internal/sim"
	"repro/internal/sniffer"
)

func main() {
	serveAddr := flag.String("serve", "", "serve the live map on this address (e.g. :8642)")
	flag.Parse()
	if err := run(*serveAddr); err != nil {
		slog.Error("campustrack failed", "component", "campustrack", "err", err)
		os.Exit(1)
	}
}

func run(serveAddr string) error {
	// 1. A campus with 250 APs.
	w := sim.NewWorld(42)
	aps, err := sim.UniformDeployment(sim.DeploymentConfig{
		N:        250,
		Min:      geom.Pt(-350, -350),
		Max:      geom.Pt(350, 350),
		RangeMin: 70,
		RangeMax: 130,
	}, w.RNG())
	if err != nil {
		return err
	}
	w.APs = aps

	// 2. The victim walks across campus; its phone scans every 30 s.
	route := sim.NewRouteWalk([]geom.Point{
		geom.Pt(-300, -250), geom.Pt(250, -250), geom.Pt(250, 100),
		geom.Pt(-200, 100), geom.Pt(-200, 300), geom.Pt(300, 300),
	}, 1.4)
	victim := &sim.Device{
		MAC:      sim.NewMAC(0xDD, 7),
		Mobility: route,
		TX:       rf.TypicalMobile,
	}
	w.AddDevice(victim)
	events := sim.WalkTrace(w, victim, route.TotalDuration(), 30)

	// 3. The Marauder's map sniffer on the CS building roof: 15 dBi
	// antenna + LNA + 3 cards on channels 1/6/11.
	sn := sniffer.New(sniffer.Config{
		Pos:   geom.Pt(0, 0),
		Chain: rf.ChainLNA(),
		Plan:  dot11.DefaultPlan(),
	})
	fmt.Printf("sniffer coverage radius: %.0f m\n", sn.CoverageRadius(rf.TypicalMobile))

	// 4. The localization engine owns the rest of the pipeline: ingest the
	// captures, keep per-device Γ sets, localize with M-Loc on demand.
	knowInfos := make([]core.APInfo, 0, len(aps))
	for _, ap := range aps {
		knowInfos = append(knowInfos, core.APInfo{BSSID: ap.MAC, Pos: ap.Pos, MaxRange: ap.MaxRange})
	}
	know := core.NewKnowledge(knowInfos)
	eng, err := engine.New(engine.Config{Know: know, WindowSec: 60})
	if err != nil {
		return err
	}
	caps := sn.CaptureAll(events)
	eng.IngestCaptures(caps)
	store := eng.Store()
	fmt.Printf("captured %d frames; %d devices seen, %d probing\n",
		len(caps), len(store.Devices()), len(store.ProbingDevices()))

	trail, err := eng.Track(victim.MAC, 0, route.TotalDuration(), 60)
	if err != nil {
		return err
	}
	if len(trail) == 0 {
		return fmt.Errorf("no fixes produced")
	}

	var sum float64
	for _, p := range trail {
		truth := route.PosAt(p.TimeSec)
		e := core.Error(p.Est, truth)
		sum += e
		fmt.Printf("t=%5.0fs  k=%2d  est=%-22v truth=%-22v err=%5.1f m\n",
			p.TimeSec, p.Est.K, p.Est.Pos, truth, e)
	}
	stats := eng.Stats()
	fmt.Printf("tracked %d fixes, average error %.1f m (Γ-cache: %d/%d hits)\n",
		len(trail), sum/float64(len(trail)), stats.CacheHits, stats.Fixes)

	if serveAddr == "" {
		return nil
	}
	// 5. Optional: the Marauder's map display — one engine snapshot frame
	// at the end of the walk.
	state := mapserver.NewState()
	state.APsFromKnowledge(know)
	last := trail[len(trail)-1].TimeSec
	state.PublishFrame(eng.Snapshot(last), func(m dot11.MAC) (geom.Point, bool) {
		if m == victim.MAC {
			return route.PosAt(last), true
		}
		return geom.Point{}, false
	})
	fmt.Printf("map at %s — ctrl-C to stop\n", mapserver.URL(serveAddr))
	// ReadHeaderTimeout bounds header reads, so a client trickling
	// headers cannot hold a connection open indefinitely.
	srv := &http.Server{Addr: serveAddr, Handler: mapserver.Handler(state), ReadHeaderTimeout: 10 * time.Second}
	return srv.ListenAndServe()
}
