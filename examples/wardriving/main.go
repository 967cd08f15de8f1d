// Wardriving: the no-external-knowledge attack (AP-Loc). The adversary
// first wardrives the area collecting training tuples, estimates AP
// locations and radii from them, then locates victim devices — never
// having seen a WiGLE dump.
//
//	go run ./examples/wardriving
package main

import (
	"fmt"
	"log/slog"
	"os"

	"repro/internal/core"
	"repro/internal/dot11"
	"repro/internal/geom"
	"repro/internal/rf"
	"repro/internal/sim"
	"repro/internal/wardrive"
)

func main() {
	if err := run(); err != nil {
		slog.Error("wardriving failed", "component", "wardriving", "err", err)
		os.Exit(1)
	}
}

func run() error {
	// The monitored neighbourhood.
	w := sim.NewWorld(7)
	aps, err := sim.UniformDeployment(sim.DeploymentConfig{
		N:        180,
		Min:      geom.Pt(-300, -300),
		Max:      geom.Pt(300, 300),
		RangeMin: 70,
		RangeMax: 130,
	}, w.RNG())
	if err != nil {
		return err
	}
	w.APs = aps

	// Training phase: drive the street grid with GPS + NetStumbler.
	drive := sim.NewRouteWalk(sim.Sweep(250, 100, true), 8)
	collector := wardrive.Collector{World: w, GPSNoiseStdM: 3, RNG: w.RNG()}
	tuples := collector.CollectAlong(drive, 8)
	fmt.Printf("training phase: %d tuples from a %.0f s drive\n",
		len(tuples), drive.TotalDuration())

	// AP-Loc stage 1: estimate AP locations from the tuples.
	know, err := core.EstimateAPLocations(tuples, core.APLocConfig{TrainingRadius: 130})
	if err != nil {
		return err
	}
	var apErr float64
	n := 0
	for _, ap := range w.APs {
		if in, ok := know.Get(ap.MAC); ok {
			apErr += in.Pos.Dist(ap.Pos)
			n++
		}
	}
	fmt.Printf("estimated %d/%d AP locations, average error %.1f m\n",
		n, len(aps), apErr/float64(n))

	// Victims scattered around the area; their probe traffic yields the
	// observed AP sets.
	sets := make(map[dot11.MAC][]dot11.MAC)
	truths := make(map[dot11.MAC]geom.Point)
	for i, pos := range []geom.Point{
		geom.Pt(-120, 80), geom.Pt(50, -150), geom.Pt(200, 120),
		geom.Pt(-220, -60), geom.Pt(0, 0),
	} {
		mac := sim.NewMAC(0xDD, i)
		var gamma []dot11.MAC
		for _, ap := range w.CommunicableAPs(pos) {
			gamma = append(gamma, ap.MAC)
		}
		sets[mac] = gamma
		truths[mac] = pos
	}

	// AP-Loc stages 2+3: estimate radii (AP-Rad) and locate with M-Loc.
	cfg := core.APLocConfig{
		TrainingRadius: 130,
		Rad:            core.APRadConfig{MaxRadius: 160, MaxNeighborConstraints: 12},
	}
	for mac, truth := range truths {
		est, err := core.APLoc(tuples, sets, mac, cfg)
		if err != nil {
			fmt.Printf("victim %v: %v\n", mac, err)
			continue
		}
		fmt.Printf("victim %v: estimated %v true %v error %.1f m (k=%d)\n",
			mac, est.Pos, truth, core.Error(est, truth), est.K)
	}

	// For reference: the receiver chain that would collect this traffic.
	fmt.Printf("attack hardware: %s chain, %.0f m urban coverage radius\n",
		rf.ChainLNA().Name,
		rf.CoverageRadiusModel(rf.TypicalMobile, rf.ChainLNA(),
			rf.LogDistance{Exponent: 2.8, RefDistM: 1}, 1e6))
	return nil
}
