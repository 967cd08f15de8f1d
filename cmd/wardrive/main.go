// Command wardrive simulates the training phase of the digital Marauder's
// map: drive a route through a simulated campus collecting training tuples
// (GPS location + APs heard), estimate AP locations with AP-Loc's
// disc-intersection stage, and export the resulting AP database as
// WiGLE-style CSV.
//
// Usage:
//
//	wardrive [-aps 300] [-seed 1] [-interval 6] [-gps-noise 3]
//	         [-radius 130] [-out aps.csv]
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/geom"
	"repro/internal/sim"
	"repro/internal/wardrive"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		slog.Error("wardrive failed", "component", "wardrive", "err", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("wardrive", flag.ContinueOnError)
	nAPs := fs.Int("aps", 300, "number of deployed APs")
	seed := fs.Int64("seed", 1, "random seed")
	interval := fs.Float64("interval", 6, "seconds between training samples")
	gpsNoise := fs.Float64("gps-noise", 3, "GPS noise standard deviation, metres")
	radius := fs.Float64("radius", 130, "theoretical upper bound on AP range, metres")
	out := fs.String("out", "", "write estimated AP database as CSV to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	w := sim.NewWorld(*seed)
	aps, err := sim.UniformDeployment(sim.DeploymentConfig{
		N:        *nAPs,
		Min:      geom.Pt(-350, -350),
		Max:      geom.Pt(350, 350),
		RangeMin: 70,
		RangeMax: 130,
	}, w.RNG())
	if err != nil {
		return err
	}
	w.APs = aps

	var waypoints []geom.Point
	row := 0
	for y := -300.0; y <= 300; y += 100 {
		if row%2 == 0 {
			waypoints = append(waypoints, geom.Pt(-300, y), geom.Pt(300, y))
		} else {
			waypoints = append(waypoints, geom.Pt(300, y), geom.Pt(-300, y))
		}
		row++
	}
	route := sim.NewRouteWalk(waypoints, 10)
	collector := wardrive.Collector{
		World:        w,
		GPSNoiseStdM: *gpsNoise,
		RNG:          w.RNG(),
	}
	tuples := collector.CollectAlong(route, *interval)
	fmt.Printf("collected %d training tuples over %.0f s of driving\n",
		len(tuples), route.TotalDuration())

	know, err := core.EstimateAPLocations(tuples, core.APLocConfig{TrainingRadius: *radius})
	if err != nil {
		return err
	}

	var sumErr float64
	located := 0
	for _, ap := range w.APs {
		in, ok := know.Get(ap.MAC)
		if !ok {
			continue
		}
		sumErr += in.Pos.Dist(ap.Pos)
		located++
	}
	fmt.Printf("estimated %d/%d AP locations, average error %.1f m\n",
		located, len(w.APs), sumErr/float64(located))

	if *out == "" {
		return nil
	}
	db := know.Snapshot()
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	proj := geo.NewProjection(geo.LatLon{Lat: 42.6555, Lon: -71.3254})
	if err := db.ExportCSV(f, proj); err != nil {
		return err
	}
	fmt.Printf("wrote %d APs to %s\n", db.Len(), *out)
	return f.Close()
}
