// Package wardrive simulates the paper's optional training phase: the
// adversary drives or walks a route through the monitored area with a
// GPS-equipped sniffing laptop (NetStumbler/Kismet-style), recording
// training tuples — (location, set of APs heard there) — that the AP-Loc
// algorithm uses to estimate AP locations when no external knowledge is
// available.
package wardrive

import (
	"math/rand"

	"repro/internal/dot11"
	"repro/internal/geom"
	"repro/internal/sim"
)

// Tuple is one training data tuple: where the wardriver was and which APs
// responded to its probes there.
type Tuple struct {
	// Pos is the GPS-reported training location.
	Pos geom.Point `json:"pos"`
	// APs are the BSSIDs heard at that location.
	APs []dot11.MAC `json:"aps"`
}

// Collector configures training-data collection.
type Collector struct {
	// World is the environment being driven through.
	World *sim.World
	// GPSNoiseStdM adds zero-mean Gaussian noise with this standard
	// deviation (metres) to recorded locations, modelling consumer GPS.
	GPSNoiseStdM float64
	// RNG drives the noise; nil disables noise regardless of GPSNoiseStdM.
	RNG *rand.Rand
}

// CollectAlong probes every intervalSec along the route and records one
// tuple per stop that heard at least one AP.
func (c Collector) CollectAlong(route *sim.RouteWalk, intervalSec float64) []Tuple {
	if route == nil || intervalSec <= 0 {
		return nil
	}
	var tuples []Tuple
	total := route.TotalDuration()
	for t := 0.0; t <= total; t += intervalSec {
		tuples = append(tuples, c.collectAt(route.PosAt(t))...)
	}
	return tuples
}

func (c Collector) collectAt(truePos geom.Point) []Tuple {
	aps := c.World.CommunicableAPs(truePos)
	if len(aps) == 0 {
		return nil
	}
	macs := make([]dot11.MAC, 0, len(aps))
	for _, ap := range aps {
		macs = append(macs, ap.MAC)
	}
	rec := truePos
	if c.RNG != nil && c.GPSNoiseStdM > 0 {
		rec.X += c.RNG.NormFloat64() * c.GPSNoiseStdM
		rec.Y += c.RNG.NormFloat64() * c.GPSNoiseStdM
	}
	return []Tuple{{Pos: rec, APs: macs}}
}

// TuplesForAP inverts the training set: the locations from which a given
// AP was heard — the discs AP-Loc intersects to estimate that AP's
// position.
func TuplesForAP(tuples []Tuple, ap dot11.MAC) []geom.Point {
	var out []geom.Point
	for _, t := range tuples {
		for _, m := range t.APs {
			if m == ap {
				out = append(out, t.Pos)
				break
			}
		}
	}
	return out
}

// APsInTraining returns the distinct APs appearing in the training set.
func APsInTraining(tuples []Tuple) []dot11.MAC {
	seen := make(map[dot11.MAC]bool)
	var out []dot11.MAC
	for _, t := range tuples {
		for _, m := range t.APs {
			if !seen[m] {
				seen[m] = true
				out = append(out, m)
			}
		}
	}
	return out
}
