package sim

import (
	"repro/internal/geom"
	"repro/internal/rf"
)

// Campus is the attack's campus scene: nAPs deployed uniformly over a
// 700 m square and one probing victim walking a serpentine route across
// it. cmd/marauder localizes the victim and every cmd/capagent captures
// it, so both must build the scene here: the same seed and AP count give
// the same campus, or an agent's traffic would describe a world the
// engine does not know.
type Campus struct {
	World  *World
	Victim *Device
	Route  *RouteWalk
}

// NewCampus builds the campus scene for seed and nAPs.
func NewCampus(seed int64, nAPs int) (*Campus, error) {
	w := NewWorld(seed)
	aps, err := UniformDeployment(DeploymentConfig{
		N:        nAPs,
		Min:      geom.Pt(-350, -350),
		Max:      geom.Pt(350, 350),
		RangeMin: 70,
		RangeMax: 130,
	}, w.RNG())
	if err != nil {
		return nil, err
	}
	w.APs = aps

	route := NewRouteWalk(Sweep(250, 125, false), 1.5)
	victim := &Device{
		MAC:      NewMAC(0xDD, 1),
		Mobility: route,
		TX:       rf.TypicalMobile,
	}
	w.AddDevice(victim)
	return &Campus{World: w, Victim: victim, Route: route}, nil
}

// Scans returns the victim's probe scan bursts in [from, to) seconds of
// route time: one burst every 30 s, numbered from the window's start so
// that consecutive windows continue one sequence.
func (c *Campus) Scans(from, to float64) []TxEvent {
	seq := uint16(from/30) + 1
	var events []TxEvent
	for t := from; t < to; t += 30 {
		events = append(events, ScanBurst(c.World, c.Victim, t, c.Victim.PosAt(t), seq)...)
		seq++
	}
	return events
}
