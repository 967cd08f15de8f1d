package sim

import (
	"fmt"
	"math/rand"

	"repro/internal/geom"
)

// DeploymentConfig controls synthetic AP deployment generation.
type DeploymentConfig struct {
	// N is the number of APs.
	N int
	// Min and Max bound the rectangular deployment area (metres).
	Min, Max geom.Point
	// RangeMin and RangeMax bound the per-AP maximum transmission distance
	// drawn uniformly; set both equal for the constant-r analysis setting.
	RangeMin, RangeMax float64
	// ChannelWeights maps channel → selection weight. Nil uses the
	// campus-measured distribution (Fig 8: 93.7% on channels 1/6/11).
	ChannelWeights map[int]float64
}

// CampusChannelWeights is the channel distribution measured around the UML
// north campus (paper Fig 8): channels 1, 6 and 11 carry 93.7% of the APs,
// channel 6 being the most popular (most consumer APs' default).
func CampusChannelWeights() map[int]float64 {
	return map[int]float64{
		1:  0.268,
		2:  0.008,
		3:  0.010,
		4:  0.008,
		5:  0.006,
		6:  0.430,
		7:  0.006,
		8:  0.008,
		9:  0.010,
		10: 0.007,
		11: 0.239,
	}
}

func (c DeploymentConfig) validate() error {
	if c.N <= 0 {
		return fmt.Errorf("sim: deployment needs N > 0, got %d", c.N)
	}
	if c.Max.X <= c.Min.X || c.Max.Y <= c.Min.Y {
		return fmt.Errorf("sim: empty deployment area %v..%v", c.Min, c.Max)
	}
	if c.RangeMin <= 0 || c.RangeMax < c.RangeMin {
		return fmt.Errorf("sim: invalid range bounds [%v, %v]", c.RangeMin, c.RangeMax)
	}
	return nil
}

func pickChannel(weights map[int]float64, rng *rand.Rand) int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	x := rng.Float64() * total
	// Iterate channels in fixed order for determinism.
	for ch := 1; ch <= 14; ch++ {
		w, ok := weights[ch]
		if !ok {
			continue
		}
		if x < w {
			return ch
		}
		x -= w
	}
	return 6
}

// UniformDeployment scatters APs uniformly at random over the area — the
// distribution assumed by Theorems 2 and 3.
func UniformDeployment(cfg DeploymentConfig, rng *rand.Rand) ([]*AP, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	weights := cfg.ChannelWeights
	if weights == nil {
		weights = CampusChannelWeights()
	}
	aps := make([]*AP, 0, cfg.N)
	for i := 0; i < cfg.N; i++ {
		pos := geom.Point{
			X: cfg.Min.X + rng.Float64()*(cfg.Max.X-cfg.Min.X),
			Y: cfg.Min.Y + rng.Float64()*(cfg.Max.Y-cfg.Min.Y),
		}
		r := cfg.RangeMin + rng.Float64()*(cfg.RangeMax-cfg.RangeMin)
		ap, err := NewAP(i, fmt.Sprintf("net-%04d", i), pos, pickChannel(weights, rng), r)
		if err != nil {
			return nil, err
		}
		aps = append(aps, ap)
	}
	return aps, nil
}

// CampusDeployment builds a UML-north-campus-like deployment: a dense urban
// core with building clusters plus scattered residential APs, campus-scale
// extents (~1.5 km), and the measured channel mix. This is the workload for
// the localization accuracy experiments (Figs 13-17).
func CampusDeployment(n int, rng *rand.Rand) ([]*AP, error) {
	if n < 10 {
		return nil, fmt.Errorf("sim: campus deployment needs n >= 10, got %d", n)
	}
	half := n / 2
	base := DeploymentConfig{
		N:        half,
		Min:      geom.Pt(-750, -750),
		Max:      geom.Pt(750, 750),
		RangeMin: 60,
		RangeMax: 140,
	}
	aps, err := UniformDeployment(base, rng)
	if err != nil {
		return nil, err
	}
	// Building clusters: denser AP pockets like dorms and lab buildings.
	clusters := []geom.Point{
		geom.Pt(-300, 200), geom.Pt(250, -150), geom.Pt(50, 400), geom.Pt(-150, -350),
	}
	weights := CampusChannelWeights()
	idx := half
	for len(aps) < n {
		c := clusters[rng.Intn(len(clusters))]
		pos := geom.Point{
			X: c.X + rng.NormFloat64()*60,
			Y: c.Y + rng.NormFloat64()*60,
		}
		r := 60 + rng.Float64()*80
		ap, err := NewAP(idx, fmt.Sprintf("bldg-%04d", idx), pos, pickChannel(weights, rng), r)
		if err != nil {
			return nil, err
		}
		aps = append(aps, ap)
		idx++
	}
	return aps, nil
}
