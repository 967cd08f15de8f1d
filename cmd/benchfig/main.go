// Command benchfig regenerates every evaluation figure of the paper
// (Figs 2-6 analytical, Figs 8-17 experimental) as text tables or CSV —
// the reproduction's "make figures" entry point.
//
// Usage:
//
//	benchfig [-fig all|2|3|4|5|6|8|9|10|12|13|14|15|16|17] [-csv] [-seed S]
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		slog.Error("benchfig failed", "component", "benchfig", "err", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchfig", flag.ContinueOnError)
	fig := fs.String("fig", "all", "figure id (2..17), an extension name (defenses, positioning, channel-plans, centroid-estimators, radius-estimators), or all")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	seed := fs.Int64("seed", 1, "random seed")
	trials := fs.Int("trials", 3000, "Monte-Carlo trials for analytical cross-checks")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var campus *experiments.CampusRun
	getCampus := func() (*experiments.CampusRun, error) {
		if campus == nil {
			var err error
			campus, err = experiments.RunCampus(experiments.CampusConfig{Seed: *seed})
			if err != nil {
				return nil, err
			}
		}
		return campus, nil
	}
	campusFig := func(f func(*experiments.CampusRun) (experiments.Table, error)) func() (experiments.Table, error) {
		return func() (experiments.Table, error) {
			run, err := getCampus()
			if err != nil {
				return experiments.Table{}, err
			}
			return f(run)
		}
	}

	gens := map[string]func() (experiments.Table, error){
		"2":  func() (experiments.Table, error) { return experiments.Fig2(*trials, *seed) },
		"3":  func() (experiments.Table, error) { return experiments.Fig3(5) },
		"4":  func() (experiments.Table, error) { return experiments.Fig4(*seed) },
		"5":  func() (experiments.Table, error) { return experiments.Fig5(*trials, *seed) },
		"6":  func() (experiments.Table, error) { return experiments.Fig6(*trials*20, *seed) },
		"8":  func() (experiments.Table, error) { return experiments.Fig8(1000, *seed) },
		"9":  func() (experiments.Table, error) { return experiments.Fig9(200, *seed) },
		"10": func() (experiments.Table, error) { return experiments.Figs10And11(150, 60, *seed) },
		"12": experiments.Fig12,
		"13": campusFig(experiments.Fig13),
		"14": campusFig(experiments.Fig14),
		"15": campusFig(experiments.Fig15),
		"16": campusFig(experiments.Fig16),
		"17": campusFig(experiments.Fig17),
		// Extensions and ablations beyond the paper's figures.
		"defenses": func() (experiments.Table, error) { return experiments.DefenseEvaluation(*seed) },
		"positioning": func() (experiments.Table, error) {
			return experiments.PositioningComparison(200, *seed)
		},
		"channel-plans": func() (experiments.Table, error) {
			return experiments.AblationChannelPlans(1000, *seed)
		},
		"centroid-estimators": func() (experiments.Table, error) {
			return experiments.AblationCentroidEstimators(300, *seed)
		},
		"radius-estimators": func() (experiments.Table, error) {
			return experiments.AblationRadiusEstimators(*seed)
		},
		"fleet": func() (experiments.Table, error) { return experiments.FleetCoverage(*seed) },
		"propagation": func() (experiments.Table, error) {
			return experiments.AblationPropagation(400, *seed)
		},
	}
	order := []string{
		"2", "3", "4", "5", "6", "8", "9", "10", "12", "13", "14", "15", "16", "17",
		"defenses", "positioning", "channel-plans", "centroid-estimators", "radius-estimators",
		"fleet", "propagation",
	}

	var selected []string
	if *fig == "all" {
		selected = order
	} else {
		if _, ok := gens[*fig]; !ok {
			return fmt.Errorf("unknown figure %q", *fig)
		}
		selected = []string{*fig}
	}
	for _, id := range selected {
		t, err := gens[id]()
		if err != nil {
			return fmt.Errorf("fig %s: %w", id, err)
		}
		if *csv {
			fmt.Fprint(out, t.CSV())
		} else {
			fmt.Fprintln(out, t.String())
		}
	}
	return nil
}
