// Command bench is the end-to-end benchmark of the capture → map
// pipeline. It pre-generates each workload's traffic from internal/sim,
// internal/sniffer and internal/faults, then drives the system only
// through its public calls — capwire.Client → capwire.Server →
// engine.IngestCapturesFrom → engine.Snapshot/Track →
// mapserver.State.PublishFrame → GET /api/state — and checks what it
// serves against a sequential, uncached reference engine.
//
// Usage (from this directory, or through run.sh from the repository root):
//
//	go run . -workload wire_saturate|live_map|city_frames|track_churn|all
//	         [-seed 1] [-seconds 10] [-trace 0|1] [-out FILE] [-spans DIR] [-smoke]
//
// Every metric is printed by name with its unit and sample count. The
// last line of standard output is one JSON object: correct, attempted,
// failed, and the metrics — the end-to-end metrics, or with -trace 1 the
// per-layer ones. A run whose checks fail exits 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// endToEndNames and layerNamesOut are the metrics the last output line
// carries, as BENCHMARK.json lists them.
var (
	endToEndNames = []string{"setup_s", "throughput_per_s", "cpu_ns_per_item", "latency_p50_ms", "latency_p99_ms", "heap_retained_mb"}
	layerNamesOut = []string{
		"capwire.send_ns_per_frame", "capwire.send_blocked_frac", "capwire.transit_us_p50",
		"capwire.encode_ns_per_frame", "capwire.decode_ns_per_frame", "capwire.bytes_per_frame",
		"engine.ingest_ns_per_frame", "engine.snapshot_ns_per_device", "engine.cache_hit_ratio",
		"engine.cache_evictions_per_kfix", "engine.track_ns_per_fix",
		"obs.ingest_ns_per_frame", "obs.devices_ns", "obs.window_ns_per_fix",
		"core.locate_ns_per_miss", "core.tracked_ns_per_fix", "geom.incremental_ratio",
		"mapserver.publish_ns_per_device", "mapserver.serve_ns_per_device", "mapserver.bytes_per_device",
		"runtime.gc_cpu_frac", "runtime.alloc_bytes_per_item", "bench.trace_overhead_frac",
	}
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// summary is the last output line.
type summary struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: wire_saturate, live_map, city_frames, track_churn or all")
	seed := fs.Int64("seed", 1, "seed the workload's inputs derive from (1 for development, 2 held out)")
	seconds := fs.Int("seconds", 10, "length of the timed phase, in one-second windows")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer ledger")
	out := fs.String("out", "", "also write the full report as JSON to this file")
	spans := fs.String("spans", filepath.Join(".bench_build", "spans"), "directory for a traced run's span JSONL, one <workload>-seed<seed>.jsonl per workload")
	smoke := fs.Bool("smoke", false, "run at test scale")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var chosen []*workload
	if *name == "all" {
		chosen = workloads
	} else if wl, ok := workloadByName(*name); ok {
		chosen = []*workload{wl}
	} else {
		fmt.Fprintf(stderr, "bench: unknown -workload %q (want wire_saturate, live_map, city_frames, track_churn or all)\n", *name)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "bench: need -seconds >= 1, -trace 0 or 1, and no positional arguments")
		return 2
	}
	if *trace == 1 && *seconds < 2 {
		fmt.Fprintln(stderr, "bench: a traced run alternates untraced and traced windows, so it needs -seconds >= 2")
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke, sc: fullScale}
	if *smoke {
		cfg.sc = smokeScale
	}

	all := summary{Correct: true, Metrics: map[string]valueUnit{}}
	reports := map[string]*result{}
	for _, wl := range chosen {
		path := filepath.Join(*spans, fmt.Sprintf("%s-seed%d.jsonl", wl.name, cfg.seed))
		res, err := runWorkload(context.Background(), wl, cfg, path)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		printReport(stdout, wl, res)
		reports[wl.name] = res
		one := lastLine(res)
		all.Correct = all.Correct && one.Correct
		all.Attempted += one.Attempted
		all.Failed += one.Failed
		for k, v := range one.Metrics {
			if len(chosen) > 1 {
				k = wl.name + "." + k
			}
			all.Metrics[k] = v
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(reports, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: writing -out: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !all.Correct {
		return 1
	}
	return 0
}

// lastLine is one workload's summary: its end-to-end metrics, or its
// per-layer metrics in a traced run.
func lastLine(res *result) summary {
	s := summary{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]valueUnit{}}
	names, from := endToEndNames, res.EndToEnd
	if res.Trace {
		names, from = layerNamesOut, res.Layers
	}
	for _, n := range names {
		s.Metrics[n] = valueUnit{Value: from[n].Value, Unit: from[n].Unit}
	}
	return s
}

func printReport(w io.Writer, wl *workload, res *result) {
	fmt.Fprintf(w, "== %s seed=%d seconds=%d trace=%v (%s, nproc %d)\n", res.Workload, res.Seed, res.Seconds, res.Trace, res.Go, res.Nproc)
	fmt.Fprintf(w, "   why: %s\n", wl.why)
	section := func(title string, m map[string]metricV, order []string) {
		if len(m) == 0 {
			return
		}
		fmt.Fprintf(w, "   %s\n", title)
		for _, n := range order {
			v, ok := m[n]
			if !ok {
				continue
			}
			var detail []string
			if v.As != "" {
				detail = append(detail, v.As)
			}
			if v.Samples > 0 {
				detail = append(detail, fmt.Sprintf("n=%d", v.Samples))
			}
			if v.Note != "" {
				detail = append(detail, v.Note)
			}
			fmt.Fprintf(w, "     %-34s %14.6g %-6s %s\n", n, v.Value, v.Unit, strings.Join(detail, "; "))
		}
	}
	section("end to end", res.EndToEnd, endToEndNames)
	section("workload", res.Extra, layerNames(res.Extra))
	section("layers", res.Layers, layerNames(res.Layers))
	if len(res.Ledger) > 0 {
		fmt.Fprintln(w, "   ledger")
		for _, c := range res.Ledger {
			fmt.Fprintf(w, "     %s\n", c)
		}
	}
	if res.Spans != nil {
		fmt.Fprintf(w, "   spans: %d written to %s (%d dropped)\n", res.Spans.Count, res.Spans.File, res.Spans.Dropped)
	}
	for _, f := range res.Failures {
		fmt.Fprintf(w, "   FAILED: %s\n", f)
	}
	fmt.Fprintf(w, "   correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
}
