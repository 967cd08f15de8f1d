// Package ops is the commands' operational layer: the shared flag groups
// and the process lifecycle around them. Each command names the groups
// it uses; the flags, their dependent-flag rules and the start and stop
// order are stated here once. Only commands import this package.
package ops

import (
	"flag"
	"time"

	"repro/internal/flagcheck"
	"repro/internal/telemetry/slo"
)

// Group selects a set of operational flags. The log flags, -log-level
// and -log-format, are always registered.
type Group uint

const (
	Metrics    Group = 1 << iota // -metrics-addr
	Pprof                        // -pprof, -mutex-profile-fraction, -block-profile-rate
	Trace                        // -trace, -trace-sample, -trace-buffer
	Chaos                        // -chaos, -chaos-seed
	Checkpoint                   // -shards, -checkpoint-dir
	Prof                         // -prof-dir, -prof-cpu
	FTDC                         // -ftdc-dir, -sample-interval
	SLO                          // -slo, -slo-defaults, -sample-interval
	// Serving marks a command that serves its own HTTP port until it is
	// stopped. -pprof also mounts there, so it needs no -metrics-addr, and
	// the periodic services get their periods: -checkpoint-interval with
	// Checkpoint, -prof-interval with Prof.
	Serving
)

// sampled is the groups whose services the process's one registry
// sampler feeds, every -sample-interval.
const sampled = FTDC | SLO

// Flags holds one command's operational flag values.
type Flags struct {
	component string
	groups    Group
	fs        *flag.FlagSet
	rules     [][]string // dependent flag, then the flags that enable it

	// Pprof mounts net/http/pprof on the metrics listener and, for a
	// Serving command, on its own port.
	Pprof bool

	logLevel, logFormat, metricsAddr, checkpointDir, ftdcDir, profDir string
	mutexFraction, blockRate, traceBuffer, shards                     int
	trace, chaos, sloDefaults                                         bool
	traceSample                                                       float64
	chaosSeed                                                         int64
	checkpointInterval, sampleInterval, profInterval, profCPU         time.Duration
	slos                                                              []slo.Objective
}

// Register declares the log flags and the flags of groups on fs, with
// their dependent-flag rules. component names the command in log lines.
func Register(fs *flag.FlagSet, component string, groups Group) *Flags {
	f := &Flags{component: component, groups: groups, fs: fs}
	fs.StringVar(&f.logLevel, "log-level", "info", "log level: debug, info, warn or error")
	fs.StringVar(&f.logFormat, "log-format", "text", "log format: text or json")
	if f.has(Metrics) {
		fs.StringVar(&f.metricsAddr, "metrics-addr", "", "serve /metrics and /debug/vars on this address (e.g. :9642)")
	}
	if f.has(Pprof) {
		fs.BoolVar(&f.Pprof, "pprof", false, "also mount net/http/pprof under /debug/pprof/")
		fs.IntVar(&f.mutexFraction, "mutex-profile-fraction", 0, "sample 1/n of mutex contention events into the mutex profile (0 = off)")
		fs.IntVar(&f.blockRate, "block-profile-rate", 0, "record goroutine blocking lasting >= n ns into the block profile (0 = off)")
		if !f.has(Serving) {
			f.requires("pprof", "metrics-addr")
		}
	}
	if f.has(Trace) {
		fs.BoolVar(&f.trace, "trace", false, "sample localizations into per-estimate traces and provenance records")
		fs.Float64Var(&f.traceSample, "trace-sample", 1, "fraction of localizations traced, in (0, 1] (resolves to every-Nth sampling)")
		fs.IntVar(&f.traceBuffer, "trace-buffer", 256, "finished-trace ring buffer capacity")
		f.requires("trace-sample", "trace")
		f.requires("trace-buffer", "trace")
	}
	if f.has(Chaos) {
		fs.BoolVar(&f.chaos, "chaos", false, "run captures through the aggressive fault plan before ingest: card failures, clock skew, frame corruption, drops, duplication, reordering")
		fs.Int64Var(&f.chaosSeed, "chaos-seed", 1, "fault plan seed (deterministic per seed)")
		f.requires("chaos-seed", "chaos")
	}
	if f.has(Checkpoint) {
		fs.IntVar(&f.shards, "shards", 0, "observation store shard count, rounded to a power of two (0 = GOMAXPROCS-rounded)")
		fs.StringVar(&f.checkpointDir, "checkpoint-dir", "", "directory for crash-safe observation checkpoints: the newest valid one is restored on start, a final one written on exit")
		if f.has(Serving) {
			fs.DurationVar(&f.checkpointInterval, "checkpoint-interval", 10*time.Second, "period between observation checkpoints while serving (<= 0 = final checkpoint only)")
			f.requires("checkpoint-interval", "checkpoint-dir")
		}
	}
	if f.has(sampled) {
		// It always drives the runtime series, so it needs no enabler.
		fs.DurationVar(&f.sampleInterval, "sample-interval", time.Second, "period of the one registry sampler: runtime series, flight recorder and SLO evaluation")
	}
	if f.has(FTDC) {
		fs.StringVar(&f.ftdcDir, "ftdc-dir", "", "directory for FTDC flight-recorder files (empty = recorder off)")
	}
	if f.has(Prof) {
		fs.StringVar(&f.profDir, "prof-dir", "", "directory for continuous-profiler artifacts; a finite run captures one cycle covering it (empty = profiler off)")
		fs.DurationVar(&f.profCPU, "prof-cpu", 10*time.Second, "CPU capture length per profiler cycle (cut short when a finite run finishes first)")
		f.requires("prof-cpu", "prof-dir")
		if f.has(Serving) {
			fs.DurationVar(&f.profInterval, "prof-interval", 60*time.Second, "pause between profiler capture cycles")
			f.requires("prof-interval", "prof-dir")
		}
	}
	if f.has(SLO) {
		fs.Func("slo", "SLO spec, repeatable: latency:<name>:<series>:<seconds>:<target> or availability:<name>:<totalSeries>:<badSeries>:<target>", func(s string) error {
			o, err := slo.ParseObjectiveSpec(s)
			if err != nil {
				return err
			}
			f.slos = append(f.slos, o)
			return nil
		})
		fs.BoolVar(&f.sloDefaults, "slo-defaults", false, "track the built-in fix-latency and fix-availability objectives")
	}
	return f
}

func (f *Flags) has(g Group) bool { return f.groups&g != 0 }

func (f *Flags) requires(dependent string, enablers ...string) {
	f.rules = append(f.rules, append([]string{dependent}, enablers...))
}

// Checker returns a dependent-flag checker over the parsed flag set,
// loaded with the groups' rules: a flag that only tunes a feature the
// command line never enabled is an operator typo, not a no-op. Commands
// chain their own rules onto it before calling Err.
func (f *Flags) Checker() *flagcheck.Checker {
	c := flagcheck.New(f.fs)
	for _, r := range f.rules {
		c.Requires(r[0], r[1:]...)
	}
	return c
}
