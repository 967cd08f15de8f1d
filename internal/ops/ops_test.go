package ops

import (
	"context"
	"flag"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/dot11"
	"repro/internal/obs"
	"repro/internal/telemetry"
	"repro/internal/telemetry/ftdc"
)

// TestMetricsServerReadHeaderTimeout: the -metrics-addr listener bounds
// header reads, so a peer trickling headers cannot pin a connection.
func TestMetricsServerReadHeaderTimeout(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs, "test", Metrics)
	if err := fs.Parse([]string{"-metrics-addr", "127.0.0.1:0"}); err != nil {
		t.Fatal(err)
	}
	p, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.metrics == nil || p.metrics.ReadHeaderTimeout != ReadHeaderTimeout {
		t.Fatalf("metrics server = %+v, want ReadHeaderTimeout %v", p.metrics, ReadHeaderTimeout)
	}
	if ReadHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want a positive bound", ReadHeaderTimeout)
	}
}

// TestBackgroundShutdown drives a serving command's lifecycle in process:
// the services start, and shutdown writes the final checkpoint and seals
// a flight record that decodes, with the store restored on the next
// Start.
func TestBackgroundShutdown(t *testing.T) {
	ckptDir, ftdcDir := t.TempDir(), t.TempDir()
	start := func() *Process {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		f := Register(fs, "test", Checkpoint|FTDC|Serving)
		if err := fs.Parse([]string{"-checkpoint-dir", ckptDir, "-ftdc-dir", ftdcDir, "-sample-interval", "10ms"}); err != nil {
			t.Fatal(err)
		}
		if err := f.Checker().Err(); err != nil {
			t.Fatal(err)
		}
		p, err := f.Start()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	p := start()
	store := p.Store
	store.IngestBatch([]obs.Record{{TimeSec: 1, Device: dot11.MAC{2}, AP: dot11.MAC{4}, Kind: obs.KindProbeResponse}})
	ctx, cancel := context.WithCancel(context.Background())
	shutdown := p.Background(ctx, func() *obs.Store { return store })
	cancel()
	shutdown()
	p.Close()

	if got := p.Checkpointer.Generation(); got != 1 {
		t.Fatalf("final checkpoint generation %d, want 1", got)
	}
	chunks, err := ftdc.ReadFile(p.Recorder.Path())
	if err != nil {
		t.Fatalf("sealed flight record: %v", err)
	}
	if len(chunks) == 0 || len(chunks[0].Samples) == 0 {
		t.Fatal("flight record holds no samples")
	}
	if files, _ := filepath.Glob(filepath.Join(ckptDir, "*")); len(files) != 1 {
		t.Fatalf("checkpoint files %v, want one", files)
	}

	again := start()
	defer again.Close()
	if again.Store.Len() != 1 || again.Checkpointer.Generation() != 1 {
		t.Fatalf("restart restored %d records at generation %d, want 1 at 1",
			again.Store.Len(), again.Checkpointer.Generation())
	}
}

// startServing parses args for a serving command with groups and starts
// its process and Background services on an empty store. stop cancels
// the services and waits for their shutdown.
func startServing(t *testing.T, groups Group, args ...string) (p *Process, stop func()) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs, "test", groups|Serving)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if err := f.Checker().Err(); err != nil {
		t.Fatal(err)
	}
	p, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	store := obs.NewStore()
	shutdown := p.Background(ctx, func() *obs.Store { return store })
	return p, func() {
		cancel()
		shutdown()
		p.Close()
	}
}

// waitFor polls cond every millisecond for up to 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// counter reads a counter series from the process-wide registry.
func counter(t *testing.T, series string) uint64 {
	t.Helper()
	for _, s := range telemetry.Default().Snapshot() {
		if s.Series() == series {
			return s.Counter
		}
	}
	t.Fatalf("series %s not registered", series)
	return 0
}

// TestRuntimeSeriesSampledWithoutRecorder: the runtime series follow the
// process on every tick with no -ftdc-dir. Two advances of the GC cycle
// counter show a periodic loop, not a sample taken once at start.
func TestRuntimeSeriesSampledWithoutRecorder(t *testing.T) {
	p, stop := startServing(t, Checkpoint|FTDC, "-sample-interval", "10ms")
	defer stop()
	if p.Recorder != nil || p.SLOs != nil {
		t.Fatalf("recorder %v and SLO tracker %v on without their flags", p.Recorder, p.SLOs)
	}
	const gc = "marauder_process_gc_cycles_total"
	for i := 0; i < 2; i++ {
		before := counter(t, gc)
		runtime.GC()
		waitFor(t, "the GC cycle counter to advance", func() bool { return counter(t, gc) > before })
	}
}

// TestSamplerOneSnapshot: the flight recorder and the SLO tracker read
// one registry snapshot per tick, so the tracker's last evaluation and
// the recorder's last row carry the same time.
func TestSamplerOneSnapshot(t *testing.T) {
	p, stop := startServing(t, FTDC|SLO, "-slo-defaults", "-ftdc-dir", t.TempDir(), "-sample-interval", "10ms")
	waitFor(t, "three flight-record rows", func() bool {
		st := p.Recorder.Status()
		return st.Samples+uint64(st.PendingSamples) >= 3
	})
	stop()

	chunks, err := ftdc.ReadFile(p.Recorder.Path())
	if err != nil {
		t.Fatal(err)
	}
	last := chunks[len(chunks)-1]
	if last.Columns[0].Name != ftdc.TimeColumn {
		t.Fatalf("first column %q, want %q", last.Columns[0].Name, ftdc.TimeColumn)
	}
	rowAt := last.Samples[len(last.Samples)-1][0]
	if tickedAt := p.SLOs.Report().TickedAt; uint64(tickedAt.UnixNano()) != rowAt {
		t.Fatalf("SLO report at %d ns, last flight-record row at %d ns: not one snapshot", tickedAt.UnixNano(), rowAt)
	}
}

// TestSamplerStopsOnCancel: the sampler evaluates the SLOs as soon as it
// starts and returns once its context is cancelled, so shutdown does not
// hang.
func TestSamplerStopsOnCancel(t *testing.T) {
	p, stop := startServing(t, SLO, "-slo-defaults", "-sample-interval", "1h")
	waitFor(t, "the first SLO evaluation", func() bool { return len(p.SLOs.Report().Objectives) > 0 })
	done := make(chan struct{})
	go func() {
		stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown did not return after cancel")
	}
}
