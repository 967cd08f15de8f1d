package ops

import (
	"context"
	"flag"
	"path/filepath"
	"testing"

	"repro/internal/dot11"
	"repro/internal/obs"
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
		if err := fs.Parse([]string{"-checkpoint-dir", ckptDir, "-ftdc-dir", ftdcDir, "-ftdc-interval", "10ms"}); err != nil {
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
