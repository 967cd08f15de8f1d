package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/capwire"
	"repro/internal/sniffer"
	"repro/internal/telemetry"
)

// TestRunRejectsDanglingFlags: a flag that only tunes a feature the
// command line never enabled must fail loudly, naming both flags.
func TestRunRejectsDanglingFlags(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-chaos-seed", "7", "-once"}, "-chaos"},
		{[]string{"-checkpoint-interval", "1s", "-once"}, "-checkpoint-dir"},
		{[]string{"-ftdc-interval", "1s", "-once"}, "-ftdc-dir"},
		{[]string{"-trace-sample", "0.5", "-once"}, "-trace"},
		{[]string{"-slo-tick", "1s", "-once"}, "-slo"},
		{[]string{"-local-capture=false"}, "-agents-listen"},
		{[]string{"-agents-listen", "127.0.0.1:0", "-once"}, "-once"},
	}
	for _, c := range cases {
		err := run(c.args)
		if err == nil {
			t.Errorf("run(%v) accepted", c.args)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("run(%v) error %q does not mention %s", c.args, err, c.want)
		}
	}
}

// TestDisabledCheckpointIntervalRuns: zero/negative -checkpoint-interval
// means "no periodic checkpoints", not an invalid duration — the run logs
// that once and still writes its final checkpoint. A positive interval
// logs no such notice.
func TestDisabledCheckpointIntervalRuns(t *testing.T) {
	for _, tc := range []struct {
		interval string
		disabled bool
	}{{"0s", true}, {"-1s", true}, {"5s", false}} {
		dir := t.TempDir()
		var err error
		logs := captureStderr(t, func() {
			err = run([]string{
				"-once", "-aps", "40", "-seed", "3",
				"-checkpoint-dir", dir, "-checkpoint-interval", tc.interval,
			})
		})
		if err != nil {
			t.Fatalf("run with -checkpoint-interval %s: %v", tc.interval, err)
		}
		if got := strings.Contains(logs, "periodic checkpoints disabled"); got != tc.disabled {
			t.Errorf("-checkpoint-interval %s: disabled notice logged = %v, want %v", tc.interval, got, tc.disabled)
		}
		if files, _ := filepath.Glob(filepath.Join(dir, "*")); len(files) == 0 {
			t.Errorf("-checkpoint-interval %s: no final checkpoint in %s", tc.interval, dir)
		}
	}
}

// captureStderr runs f with os.Stderr (and so run's slog output) sent to
// a pipe and returns what was written, then restores the default logger.
func captureStderr(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	done := make(chan struct{})
	go func() { io.Copy(&buf, r); close(done) }()
	orig := os.Stderr
	os.Stderr = w
	f()
	os.Stderr = orig
	w.Close()
	<-done
	r.Close()
	if _, err := telemetry.SetupLogging(os.Stderr, "info", "text"); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestAgentIngestFlowsToEngineHealth exercises the marauder-side wiring
// without the serve loop: a capwire server ingesting into the engine
// under per-agent source names, visible in engine health and the attack's
// composed /api/health payload.
func TestAgentIngestFlowsToEngineHealth(t *testing.T) {
	a, err := buildAttack(5, 60, "mloc")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := capwire.NewServer(capwire.ServerConfig{
		Ingest: func(agentID string, caps []sniffer.Capture) int {
			return a.eng.IngestCapturesFrom("agent:"+agentID, caps)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	a.agents = srv

	// Feed a frame batch through the same simulated capture path the
	// agent binary uses, bypassing TCP: the wiring under test is
	// ingest-source accounting, not the wire (capwire's own tests own
	// that).
	a.captureUpTo(0, 120)
	caps := a.sniffer.CaptureAll(a.campus.Scans(0, 120))
	if len(caps) == 0 {
		t.Fatal("simulated capture produced no frames")
	}
	if n := a.eng.IngestCapturesFrom("agent:lab-1", caps); n == 0 {
		t.Fatal("agent ingest stored nothing")
	}

	eh := a.eng.Health()
	if _, ok := eh.Sources["agent:lab-1"]; !ok {
		t.Fatalf("agent source missing from engine health: %v", eh.Sources)
	}
	if _, ok := eh.Sources["local"]; !ok {
		t.Fatalf("local source missing from engine health: %v", eh.Sources)
	}

	h := a.health(120)
	detail, ok := h.Detail.(map[string]any)
	if !ok {
		t.Fatalf("health detail shape: %T", h.Detail)
	}
	if _, ok := detail["agents"]; !ok {
		t.Fatal("health detail missing agents totals")
	}

}
