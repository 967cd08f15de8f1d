package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/capwire"
	"repro/internal/dot11"
	"repro/internal/mapserver"
	"repro/internal/sniffer"
	"repro/internal/telemetry"
)

// TestAgentServerCloseIsCleanStop closes a serving agent server: the
// listener error Close causes is a clean stop, so nothing is logged at
// ERROR.
func TestAgentServerCloseIsCleanStop(t *testing.T) {
	var logs bytes.Buffer
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(&logs, &slog.HandlerOptions{Level: slog.LevelError})))
	defer slog.SetDefault(prev)
	srv, err := capwire.NewServer(capwire.ServerConfig{
		Ingest: func(string, []sniffer.Capture) int { return 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		serveAgents(srv, lis)
		close(served)
	}()
	// Close before Serve has taken the listener makes Serve return the
	// same error, so the check does not depend on the interleaving.
	srv.Close()
	<-served
	if logs.Len() > 0 {
		t.Fatalf("closing the agent server logged an error:\n%s", logs.String())
	}
}

// TestRunRejectsDanglingFlags: a flag that only tunes a feature the
// command line never enabled must fail loudly, naming both flags.
func TestRunRejectsDanglingFlags(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-chaos-seed", "7", "-once"}, "-chaos"},
		{[]string{"-checkpoint-interval", "1s", "-once"}, "-checkpoint-dir"},
		{[]string{"-trace-sample", "0.5", "-once"}, "-trace"},
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

// freeAddr returns a loopback address with a port that was free a moment
// ago.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// TestSilentAgentHealthReasonOnce drives the serving command: an agent
// that delivers one batch and disconnects must, past -ingest-stale-after,
// degrade /api/health with exactly one reason naming it. Silence is the
// engine's per-source rule for every capture source; the agent plane
// adds no second report of the same fact.
func TestSilentAgentHealthReasonOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("serves the map and the agent plane")
	}
	mapAddr, agentAddr := freeAddr(t), freeAddr(t)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", mapAddr, "-agents-listen", agentAddr,
			"-local-capture=false", "-ingest-stale-after", "300ms",
			"-aps", "40", "-log-level", "error"})
	}()
	serving := false
	t.Cleanup(func() {
		select {
		case <-done:
			return // run already returned; the test reported it
		default:
		}
		if serving {
			// run's stop signal: the serving loop shuts down gracefully.
			// Sent only while it serves, so its handler is installed.
			if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
				t.Error(err)
				return
			}
		}
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("run: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("run did not stop")
		}
	})

	c, err := capwire.NewClient(capwire.ClientConfig{
		Addr: agentAddr, AgentID: "lab-7",
		HeartbeatEvery: 20 * time.Millisecond,
		BackoffMin:     5 * time.Millisecond, BackoffMax: 40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	frame := dot11.NewProbeRequest(dot11.MAC{0x02, 0, 0, 0, 0, 7}, "net", 1)
	if err := c.Send(ctx, []sniffer.Capture{{TimeSec: 1, Frame: frame, Channel: 6, CardChannel: 6, SNRDB: 20, LiveMask: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	c.Close()

	var h mapserver.Health
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		select {
		case err := <-done:
			done <- err
			t.Fatalf("run returned early: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("health never degraded; last report %+v", h)
		}
		resp, err := http.Get("http://" + mapAddr + "/api/health")
		if err != nil {
			continue
		}
		serving = true
		h = mapserver.Health{}
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !h.Healthy() {
			break
		}
	}
	var about []string
	for _, r := range h.Reasons {
		if strings.Contains(r, "lab-7") {
			about = append(about, r)
		}
	}
	if len(about) != 1 || !strings.Contains(about[0], `capture source "agent:lab-7" silent`) {
		t.Fatalf("reasons naming the silent agent = %q, want exactly the engine's capture-source reason (all reasons: %q)",
			about, h.Reasons)
	}
}
