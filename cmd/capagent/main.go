// Command capagent is one remote capture agent of the distributed
// Marauder's map: it runs a sniffer against the same deterministic
// simulated campus as cmd/marauder (same -seed, same -aps) and streams
// the captured frame batches to the engine's capwire server over TCP —
// length-prefixed, CRC-checksummed, versioned messages with a bounded
// send queue, heartbeats, jittered-backoff reconnect, and cursor-based
// session resume, so a killed and restarted agent picks up from its last
// acked batch instead of losing or double-delivering traffic.
//
// Usage:
//
//	capagent -server HOST:7642 [-agent lab-1] [-seed 1] [-aps 300]
//	         [-pos 0,0] [-speedup 50] [-duration 0]
//	         [-queue 256] [-overflow block|drop-oldest] [-heartbeat 1s]
//	         [-wire-chaos] [-wire-seed 1]
//	         [-metrics-addr :9643] [-log-level info] [-log-format text]
//
// -pos places the agent's receiver on the campus plane, so a fleet of
// agents at different positions covers it like the paper's sniffer
// deployment. -duration bounds the simulated capture time (0 loops the
// victim's route forever); SIGINT or SIGTERM stops it after flushing the
// queued tail. -overflow picks what happens when the engine falls
// behind: block propagates backpressure into the capture loop,
// drop-oldest sheds the oldest unsent batch and counts every drop.
//
// -wire-chaos wraps the connection in the deterministic wire fault plan
// (torn connections, truncated and bit-flipped messages, duplicated and
// reordered batches, slow-loris stalls) seeded by -wire-seed — the
// protocol must deliver exactly-once ingest accounting through all of
// it, which is what the agent-chaos smoke test asserts.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/capwire"
	"repro/internal/dot11"
	"repro/internal/faults"
	"repro/internal/flagcheck"
	"repro/internal/geom"
	"repro/internal/rf"
	"repro/internal/sim"
	"repro/internal/sniffer"
	"repro/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], nil); err != nil {
		slog.Error("capture agent failed", "component", "capagent", "err", err)
		os.Exit(1)
	}
}

// world is the agent's deterministic capture scene: the same campus,
// victim and route cmd/marauder builds for the same seed, with this
// agent's sniffer at its own position.
type world struct {
	sim     *sim.World
	victim  *sim.Device
	route   *sim.RouteWalk
	sniffer *sniffer.Sniffer
}

// buildWorld mirrors cmd/marauder's deployment exactly — same seed and
// AP count must reproduce the same campus, or the agents' traffic would
// describe a world the engine does not know.
func buildWorld(seed int64, nAPs int, pos geom.Point) (*world, error) {
	w := sim.NewWorld(seed)
	aps, err := sim.UniformDeployment(sim.DeploymentConfig{
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

	var waypoints []geom.Point
	row := 0
	for y := -250.0; y <= 250; y += 125 {
		if row%2 == 0 {
			waypoints = append(waypoints, geom.Pt(-250, y), geom.Pt(250, y))
		} else {
			waypoints = append(waypoints, geom.Pt(250, y), geom.Pt(-250, y))
		}
		row++
	}
	route := sim.NewRouteWalk(waypoints, 1.5)
	victim := &sim.Device{
		MAC:      sim.NewMAC(0xDD, 1),
		Mobility: route,
		TX:       rf.TypicalMobile,
	}
	w.AddDevice(victim)
	return &world{
		sim:    w,
		victim: victim,
		route:  route,
		sniffer: sniffer.New(sniffer.Config{
			Pos:   pos,
			Chain: rf.ChainLNA(),
			Plan:  dot11.DefaultPlan(),
		}),
	}, nil
}

// captureWindow captures the victim's scan bursts in [from, to) seconds
// of route time into one batch.
func (w *world) captureWindow(from, to float64) []sniffer.Capture {
	seq := uint16(from/30) + 1
	var batch []sniffer.Capture
	for t := from; t < to; t += 30 {
		pos := w.victim.PosAt(t)
		batch = w.sniffer.CaptureAllInto(batch, sim.ScanBurst(w.sim, w.victim, t, pos, seq))
		seq++
	}
	return batch
}

// parsePos parses "x,y" meters.
func parsePos(s string) (geom.Point, error) {
	x, y, ok := strings.Cut(s, ",")
	if !ok {
		return geom.Point{}, fmt.Errorf("bad -pos %q: want x,y", s)
	}
	xv, err := strconv.ParseFloat(strings.TrimSpace(x), 64)
	if err != nil {
		return geom.Point{}, fmt.Errorf("bad -pos %q: %w", s, err)
	}
	yv, err := strconv.ParseFloat(strings.TrimSpace(y), 64)
	if err != nil {
		return geom.Point{}, fmt.Errorf("bad -pos %q: %w", s, err)
	}
	return geom.Pt(xv, yv), nil
}

// run is the testable entry point. ready, when non-nil, is closed once
// the client exists — the hook the tests use to know streaming started.
func run(args []string, ready chan<- *capwire.Client) error {
	fs := flag.NewFlagSet("capagent", flag.ContinueOnError)
	server := fs.String("server", "", "capwire server address (required), e.g. 127.0.0.1:7642")
	agentID := fs.String("agent", "agent-1", "agent identity: the server's cursor and accounting key, stable across restarts")
	seed := fs.Int64("seed", 1, "random seed (must match the engine's -seed)")
	nAPs := fs.Int("aps", 300, "number of deployed APs (must match the engine's -aps)")
	posSpec := fs.String("pos", "0,0", "receiver position on the campus plane, meters, as x,y")
	speedup := fs.Float64("speedup", 50, "simulated seconds per wall second")
	duration := fs.Float64("duration", 0, "simulated seconds to capture (0 = loop the route until interrupted)")
	queue := fs.Int("queue", 256, "send queue bound in batches (unsent + sent-unacked)")
	overflow := fs.String("overflow", "block", "full-queue policy: block (backpressure) or drop-oldest (shed and count)")
	heartbeat := fs.Duration("heartbeat", time.Second, "idle keepalive period")
	wireChaos := fs.Bool("wire-chaos", false, "inject the deterministic wire fault plan into the connection")
	wireSeed := fs.Int64("wire-seed", 1, "wire fault plan seed")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics and /debug/vars on this address (e.g. :9643)")
	logLevel := fs.String("log-level", "info", "log level: debug, info, warn or error")
	logFormat := fs.String("log-format", "text", "log format: text or json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := flagcheck.New(fs).Requires("wire-seed", "wire-chaos").Err(); err != nil {
		return err
	}
	if *server == "" {
		return errors.New("-server is required")
	}
	if *speedup <= 0 {
		return fmt.Errorf("-speedup must be > 0, got %v", *speedup)
	}
	policy, err := capwire.ParseOverflowPolicy(*overflow)
	if err != nil {
		return err
	}
	pos, err := parsePos(*posSpec)
	if err != nil {
		return err
	}
	if _, err := telemetry.SetupLogging(os.Stderr, *logLevel, *logFormat); err != nil {
		return err
	}

	if *metricsAddr != "" {
		msrv := &http.Server{Addr: *metricsAddr, Handler: telemetry.Mux(telemetry.Default(), false)}
		go func() {
			if err := msrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				slog.Error("telemetry server failed", "component", "capagent", "addr", *metricsAddr, "err", err)
			}
		}()
		defer msrv.Close()
		slog.Info("telemetry listening", "component", "capagent", "addr", *metricsAddr)
	}

	w, err := buildWorld(*seed, *nAPs, pos)
	if err != nil {
		return err
	}

	cfg := capwire.ClientConfig{
		Addr:           *server,
		AgentID:        *agentID,
		QueueBatches:   *queue,
		Overflow:       policy,
		HeartbeatEvery: *heartbeat,
		Logf: func(format string, args ...any) {
			slog.Info(fmt.Sprintf(format, args...), "component", "capagent")
		},
	}
	var plan *faults.WirePlan
	if *wireChaos {
		plan = faults.AggressiveWire(*wireSeed)
		cfg.WrapConn = plan.WrapConn
		slog.Info("wire chaos on", "component", "capagent", "seed", *wireSeed)
	}
	client, err := capwire.NewClient(cfg)
	if err != nil {
		return err
	}
	if ready != nil {
		ready <- client
	}
	slog.Info("capture agent streaming", "component", "capagent",
		"server", *server, "agent", *agentID, "pos", pos,
		"overflow", policy.String(), "queue", *queue)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	total := w.route.TotalDuration()
	simTime, captured := 0.0, 0.0
	ticker := time.NewTicker(500 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			// Graceful shutdown: push the queued tail out, then report.
			// A SIGKILL never gets here — that is what cursor resume is
			// for, proven by the kill-and-resume tests.
			flushCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			err := client.Flush(flushCtx)
			cancel()
			if err != nil {
				slog.Warn("final flush incomplete", "component", "capagent", "err", err)
			}
			st := client.Stats()
			slog.Info("capture agent stopped", "component", "capagent",
				"enqueuedBatches", st.EnqueuedBatches, "ackedBatches", st.AckedBatches,
				"droppedBatches", st.DroppedBatches, "replayedBatches", st.ReplayedBatches,
				"resumes", st.Resumes, "cursor", st.Cursor)
			return client.Close()
		case <-ticker.C:
			next := simTime + *speedup/2
			if next > total {
				next = total
			}
			batch := w.captureWindow(simTime, next)
			captured += next - simTime
			simTime = next
			if simTime >= total {
				simTime = 0 // loop the walk, like the engine does
			}
			if len(batch) > 0 {
				if err := client.Send(ctx, batch); err != nil {
					if errors.Is(err, context.Canceled) {
						continue // the ctx.Done() case handles shutdown
					}
					return err
				}
			}
			if *duration > 0 && captured >= *duration {
				stop()
				// Re-enter the select with ctx done for the flush path.
				continue
			}
		}
	}
}
