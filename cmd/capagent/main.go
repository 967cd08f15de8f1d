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
//	         [-wire-chaos] [-wire-seed 1] [operational flags]
//
// Its operational flags are internal/ops's log flags and -metrics-addr.
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
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/capwire"
	"repro/internal/dot11"
	"repro/internal/faults"
	"repro/internal/geom"
	"repro/internal/ops"
	"repro/internal/rf"
	"repro/internal/sim"
	"repro/internal/sniffer"
)

func main() {
	if err := run(os.Args[1:], nil); err != nil {
		slog.Error("capture agent failed", "component", "capagent", "err", err)
		os.Exit(1)
	}
}

// world is the agent's deterministic capture scene: the campus
// cmd/marauder builds for the same seed and AP count, with this agent's
// sniffer at its own position.
type world struct {
	campus  *sim.Campus
	sniffer *sniffer.Sniffer
}

func buildWorld(seed int64, nAPs int, pos geom.Point) (*world, error) {
	c, err := sim.NewCampus(seed, nAPs)
	if err != nil {
		return nil, err
	}
	return &world{
		campus: c,
		sniffer: sniffer.New(sniffer.Config{
			Pos:   pos,
			Chain: rf.ChainLNA(),
			Plan:  dot11.DefaultPlan(),
		}),
	}, nil
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

// config is capagent's command line: the flags it owns plus the
// operational groups it takes from ops.
type config struct {
	ops                            *ops.Flags
	server, agentID, pos, overflow string
	seed, wireSeed                 int64
	aps, queue                     int
	speedup, duration              float64
	heartbeat                      time.Duration
	wireChaos                      bool
}

func newFlags() (*flag.FlagSet, *config) {
	fs := flag.NewFlagSet("capagent", flag.ContinueOnError)
	c := &config{ops: ops.Register(fs, "capagent", ops.Metrics)}
	fs.StringVar(&c.server, "server", "", "capwire server address (required), e.g. 127.0.0.1:7642")
	fs.StringVar(&c.agentID, "agent", "agent-1", "agent identity: the server's cursor and accounting key, stable across restarts")
	fs.Int64Var(&c.seed, "seed", 1, "random seed (must match the engine's -seed)")
	fs.IntVar(&c.aps, "aps", 300, "number of deployed APs (must match the engine's -aps)")
	fs.StringVar(&c.pos, "pos", "0,0", "receiver position on the campus plane, meters, as x,y")
	fs.Float64Var(&c.speedup, "speedup", 50, "simulated seconds per wall second")
	fs.Float64Var(&c.duration, "duration", 0, "simulated seconds to capture (0 = loop the route until interrupted)")
	fs.IntVar(&c.queue, "queue", 256, "send queue bound in batches (unsent + sent-unacked)")
	fs.StringVar(&c.overflow, "overflow", "block", "full-queue policy: block (backpressure) or drop-oldest (shed and count)")
	fs.DurationVar(&c.heartbeat, "heartbeat", time.Second, "idle keepalive period")
	fs.BoolVar(&c.wireChaos, "wire-chaos", false, "inject the deterministic wire fault plan into the connection")
	fs.Int64Var(&c.wireSeed, "wire-seed", 1, "wire fault plan seed")
	return fs, c
}

// run is the testable entry point. ready, when non-nil, is closed once
// the client exists — the hook the tests use to know streaming started.
func run(args []string, ready chan<- *capwire.Client) error {
	fs, c := newFlags()
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := c.ops.Checker().Requires("wire-seed", "wire-chaos").Err(); err != nil {
		return err
	}
	if c.server == "" {
		return errors.New("-server is required")
	}
	if c.speedup <= 0 {
		return fmt.Errorf("-speedup must be > 0, got %v", c.speedup)
	}
	if c.duration < 0 {
		return fmt.Errorf("-duration must be >= 0 (0 loops the route), got %v", c.duration)
	}
	policy, err := capwire.ParseOverflowPolicy(c.overflow)
	if err != nil {
		return err
	}
	pos, err := parsePos(c.pos)
	if err != nil {
		return err
	}
	p, err := c.ops.Start()
	if err != nil {
		return err
	}
	defer p.Close()

	w, err := buildWorld(c.seed, c.aps, pos)
	if err != nil {
		return err
	}

	cfg := capwire.ClientConfig{
		Addr:           c.server,
		AgentID:        c.agentID,
		QueueBatches:   c.queue,
		Overflow:       policy,
		HeartbeatEvery: c.heartbeat,
		Logf: func(format string, args ...any) {
			slog.Info(fmt.Sprintf(format, args...), "component", "capagent")
		},
	}
	if c.wireChaos {
		cfg.WrapConn = faults.AggressiveWire(c.wireSeed).WrapConn
		slog.Info("wire chaos on", "component", "capagent", "seed", c.wireSeed)
	}
	client, err := capwire.NewClient(cfg)
	if err != nil {
		return err
	}
	if ready != nil {
		ready <- client
	}
	slog.Info("capture agent streaming", "component", "capagent",
		"server", c.server, "agent", c.agentID, "pos", pos,
		"overflow", policy.String(), "queue", c.queue)

	ctx, stop := ops.StopContext()
	defer stop()

	total := w.campus.Route.TotalDuration()
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
			next := simTime + c.speedup/2
			if next > total {
				next = total
			}
			batch := w.sniffer.CaptureAll(w.campus.Scans(simTime, next))
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
			if c.duration > 0 && captured >= c.duration {
				stop()
				// Re-enter the select with ctx done for the flush path.
				continue
			}
		}
	}
}
