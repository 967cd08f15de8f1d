package repro

// Label-cardinality guard: every metric family on the process-wide
// registry must keep a small, fixed label vocabulary. A family whose
// instance count grows with user data (device MACs, trace IDs, AP
// BSSIDs) grows without bound in a long-lived deployment — the registry,
// /metrics responses, FTDC chunk schemas and SLO scans all scale with
// instance count — so this guard fails the build the moment a
// data-derived label sneaks in.

import (
	"testing"

	"repro/internal/apdb"
	"repro/internal/core"
	"repro/internal/dot11"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/rf"
	"repro/internal/sim"
	"repro/internal/sniffer"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// cardinalityCap is the fixed per-family instance budget. The largest
// legitimate family today is marauder_stage_seconds with one instance
// per pipeline stage (under ten); 64 leaves room for every stage and
// algorithm vocabulary to grow while still tripping on the first
// MAC-labeled series — the campus below alone has hundreds of devices
// and APs.
const cardinalityCap = 64

func TestRegistryCardinalityBounded(t *testing.T) {
	// Exercise the instrumented hot paths first so dynamically registered
	// instances (per-stage histograms, per-algorithm series) exist before
	// counting: capture a walk's traffic from hundreds of distinct MACs,
	// ingest it, fix repeatedly with stage timing on every fix, snapshot.
	w, victim, route := buildCampus(t)
	events := sim.WalkTrace(w, victim, route.TotalDuration(), 30)
	sn := sniffer.New(sniffer.Config{
		Pos:   geom.Pt(0, 0),
		Chain: rf.ChainLNA(),
		Plan:  dot11.DefaultPlan(),
	})
	caps := sn.CaptureAll(events)
	if len(caps) == 0 {
		t.Fatal("nothing captured")
	}

	// A tracer sampling every fix also times every fix.
	tracer, err := trace.New(trace.Config{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(engine.Config{
		Know:      core.KnowledgeFromSnapshot(apdb.FromWorld(w, true)),
		WindowSec: 45,
		Tracer:    tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range caps {
		_, fromAP := w.APByMAC(c.Frame.Addr2)
		eng.Ingest(c.TimeSec, c.Frame, fromAP)
	}
	for ts := 60.0; ts < route.TotalDuration(); ts += 60 {
		if _, err := eng.Fix(victim.MAC, ts); err != nil {
			t.Fatalf("fix at %gs: %v", ts, err)
		}
	}
	if frame := eng.Snapshot(route.TotalDuration() / 2); len(frame) == 0 {
		t.Fatal("empty snapshot frame")
	}

	cards := telemetry.Default().Cardinalities()
	if len(cards) == 0 {
		t.Fatal("registry has no families — instrumentation not wired")
	}
	if _, ok := cards["marauder_stage_seconds"]; !ok {
		t.Error("stage histograms absent after instrumented fixes")
	}
	for name, n := range cards {
		if n > cardinalityCap {
			t.Errorf("family %s has %d label instances (cap %d) — label vocabulary must be fixed, not data-derived", name, n, cardinalityCap)
		}
	}
}
