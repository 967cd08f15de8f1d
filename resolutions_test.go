package repro

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/apdb"
	"repro/internal/capwire"
	"repro/internal/core"
	"repro/internal/dot11"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/geom"
	"repro/internal/mapserver"
	"repro/internal/rf"
	"repro/internal/sim"
	"repro/internal/sniffer"
	"repro/internal/telemetry"
)

// TestSteadyPipelineResolvesNoMetrics drives every per-event path of a
// serving pipeline — chaos capture (card faults, then drop, corrupt,
// duplicate, reorder and delay on delivery), a capwire session under
// wire faults, engine ingest, a map frame published with ground truth,
// Track and /api/state — once to warm up, then twice more, and requires
// that the second pass resolves no metric through the registry: every
// per-event path holds its handles.
func TestSteadyPipelineResolvesNoMetrics(t *testing.T) {
	w, victim, route := buildCampus(t)
	events := sim.WalkTrace(w, victim, route.TotalDuration(), 30)
	plan, err := faults.New(faults.Config{
		Seed:        1,
		Cards:       []faults.CardFault{{Channel: 6, Mode: faults.CardDead}},
		DropProb:    0.1,
		CorruptProb: 0.1,
		DupProb:     0.1,
		ReorderProb: 0.3,
		DelayProb:   0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	sn := sniffer.New(sniffer.Config{Pos: geom.Pt(0, 0), Chain: rf.ChainLNA(), Plan: dot11.DefaultPlan(), Faults: plan})
	inject := &sniffer.FaultInjector{Plan: plan}
	eng, err := engine.New(engine.Config{Know: core.KnowledgeFromSnapshot(apdb.FromWorld(w, true)), WindowSec: 45})
	if err != nil {
		t.Fatal(err)
	}

	srv, err := capwire.NewServer(capwire.ServerConfig{Ingest: func(agent string, caps []sniffer.Capture) int {
		return eng.IngestCapturesFrom("agent:"+agent, caps)
	}})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	defer srv.Close()
	wire, err := faults.NewWire(faults.WireConfig{Seed: 1, DupProb: 0.2, ReorderProb: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	client, err := capwire.NewClient(capwire.ClientConfig{
		Addr: lis.Addr().String(), AgentID: "lab-1", WrapConn: wire.WrapConn,
		HeartbeatEvery: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	state := mapserver.NewState()
	state.APsFromKnowledge(eng.Knowledge())
	web := httptest.NewServer(mapserver.Handler(state))
	defer web.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	truth := func(m dot11.MAC) (geom.Point, bool) { return geom.Point{}, m == victim.MAC }
	third := len(events) / 3
	pass := func(i int) {
		t.Helper()
		part := events[i*third : (i+1)*third]
		caps := sn.CaptureAll(part)
		eng.IngestCaptures(inject.Apply(caps))
		if err := client.Send(ctx, sn.CaptureAll(part)); err != nil {
			t.Fatal(err)
		}
		if err := client.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		mid := part[len(part)/2].TimeSec
		state.PublishFrame(eng.Snapshot(mid), truth)
		if _, err := eng.Track(victim.MAC, part[0].TimeSec, mid, 5); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Get(web.URL + "/api/state")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	pass(0)
	before := telemetry.Default().Resolutions()
	pass(1)
	pass(2)
	if n := telemetry.Default().Resolutions() - before; n != 0 {
		t.Fatalf("a warm pipeline resolved %d metrics through the registry", n)
	}
	if c := plan.Counters(); c.Dropped == 0 || c.Corrupted == 0 || c.Duplicated == 0 || c.CardRejects == 0 {
		t.Fatalf("the fault plan injected too little to cover its paths: %+v", c)
	}
	if st := eng.Stats(); st.Fixes == 0 {
		t.Fatal("no fixes")
	}
}
