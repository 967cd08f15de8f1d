package main

import (
	"bytes"
	"testing"

	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/mapserver"
	"repro/internal/obs"
	"repro/internal/ops"
)

// TestChaosAttackFullAccounting drives a full attack pass under the
// aggressive fault plan and checks the no-silent-loss invariant at every
// stage: frames leaving the sniffer are delivered, dropped, or duplicated
// exactly as the plan counts, and everything delivered is either ingested
// or quarantined with a reason.
func TestChaosAttackFullAccounting(t *testing.T) {
	plan := faults.Aggressive(7)
	a, err := buildAttackOpts(attackOpts{Seed: 3, APs: 150, Algo: "mloc", Ops: &ops.Process{Faults: plan}})
	if err != nil {
		t.Fatal(err)
	}
	if a.injector == nil {
		t.Fatal("chaos build must install a fault injector")
	}

	total := a.campus.Route.TotalDuration()
	var produced, delivered, ingested int
	// Tick like serve does, but count each stage's throughput.
	for from := 0.0; from < total; from += 60 {
		to := from + 60
		if to > total {
			to = total
		}
		batch := a.sniffer.CaptureAll(a.campus.Scans(from, to))
		produced += len(batch)
		out := a.injector.Apply(batch)
		delivered += len(out)
		ingested += a.eng.IngestCaptures(out)
	}
	held := a.injector.Drain()
	delivered += len(held)
	ingested += a.eng.IngestCaptures(held)
	if a.injector.Held() != 0 {
		t.Error("drain left captures behind")
	}

	c := plan.Counters()
	if produced == 0 || c.Dropped == 0 || c.Corrupted == 0 || c.Duplicated == 0 {
		t.Fatalf("aggressive plan exercised nothing: produced=%d counters=%+v", produced, c)
	}
	// Delivery accounting: every produced capture is delivered, dropped,
	// or delivered twice. Nothing vanishes without a counter.
	if got, want := delivered, produced-int(c.Dropped)+int(c.Duplicated); got != want {
		t.Errorf("delivered %d, want produced(%d) - dropped(%d) + duplicated(%d) = %d",
			got, produced, c.Dropped, c.Duplicated, want)
	}
	// Ingest accounting: everything delivered is ingested or quarantined.
	q := a.eng.Quarantine()
	if got, want := ingested+int(q.Total), delivered; got != want {
		t.Errorf("ingested(%d) + quarantined(%d) = %d, want delivered %d",
			ingested, q.Total, got, want)
	}
	// Corruption is the only quarantine source on this path.
	if q.Total != c.Corrupted || q.ByReason[engine.ReasonUndecodable] != c.Corrupted {
		t.Errorf("quarantine %+v disagrees with %d corrupted frames", q, c.Corrupted)
	}

	// The pipeline stays live: the victim is still tracked despite a dead
	// card, flapping coverage, corruption and reordering.
	points, err := a.eng.Track(a.campus.Victim.MAC, 0, total, 60)
	if err != nil {
		t.Fatalf("tracking under chaos: %v", err)
	}
	if len(points) == 0 {
		t.Fatal("no fixes produced under chaos")
	}

	// Degraded-mode health: at t=100s the aggressive plan has channel 1
	// dead, so the composed health report must say degraded.
	h := a.health(100)
	if h.Status != mapserver.StatusDegraded || len(h.Reasons) == 0 {
		t.Errorf("health at t=100 = %+v, want degraded with reasons", h)
	}
}

// TestChaosCheckpointRecovery checkpoints mid-attack, simulates a crash by
// rebuilding the whole attack from the checkpoint directory, and asserts
// the recovered store is byte-identical — the record counts /api/stats
// would report before and after the restart match exactly.
func TestChaosCheckpointRecovery(t *testing.T) {
	dir := t.TempDir()
	plan := faults.Aggressive(11)
	a, err := buildAttackOpts(attackOpts{Seed: 5, APs: 150, Algo: "mloc", Ops: &ops.Process{Faults: plan}})
	if err != nil {
		t.Fatal(err)
	}
	ckpt := &obs.Checkpointer{Dir: dir, Source: func() *obs.Store { return a.eng.Store() }}

	a.captureUpTo(0, 240)
	if _, err := ckpt.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	a.captureUpTo(240, 480)
	a.drainHeld()
	if _, err := ckpt.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	wantLen := a.eng.Store().Len()
	var want bytes.Buffer
	if err := a.eng.Store().Save(&want); err != nil {
		t.Fatal(err)
	}

	// "kill -9": nothing from the first process survives but the
	// checkpoint directory.
	recovered, info, err := obs.Recover(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if recovered == nil {
		t.Fatal("no checkpoint recovered")
	}
	if info.Meta.Generation != 2 {
		t.Errorf("recovered generation %d, want 2 (the newest)", info.Meta.Generation)
	}
	b, err := buildAttackOpts(attackOpts{Seed: 5, APs: 150, Algo: "mloc", Ops: &ops.Process{Store: recovered}})
	if err != nil {
		t.Fatal(err)
	}
	if got := b.eng.Store().Len(); got != wantLen {
		t.Fatalf("post-recovery store holds %d records, want %d", got, wantLen)
	}
	var got bytes.Buffer
	if err := b.eng.Store().Save(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("recovered store's canonical bytes differ from the pre-crash store")
	}

	// The restarted attack keeps working on the recovered observations.
	points, err := b.eng.Track(b.campus.Victim.MAC, 0, 480, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) == 0 {
		t.Fatal("no fixes from the recovered store")
	}
	// Without a fault plan the restarted pipeline reports healthy.
	if h := b.health(100); h.Status != mapserver.StatusHealthy {
		t.Errorf("fault-free health = %+v, want healthy", h)
	}
}

// TestChaosDeterministicReplay runs the same seeded chaos attack twice and
// expects identical fault counters and identical stores: the whole fault
// plan is a pure function of its seed.
func TestChaosDeterministicReplay(t *testing.T) {
	runPass := func() (faults.Counters, *bytes.Buffer) {
		plan := faults.Aggressive(23)
		a, err := buildAttackOpts(attackOpts{Seed: 9, APs: 120, Algo: "mloc", Ops: &ops.Process{Faults: plan}})
		if err != nil {
			t.Fatal(err)
		}
		a.captureUpTo(0, 300)
		a.drainHeld()
		var buf bytes.Buffer
		if err := a.eng.Store().Save(&buf); err != nil {
			t.Fatal(err)
		}
		return plan.Counters(), &buf
	}
	c1, s1 := runPass()
	c2, s2 := runPass()
	if c1 != c2 {
		t.Errorf("fault counters diverged: %+v vs %+v", c1, c2)
	}
	if !bytes.Equal(s1.Bytes(), s2.Bytes()) {
		t.Error("stores diverged between identically seeded chaos runs")
	}
}
