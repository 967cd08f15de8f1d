package main

import (
	"bytes"
	"context"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"repro/internal/capwire"
	"repro/internal/dot11"
	"repro/internal/obs"
	"repro/internal/ops"
	"repro/internal/sniffer"
)

// agentBatch is batch b of the test agent's stream: two probe responses
// to one device of its own, so every batch adds records to the store.
func agentBatch(b int) []sniffer.Capture {
	dev := dot11.MAC{0x02, 0, 0, 0, 1, byte(b)}
	caps := make([]sniffer.Capture, 0, 2)
	for i := 0; i < 2; i++ {
		ap := dot11.MAC{0x0a, 0, 0, 0, byte(i), byte(b)}
		caps = append(caps, sniffer.Capture{
			TimeSec: float64(10*b + i), Frame: dot11.NewProbeResponse(ap, dev, "net", 6, 2),
			Channel: 6, CardChannel: 6, SNRDB: 20, LiveMask: 1,
		})
	}
	return caps
}

// testAgent connects a capwire client as agent lab-1.
func testAgent(t *testing.T, addr string) *capwire.Client {
	t.Helper()
	c, err := capwire.NewClient(capwire.ClientConfig{
		Addr: addr, AgentID: "lab-1",
		HeartbeatEvery: 20 * time.Millisecond,
		BackoffMin:     5 * time.Millisecond, BackoffMax: 40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// sendAcked sends the batches and waits until the server has acked them.
func sendAcked(t *testing.T, c *capwire.Client, batches ...[]sniffer.Capture) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, b := range batches {
		if err := c.Send(ctx, b); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(ctx); err != nil {
		t.Fatal(err)
	}
}

// helloCursor connects a fresh lab-1 client and returns the resume
// cursor the server's HelloAck handed it.
func helloCursor(t *testing.T, addr string) uint64 {
	t.Helper()
	c := testAgent(t, addr)
	defer c.Close()
	for deadline := time.Now().Add(10 * time.Second); c.Stats().Handshakes == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no handshake with the agent plane")
		}
	}
	return c.Stats().Cursor
}

// serveAgentsOnly runs the serving command as an agent-only engine
// checkpointing into dir, calls body with its agent address, then stops
// it with SIGINT, which writes the final checkpoint.
func serveAgentsOnly(t *testing.T, dir string, body func(agentAddr string)) {
	t.Helper()
	mapAddr, agentAddr := freeAddr(t), freeAddr(t)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", mapAddr, "-agents-listen", agentAddr,
			"-local-capture=false", "-checkpoint-dir", dir, "-aps", "40", "-log-level", "error"})
	}()
	defer func() {
		// Signal until run returns: a SIGINT that lands before run
		// installs its handler is lost, and the caller's own
		// signal.Notify keeps it from killing the test.
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		timeout := time.After(10 * time.Second)
		for {
			if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
				t.Error(err)
				return
			}
			select {
			case err := <-done:
				if err != nil {
					t.Errorf("run: %v", err)
				}
				return
			case <-tick.C:
			case <-timeout:
				t.Error("run did not stop")
				return
			}
		}
	}()
	body(agentAddr)
}

// TestAgentCursorsSurviveRestart: the agents' cursors live inside the
// observation checkpoint, so a restarted marauder hands an agent the
// cursor it acked, and when the newest checkpoint is corrupt it hands
// out the cursor saved with the older checkpoint it falls back to.
func TestAgentCursorsSurviveRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("serves the agent plane three times")
	}
	// While this is registered, a SIGINT that reaches the test binary
	// before run's own handler does is dropped instead of fatal.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT)
	defer signal.Stop(sigs)

	const n = 5
	dir := t.TempDir()
	serveAgentsOnly(t, dir, func(addr string) {
		c := testAgent(t, addr)
		for b := 1; b <= n; b++ {
			sendAcked(t, c, agentBatch(b))
		}
		if got := c.Stats().Cursor; got != n {
			t.Fatalf("acked cursor %d, want %d", got, n)
		}
	})
	serveAgentsOnly(t, dir, func(addr string) {
		if got := helloCursor(t, addr); got != n {
			t.Fatalf("after a restart the agent resumes at cursor %d, want %d", got, n)
		}
	})

	ckpts, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil || len(ckpts) < 2 {
		t.Fatalf("checkpoints %v (%v), want two generations", ckpts, err)
	}
	newest := ckpts[len(ckpts)-1]
	raw, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x01
	if err := os.WriteFile(newest, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	serveAgentsOnly(t, dir, func(addr string) {
		if got := helloCursor(t, addr); got != n {
			t.Fatalf("recovered from the older checkpoint, the agent resumes at cursor %d, want its %d", got, n)
		}
	})
}

// TestBatchDuringCheckpointIsReplayed: a batch acked between the
// checkpointer's cursor read and its store save is in the saved store
// but not in the saved cursor, so after a restart its replay is ingested
// again rather than deduplicated.
func TestBatchDuringCheckpointIsReplayed(t *testing.T) {
	dir := t.TempDir()
	ckpt := &obs.Checkpointer{Dir: dir}
	a, err := buildAttackOpts(attackOpts{Seed: 5, APs: 40, Algo: "mloc", Ops: &ops.Process{Checkpointer: ckpt}})
	if err != nil {
		t.Fatal(err)
	}
	addr := freeAddr(t)
	srv, err := listenAgents(a, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := testAgent(t, addr)
	sendAcked(t, c, agentBatch(1), agentBatch(2), agentBatch(3))
	before := a.eng.Store().Len()

	entered, release := make(chan struct{}), make(chan struct{})
	ckpt.Source = func() *obs.Store {
		close(entered)
		<-release
		return a.eng.Store()
	}
	written := make(chan error, 1)
	go func() {
		_, err := ckpt.CheckpointNow()
		written <- err
	}()
	<-entered
	late := agentBatch(4)
	sendAcked(t, c, late)
	close(release)
	if err := <-written; err != nil {
		t.Fatal(err)
	}
	if a.eng.Store().Len() <= before {
		t.Fatal("the late batch added no records")
	}
	var live bytes.Buffer
	if err := a.eng.Store().Save(&live); err != nil {
		t.Fatal(err)
	}
	c.Close()
	srv.Close()

	store, info, err := obs.Recover(dir, 0)
	if err != nil || store == nil {
		t.Fatalf("Recover: store %v, err %v", store, err)
	}
	if got := info.Meta.Cursors["lab-1"]; got != 3 {
		t.Fatalf("saved cursor %d, want 3: the cursors are read before the store is saved", got)
	}
	var saved bytes.Buffer
	if err := store.Save(&saved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved.Bytes(), live.Bytes()) {
		t.Fatal("the recovered store lacks the batch acked during the checkpoint")
	}

	b, err := buildAttackOpts(attackOpts{Seed: 5, APs: 40, Algo: "mloc",
		Ops: &ops.Process{Store: store, Cursors: info.Meta.Cursors}})
	if err != nil {
		t.Fatal(err)
	}
	addr = freeAddr(t)
	srv2, err := listenAgents(b, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	sendAcked(t, testAgent(t, addr), late)
	st := srv2.Agents()
	if len(st) != 1 || st[0].BatchesIngested != 1 || st[0].BatchesDeduped != 0 || st[0].Cursor != 4 {
		t.Fatalf("replayed batch: agents %+v, want one ingested, none deduped, cursor 4", st)
	}
}
