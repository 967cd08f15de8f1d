package capwire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dot11"
	"repro/internal/sniffer"
)

// countingSink is an engine stand-in: it ingests decodable captures,
// quarantines the rest, and records per-frame identities so tests can
// prove exactly-once ingest.
type countingSink struct {
	mu          sync.Mutex
	ingested    int
	quarantined int
	seen        map[string]int // Addr2/Seq -> ingest count
}

func newCountingSink() *countingSink {
	return &countingSink{seen: make(map[string]int)}
}

func (s *countingSink) ingest(agent string, caps []sniffer.Capture) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, c := range caps {
		if c.Frame == nil {
			s.quarantined++
			continue
		}
		s.seen[fmt.Sprintf("%v/%d", c.Frame.Addr2, c.Frame.Seq)]++
		s.ingested++
		n++
	}
	return n
}

func (s *countingSink) snapshot() (ingested, quarantined, maxDup int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, n := range s.seen {
		if n > maxDup {
			maxDup = n
		}
	}
	return s.ingested, s.quarantined, maxDup
}

// startServer runs a capwire server on a loopback listener.
func startServer(t *testing.T, cfg ServerConfig) (*Server, string) {
	t.Helper()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	t.Cleanup(func() { srv.Close() })
	return srv, lis.Addr().String()
}

// uniqueCaptures builds n decodable captures with unique frame
// identities drawn from (tag, from).
func uniqueCaptures(tag byte, from, n int) []sniffer.Capture {
	caps := make([]sniffer.Capture, 0, n)
	for i := from; i < from+n; i++ {
		src := dot11.MAC{0x02, tag, byte(i >> 16), byte(i >> 8), byte(i), 0x01}
		caps = append(caps, sniffer.Capture{
			TimeSec: float64(i) * 0.01,
			Frame:   dot11.NewProbeRequest(src, "net", uint16(i%4096)),
			Channel: 6, CardChannel: 6, SNRDB: 20, LiveMask: 1,
		})
	}
	return caps
}

func fastClient(t *testing.T, addr, id string, mod func(*ClientConfig)) *Client {
	t.Helper()
	cfg := ClientConfig{
		Addr: addr, AgentID: id,
		HeartbeatEvery: 20 * time.Millisecond,
		ReadTimeout:    300 * time.Millisecond,
		WriteTimeout:   300 * time.Millisecond,
		BackoffMin:     5 * time.Millisecond,
		BackoffMax:     40 * time.Millisecond,
	}
	if mod != nil {
		mod(&cfg)
	}
	c, err := NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestClientServerHappyPath(t *testing.T) {
	sink := newCountingSink()
	srv, addr := startServer(t, ServerConfig{Ingest: sink.ingest})
	c := fastClient(t, addr, "hp-agent", nil)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	total := 0
	for b := 0; b < 20; b++ {
		caps := uniqueCaptures(0x10, total, 5)
		total += len(caps)
		if err := c.Send(ctx, caps); err != nil {
			t.Fatalf("send %d: %v", b, err)
		}
	}
	if err := c.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}

	ingested, quarantined, maxDup := sink.snapshot()
	if ingested != total || quarantined != 0 || maxDup > 1 {
		t.Fatalf("sink: ingested %d quarantined %d maxDup %d, want %d/0/<=1", ingested, quarantined, maxDup, total)
	}
	cs := c.Stats()
	if cs.AckedBatches != 20 || cs.AckedFrames != uint64(total) || cs.Pending != 0 {
		t.Fatalf("client stats: %+v", cs)
	}
	agents := srv.Agents()
	if len(agents) != 1 {
		t.Fatalf("%d agents", len(agents))
	}
	a := agents[0]
	if a.ID != "hp-agent" || a.Cursor != 20 || a.BatchesIngested != 20 ||
		a.FramesIngested != uint64(total) || !a.AccountingOk || !a.Connected {
		t.Fatalf("agent status: %+v", a)
	}
	tot := srv.Totals()
	if !tot.AccountingOk || tot.FramesIngested != uint64(total) || tot.P99BatchMs <= 0 {
		t.Fatalf("totals: %+v", tot)
	}
}

func TestBounceResumesWithoutDoubleIngest(t *testing.T) {
	sink := newCountingSink()
	srv, addr := startServer(t, ServerConfig{Ingest: sink.ingest})
	c := fastClient(t, addr, "bounce-agent", nil)

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	total := 0
	for b := 0; b < 30; b++ {
		caps := uniqueCaptures(0x20, total, 3)
		total += len(caps)
		if err := c.Send(ctx, caps); err != nil {
			t.Fatalf("send %d: %v", b, err)
		}
		if b%10 == 9 {
			// Drain first so a session is certainly established — Bounce
			// on a not-yet-connected client is a no-op.
			if err := c.Flush(ctx); err != nil {
				t.Fatalf("flush before bounce: %v", err)
			}
			c.Bounce()
		}
	}
	if err := c.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}

	ingested, quarantined, maxDup := sink.snapshot()
	if ingested != total || quarantined != 0 || maxDup > 1 {
		t.Fatalf("sink: ingested %d quarantined %d maxDup %d, want %d/0/<=1", ingested, quarantined, maxDup, total)
	}
	a := srv.Agents()[0]
	if !a.AccountingOk {
		t.Fatalf("accounting broken: %+v", a)
	}
	if a.BatchesReceived != a.BatchesIngested+a.BatchesDeduped {
		t.Fatalf("batch accounting: %+v", a)
	}
	cs := c.Stats()
	if cs.Handshakes < 2 {
		t.Fatalf("expected reconnects after bounces, stats: %+v", cs)
	}
	if a.Resumes < 1 {
		t.Fatalf("expected a resume after bounce: %+v", a)
	}
}

func TestRestartedAgentAdoptsPersistedCursor(t *testing.T) {
	sink := newCountingSink()
	srv, addr := startServer(t, ServerConfig{
		Ingest:  sink.ingest,
		Cursors: map[string]uint64{"cold-agent": 5},
	})
	c := fastClient(t, addr, "cold-agent", nil)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for b := 0; b < 3; b++ {
		if err := c.Send(ctx, uniqueCaptures(0x30, b*2, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	a := srv.Agents()[0]
	if a.Cursor != 8 {
		t.Fatalf("cursor = %d, want 8 (5 persisted + 3 sent)", a.Cursor)
	}
	if a.Resumes != 1 {
		t.Fatalf("a restart against a persisted cursor is a resume: %+v", a)
	}
	ingested, _, _ := sink.snapshot()
	if ingested != 6 {
		t.Fatalf("ingested %d, want 6", ingested)
	}
}

func TestOverflowDropOldestCountsEviction(t *testing.T) {
	// Dial into a black hole: connections accepted, never answered, so
	// nothing is ever sent and the queue can only grow.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
		}
	}()
	c := fastClient(t, lis.Addr().String(), "drop-agent", func(cfg *ClientConfig) {
		cfg.QueueBatches = 4
		cfg.Overflow = OverflowDropOldest
	})
	ctx := context.Background()
	for b := 0; b < 10; b++ {
		if err := c.Send(ctx, uniqueCaptures(0x40, b*2, 2)); err != nil {
			t.Fatalf("drop-oldest send should not block: %v", err)
		}
	}
	cs := c.Stats()
	if cs.Pending != 4 {
		t.Fatalf("pending = %d, want 4", cs.Pending)
	}
	if cs.DroppedBatches != 6 || cs.DroppedFrames != 12 {
		t.Fatalf("drops = %d batches / %d frames, want 6 / 12", cs.DroppedBatches, cs.DroppedFrames)
	}
}

// offlineClient builds a client whose dialer always fails, so the queue
// is never touched by a session and tests can stage its state directly.
func offlineClient(t *testing.T, id string, mod func(*ClientConfig)) *Client {
	t.Helper()
	return fastClient(t, "offline", id, func(cfg *ClientConfig) {
		cfg.Dial = func(context.Context, string) (net.Conn, error) {
			return nil, errors.New("offline")
		}
		if mod != nil {
			mod(cfg)
		}
	})
}

func TestDropOldestSparesRewoundTail(t *testing.T) {
	c := offlineClient(t, "rewind-agent", func(cfg *ClientConfig) {
		cfg.QueueBatches = 3
		cfg.Overflow = OverflowDropOldest
	})
	ctx := context.Background()
	for b := 0; b < 3; b++ {
		if err := c.Send(ctx, uniqueCaptures(0x90, b, 1)); err != nil {
			t.Fatal(err)
		}
	}
	// Stage the post-reconnect replay state: every queued batch was
	// transmitted on a dead session (seq assigned) and adoptCursor
	// rewound nextSend to 0. None of these may be evicted — dropping
	// one would leave a permanent gap the server rejects forever.
	c.mu.Lock()
	for i, pb := range c.queue {
		pb.seq = uint64(i + 1)
	}
	c.nextSend = 0
	c.mu.Unlock()

	short, cancel := context.WithTimeout(ctx, 60*time.Millisecond)
	defer cancel()
	if err := c.Send(short, uniqueCaptures(0x90, 10, 1)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("send over a fully sent-unacked queue: %v, want DeadlineExceeded (block, never evict)", err)
	}
	if st := c.Stats(); st.DroppedBatches != 0 || st.Pending != 3 {
		t.Fatalf("a sent-unacked batch was evicted: %+v", st)
	}

	// An unsent batch queued behind the rewound tail is still fair game.
	c.mu.Lock()
	c.queue[2].seq = 0
	c.mu.Unlock()
	if err := c.Send(ctx, uniqueCaptures(0x90, 11, 1)); err != nil {
		t.Fatalf("send with an evictable unsent batch blocked: %v", err)
	}
	if st := c.Stats(); st.DroppedBatches != 1 || st.Pending != 3 {
		t.Fatalf("want exactly the unsent batch evicted: %+v", st)
	}
}

func TestAdoptCursorRenumbersAfterRegression(t *testing.T) {
	c := offlineClient(t, "renumber-agent", nil)
	ctx := context.Background()
	for b := 0; b < 3; b++ {
		if err := c.Send(ctx, uniqueCaptures(0x91, b, 1)); err != nil {
			t.Fatal(err)
		}
	}
	// Stage a life where batches 1..4 were acked and discarded and 5..7
	// are the retained sent-unacked tail.
	c.mu.Lock()
	for i, pb := range c.queue {
		pb.seq = uint64(5 + i)
	}
	c.nextSeq = 8
	c.mu.Unlock()

	// A restarted engine answers the handshake with a stale checkpoint
	// cursor that only recorded 2: replaying seq 5 would be an eternal gap, so
	// the retained tail must renumber contiguously from 3.
	c.adoptCursor(nil, 2)

	c.mu.Lock()
	var got []uint64
	for _, pb := range c.queue {
		got = append(got, pb.seq)
	}
	nextSeq, nextSend := c.nextSeq, c.nextSend
	c.mu.Unlock()
	if fmt.Sprint(got) != "[3 4 5]" {
		t.Fatalf("queue seqs %v, want [3 4 5]", got)
	}
	if nextSeq != 6 || nextSend != 0 {
		t.Fatalf("nextSeq %d nextSend %d, want 6 / 0", nextSeq, nextSend)
	}
	if st := c.Stats(); st.RenumberedBatches != 3 {
		t.Fatalf("RenumberedBatches = %d, want 3", st.RenumberedBatches)
	}
}

func TestStaleCursorRestartRecovers(t *testing.T) {
	sink := newCountingSink()
	// An indirect dialer lets the client chase the "restarted engine"
	// onto its new port.
	var addr atomic.Value
	dial := func(ctx context.Context, _ string) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr.Load().(string))
	}
	srv1, a1 := startServer(t, ServerConfig{Ingest: sink.ingest})
	addr.Store(a1)
	c := fastClient(t, "indirect", "restart-agent", func(cfg *ClientConfig) {
		cfg.Dial = dial
	})
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	total := 0
	for b := 0; b < 5; b++ {
		caps := uniqueCaptures(0xA0, total, 2)
		total += len(caps)
		if err := c.Send(ctx, caps); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	srv1.Close()

	// The engine restarts from a checkpoint lagging what the client
	// already discarded on ack: 5 batches acked, the checkpoint recorded 2.
	// The session must renumber and make progress, not gap-cut forever.
	srv2, a2 := startServer(t, ServerConfig{
		Ingest:  sink.ingest,
		Cursors: map[string]uint64{"restart-agent": 2},
	})
	addr.Store(a2)
	for b := 0; b < 3; b++ {
		caps := uniqueCaptures(0xA1, b*2, 2)
		total += len(caps)
		if err := c.Send(ctx, caps); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(ctx); err != nil {
		t.Fatalf("flush after cursor regression livelocked: %v", err)
	}

	ingested, quarantined, maxDup := sink.snapshot()
	if ingested != total || quarantined != 0 || maxDup > 1 {
		t.Fatalf("sink: ingested %d quarantined %d maxDup %d, want %d/0/<=1", ingested, quarantined, maxDup, total)
	}
	a := srv2.Agents()[0]
	if a.Cursor != 5 || a.BatchesIngested != 3 || !a.AccountingOk {
		t.Fatalf("post-restart agent status: %+v", a)
	}
}

func TestOverflowBlockHonorsContext(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	c := fastClient(t, lis.Addr().String(), "block-agent", func(cfg *ClientConfig) {
		cfg.QueueBatches = 2
		cfg.Overflow = OverflowBlock
	})
	ctx := context.Background()
	for b := 0; b < 2; b++ {
		if err := c.Send(ctx, uniqueCaptures(0x50, b, 1)); err != nil {
			t.Fatal(err)
		}
	}
	short, cancel := context.WithTimeout(ctx, 80*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = c.Send(short, uniqueCaptures(0x50, 10, 1))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked send: %v, want DeadlineExceeded", err)
	}
	if time.Since(start) < 60*time.Millisecond {
		t.Fatal("send returned before the context deadline")
	}
	if dropped := c.Stats().DroppedBatches; dropped != 0 {
		t.Fatalf("block policy dropped %d batches", dropped)
	}
}

func TestSlowLorisConnIsCutOthersSurvive(t *testing.T) {
	sink := newCountingSink()
	srv, addr := startServer(t, ServerConfig{
		Ingest:      sink.ingest,
		ReadTimeout: 150 * time.Millisecond,
	})

	// The slow loris: handshakes, then dribbles half a batch and stalls.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello, _ := EncodeMessage(&Hello{AgentID: "loris"})
	if _, err := conn.Write(hello); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMessage(conn); err != nil {
		t.Fatalf("helloack: %v", err)
	}
	batch, _ := EncodeMessage(&Batch{Seq: 1, Items: []Item{{TimeSec: 1, Data: []byte{1, 2, 3}}}})
	if _, err := conn.Write(batch[:len(batch)/2]); err != nil {
		t.Fatal(err)
	}

	// A healthy agent keeps flowing while the loris hangs.
	c := fastClient(t, addr, "healthy", nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Send(ctx, uniqueCaptures(0x60, 0, 4)); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(ctx); err != nil {
		t.Fatalf("healthy agent starved by slow loris: %v", err)
	}

	// The server must cut the loris at its read deadline: our next read
	// on the stalled conn reports the close.
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("slow-loris conn still open well past the server read deadline")
	}
	for _, a := range srv.Agents() {
		if a.ID == "loris" && a.Connected {
			t.Fatalf("loris still marked connected: %+v", a)
		}
	}
}

// TestHealthReasonsAccountingOnly: however long an agent has been quiet,
// HealthReasons reports nothing for it (silence is the engine's
// per-source check), while an accounting mismatch is always reported.
func TestHealthReasonsAccountingOnly(t *testing.T) {
	sink := newCountingSink()
	srv, addr := startServer(t, ServerConfig{Ingest: sink.ingest})
	c := fastClient(t, addr, "quiet-agent", nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Send(ctx, uniqueCaptures(0x71, 0, 2)); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	c.Close()
	// Once the server has seen the close, no heartbeat can refresh
	// lastSeen behind the backdating below.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if a := srv.Agents(); len(a) == 1 && !a[0].Connected {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never saw the agent disconnect")
		}
	}

	// Backdate the agent's last traffic by an hour.
	srv.mu.Lock()
	st := srv.agents["quiet-agent"]
	srv.mu.Unlock()
	st.mu.Lock()
	st.lastSeen = time.Now().Add(-time.Hour)
	st.mu.Unlock()
	if reasons := srv.HealthReasons(); len(reasons) != 0 {
		t.Fatalf("HealthReasons() = %v, want none for a silent agent with sound accounting", reasons)
	}
	if a := srv.Agents(); len(a) != 1 || a[0].LastSeenAgeSec < 3600 {
		t.Fatalf("agents report %+v, want the hour of silence in LastSeenAgeSec", a)
	}

	// Force an accounting mismatch: a received frame that was neither
	// ingested, quarantined nor deduplicated.
	st.mu.Lock()
	st.framesRx++
	st.mu.Unlock()
	reasons := srv.HealthReasons()
	if len(reasons) != 1 || !strings.Contains(reasons[0], "accounting mismatch") {
		t.Fatalf("HealthReasons() = %v, want only the accounting mismatch", reasons)
	}
}

// TestDedupBatchZeroAllocs: a replayed batch at or below the cursor is
// counted through the agent's pre-resolved metric handles, so the dedup
// branch allocates nothing and never takes the registry lock.
func TestDedupBatchZeroAllocs(t *testing.T) {
	srv, err := NewServer(ServerConfig{
		Ingest:  func(string, []sniffer.Capture) int { return 0 },
		Cursors: map[string]uint64{"dedup-agent": 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := srv.agent("dedup-agent")
	b := &Batch{Seq: 3, Items: make([]Item, 4)}
	if avg := testing.AllocsPerRun(200, func() {
		if ok, cur := srv.handleBatch(st, b); !ok || cur != 5 {
			t.Fatalf("dedup batch: ok=%v cursor=%d, want true 5", ok, cur)
		}
	}); avg != 0 {
		t.Fatalf("dedup branch allocates %.2f times per batch, want 0", avg)
	}
	if s := st.statusLocked(time.Now()); s.BatchesDeduped != 201 || s.FramesDeduped != 804 {
		t.Errorf("deduped %d batches / %d frames, want 201 / 804", s.BatchesDeduped, s.FramesDeduped)
	}
}
