package capwire

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/sniffer"
)

// ErrClosed is returned by Send and Flush after Close.
var ErrClosed = errors.New("capwire: client closed")

// OverflowPolicy decides what Send does when the bounded queue is full.
type OverflowPolicy int

const (
	// OverflowBlock makes Send wait for queue space — backpressure
	// propagates to the capture loop, no batch is ever dropped.
	OverflowBlock OverflowPolicy = iota
	// OverflowDropOldest makes Send evict the oldest never-transmitted
	// batch (seq still unassigned) to admit the new one. Batches that
	// have been sent at least once — including a rewound unacked tail
	// awaiting replay after a reconnect — are never evicted (dropping
	// one would tear a permanent hole in the seq stream); every
	// eviction is counted.
	OverflowDropOldest
)

// ParseOverflowPolicy parses the flag spelling of a policy.
func ParseOverflowPolicy(s string) (OverflowPolicy, error) {
	switch s {
	case "block":
		return OverflowBlock, nil
	case "drop-oldest":
		return OverflowDropOldest, nil
	}
	return 0, fmt.Errorf("capwire: unknown overflow policy %q (want block or drop-oldest)", s)
}

// String returns the flag spelling.
func (p OverflowPolicy) String() string {
	if p == OverflowDropOldest {
		return "drop-oldest"
	}
	return "block"
}

// ClientConfig configures a streaming client.
type ClientConfig struct {
	// Addr is the server's TCP address.
	Addr string
	// AgentID names this agent to the server (cursor + accounting key).
	AgentID string
	// QueueBatches bounds the send queue (unsent + sent-unacked);
	// <= 0 means 256.
	QueueBatches int
	// Overflow is the policy when the queue is full.
	Overflow OverflowPolicy
	// HeartbeatEvery is the idle keepalive period; <= 0 means 1s.
	HeartbeatEvery time.Duration
	// WriteTimeout bounds one message write; <= 0 means 5s.
	WriteTimeout time.Duration
	// ReadTimeout bounds the wait for the next server message; <= 0
	// means 4x HeartbeatEvery (the server acks every heartbeat, so a
	// healthy session always has inbound traffic).
	ReadTimeout time.Duration
	// BackoffMin / BackoffMax bound the jittered exponential reconnect
	// backoff; <= 0 mean 100ms / 5s.
	BackoffMin, BackoffMax time.Duration
	// Dial overrides the dialer (tests, fault wrappers); nil means a
	// plain TCP dial.
	Dial func(ctx context.Context, addr string) (net.Conn, error)
	// WrapConn, when set, wraps every new connection — the hook the
	// faults.WirePlan plugs into.
	WrapConn func(net.Conn) net.Conn
	// Logf, when set, receives connection lifecycle lines.
	Logf func(format string, args ...any)
}

func (cfg *ClientConfig) fillDefaults() {
	if cfg.QueueBatches <= 0 {
		cfg.QueueBatches = 256
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = time.Second
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 5 * time.Second
	}
	if cfg.ReadTimeout <= 0 {
		cfg.ReadTimeout = 4 * cfg.HeartbeatEvery
	}
	if cfg.BackoffMin <= 0 {
		cfg.BackoffMin = 100 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 5 * time.Second
	}
}

// ClientStats is a point-in-time snapshot of a client's accounting.
type ClientStats struct {
	// EnqueuedBatches / EnqueuedFrames count everything Send accepted.
	EnqueuedBatches uint64 `json:"enqueuedBatches"`
	EnqueuedFrames  uint64 `json:"enqueuedFrames"`
	// AckedBatches / AckedFrames count everything the server has acked.
	AckedBatches uint64 `json:"ackedBatches"`
	AckedFrames  uint64 `json:"ackedFrames"`
	// DroppedBatches / DroppedFrames count drop-oldest evictions.
	DroppedBatches uint64 `json:"droppedBatches"`
	DroppedFrames  uint64 `json:"droppedFrames"`
	// ReplayedBatches counts re-sends of the unacked tail after
	// reconnects.
	ReplayedBatches uint64 `json:"replayedBatches"`
	// RenumberedBatches counts queued batches re-sequenced after a
	// server cursor regression (an engine restart restored a checkpoint
	// whose cursor lags batches this client had already discarded on
	// ack).
	RenumberedBatches uint64 `json:"renumberedBatches"`
	// Handshakes counts completed Hello/HelloAck exchanges; Resumes
	// counts the subset that adopted a non-zero server cursor.
	Handshakes uint64 `json:"handshakes"`
	Resumes    uint64 `json:"resumes"`
	// DialFailures counts failed connection attempts.
	DialFailures uint64 `json:"dialFailures"`
	// Pending is the current queue depth (unsent + unacked).
	Pending int `json:"pending"`
	// Cursor is the highest server-acked batch seq.
	Cursor uint64 `json:"cursor"`
	// Connected reports whether a session is currently established.
	Connected bool `json:"connected"`
}

// pendingBatch is one queued batch. seq is 0 until its first
// transmission — assigning at send (not enqueue) keeps the seq stream
// gapless under drop-oldest eviction of unsent batches.
type pendingBatch struct {
	seq    uint64
	items  []Item
	frames int
}

// Client streams capture batches to a capwire server with bounded
// queueing, reconnect and resume. Safe for concurrent use.
type Client struct {
	cfg ClientConfig
	m   clientMetrics

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []*pendingBatch
	nextSend int    // queue index of the first unsent batch
	nextSeq  uint64 // next seq to assign (first batch gets 1)
	closed   bool
	conn     net.Conn // live session conn, nil between sessions
	rng      *rand.Rand

	stats   ClientStats
	done    chan struct{}
	cancel  context.CancelFunc
	lastErr error
}

// NewClient validates the config and starts the connection loop.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Addr == "" {
		return nil, errors.New("capwire: ClientConfig.Addr is required")
	}
	if cfg.AgentID == "" || len(cfg.AgentID) > MaxAgentID {
		return nil, fmt.Errorf("capwire: agent ID %q, want 1..%d bytes", cfg.AgentID, MaxAgentID)
	}
	cfg.fillDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	c := &Client{
		cfg:     cfg,
		m:       newClientMetrics(cfg.AgentID),
		nextSeq: 1,
		rng:     rand.New(rand.NewSource(time.Now().UnixNano())),
		done:    make(chan struct{}),
		cancel:  cancel,
	}
	c.cond = sync.NewCond(&c.mu)
	go c.run(ctx)
	return c, nil
}

func (c *Client) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// Send enqueues one capture batch. Empty batches are ignored. Under
// OverflowBlock a full queue blocks until space frees, ctx is done, or
// the client closes; under OverflowDropOldest the oldest unsent batch
// is evicted (counted) and Send returns immediately unless every queued
// batch is already in flight awaiting ack.
func (c *Client) Send(ctx context.Context, caps []sniffer.Capture) error {
	if len(caps) == 0 {
		return nil
	}
	b, err := BatchFromCaptures(0, caps)
	if err != nil {
		return err
	}
	pb := &pendingBatch{items: b.Items, frames: len(b.Items)}

	c.mu.Lock()
	defer c.mu.Unlock()
	var stopWatch func() bool
	defer func() {
		if stopWatch != nil {
			stopWatch()
		}
	}()
	for {
		if c.closed {
			return ErrClosed
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if len(c.queue) < c.cfg.QueueBatches {
			break
		}
		if c.cfg.Overflow == OverflowDropOldest {
			if i := c.oldestUnsentLocked(); i >= 0 {
				victim := c.queue[i]
				c.queue = append(c.queue[:i], c.queue[i+1:]...)
				c.stats.DroppedBatches++
				c.stats.DroppedFrames += uint64(victim.frames)
				c.m.dropped.Inc()
				continue
			}
		}
		// Block (or drop-oldest with every queued batch already
		// transmitted and awaiting ack or replay): wait for an ack to
		// free space.
		if stopWatch == nil && ctx.Done() != nil {
			stopWatch = context.AfterFunc(ctx, c.cond.Broadcast)
		}
		c.cond.Wait()
	}
	c.queue = append(c.queue, pb)
	c.stats.EnqueuedBatches++
	c.stats.EnqueuedFrames += uint64(pb.frames)
	c.m.queueDepth.Set(float64(len(c.queue)))
	c.cond.Broadcast()
	return nil
}

// oldestUnsentLocked returns the index of the oldest never-transmitted
// batch (seq still unassigned), or -1 if every queued batch has been
// sent at least once. Indexes below nextSend always carry a seq;
// after adoptCursor rewinds nextSend for replay, a sent-unacked tail
// (seq != 0) precedes the unsent batches, so the scan must check seqs
// rather than trust nextSend alone.
func (c *Client) oldestUnsentLocked() int {
	for i := c.nextSend; i < len(c.queue); i++ {
		if c.queue[i].seq == 0 {
			return i
		}
	}
	return -1
}

// Flush blocks until every enqueued batch has been acked by the server,
// ctx expires, or the client closes.
func (c *Client) Flush(ctx context.Context) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var stopWatch func() bool
	defer func() {
		if stopWatch != nil {
			stopWatch()
		}
	}()
	for len(c.queue) > 0 {
		if c.closed {
			return ErrClosed
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if stopWatch == nil && ctx.Done() != nil {
			stopWatch = context.AfterFunc(ctx, c.cond.Broadcast)
		}
		c.cond.Wait()
	}
	return nil
}

// Bounce drops the current connection, forcing a reconnect + resume
// cycle — the programmatic stand-in for a torn network.
func (c *Client) Bounce() {
	c.mu.Lock()
	conn := c.conn
	c.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

// Close stops the client. Queued batches are abandoned; call Flush
// first for a clean drain.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conn := c.conn
	c.mu.Unlock()
	c.cancel()
	if conn != nil {
		conn.Close()
	}
	c.cond.Broadcast()
	<-c.done
	return nil
}

// Stats returns a snapshot of the client's accounting.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Pending = len(c.queue)
	s.Connected = c.conn != nil
	return s
}

// run is the connection lifecycle loop: dial, handshake, pump, back off,
// repeat until Close.
func (c *Client) run(ctx context.Context) {
	defer close(c.done)
	backoff := c.cfg.BackoffMin
	for {
		if ctx.Err() != nil || c.isClosed() {
			return
		}
		conn, err := c.dial(ctx)
		if err != nil {
			c.mu.Lock()
			c.stats.DialFailures++
			c.lastErr = err
			c.mu.Unlock()
			c.logf("capwire: dial %s: %v (retry in %v)", c.cfg.Addr, err, backoff)
			if !c.sleep(ctx, c.jitter(backoff)) {
				return
			}
			backoff = c.nextBackoff(backoff)
			continue
		}
		err = c.session(conn)
		conn.Close()
		c.mu.Lock()
		c.conn = nil
		if err != nil {
			c.lastErr = err
		}
		c.mu.Unlock()
		if ctx.Err() != nil || c.isClosed() {
			return
		}
		// A completed handshake counts as progress: reset the backoff so
		// a flaky-but-reachable server is retried promptly.
		if errors.Is(err, errHandshake) {
			backoff = c.nextBackoff(backoff)
		} else {
			backoff = c.cfg.BackoffMin
		}
		c.logf("capwire: session %s ended: %v (reconnect in ~%v)", c.cfg.Addr, err, backoff)
		if !c.sleep(ctx, c.jitter(backoff)) {
			return
		}
	}
}

func (c *Client) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

func (c *Client) dial(ctx context.Context) (net.Conn, error) {
	dial := c.cfg.Dial
	if dial == nil {
		dial = func(ctx context.Context, addr string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	conn, err := dial(ctx, c.cfg.Addr)
	if err != nil {
		return nil, err
	}
	if c.cfg.WrapConn != nil {
		conn = c.cfg.WrapConn(conn)
	}
	return conn, nil
}

// jitter spreads a backoff uniformly over [d/2, d) so a fleet of agents
// does not reconnect in lockstep.
func (c *Client) jitter(d time.Duration) time.Duration {
	c.mu.Lock()
	f := 0.5 + 0.5*c.rng.Float64()
	c.mu.Unlock()
	return time.Duration(float64(d) * f)
}

func (c *Client) nextBackoff(d time.Duration) time.Duration {
	d *= 2
	if d > c.cfg.BackoffMax {
		d = c.cfg.BackoffMax
	}
	return d
}

// sleep waits d or until ctx/Close; false means stop the loop.
func (c *Client) sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// errHandshake tags session errors that happened before the handshake
// completed, so backoff keeps growing for unreachable/misbehaving
// servers but resets once a session was truly established.
var errHandshake = errors.New("capwire: handshake failed")

// session performs the handshake and pumps batches until the connection
// dies or the client closes.
func (c *Client) session(conn net.Conn) error {
	// Handshake: Hello out, HelloAck (resume cursor) back.
	hello, err := EncodeMessage(&Hello{AgentID: c.cfg.AgentID})
	if err != nil {
		return fmt.Errorf("%w: %v", errHandshake, err)
	}
	conn.SetWriteDeadline(time.Now().Add(c.cfg.WriteTimeout))
	if _, err := conn.Write(hello); err != nil {
		return fmt.Errorf("%w: write hello: %v", errHandshake, err)
	}
	conn.SetReadDeadline(time.Now().Add(c.cfg.ReadTimeout))
	msg, err := ReadMessage(conn)
	if err != nil {
		return fmt.Errorf("%w: read helloack: %v", errHandshake, err)
	}
	ack, ok := msg.(*HelloAck)
	if !ok {
		return fmt.Errorf("%w: got %T, want HelloAck", errHandshake, msg)
	}
	c.adoptCursor(conn, ack.Cursor)

	// Reader: acks advance the cursor; any failure breaks the session.
	broken := make(chan struct{})
	var readErr error
	go func() {
		defer close(broken)
		for {
			conn.SetReadDeadline(time.Now().Add(c.cfg.ReadTimeout))
			msg, err := ReadMessage(conn)
			if err != nil {
				readErr = err
				return
			}
			switch m := msg.(type) {
			case *Ack:
				c.handleAck(m.Cursor)
			case *HelloAck:
				c.handleAck(m.Cursor)
			default:
				readErr = fmt.Errorf("capwire: unexpected %T from server", msg)
				return
			}
		}
	}()
	// Wake the writer when the reader dies.
	go func() {
		<-broken
		c.cond.Broadcast()
	}()

	// Writer: queued batches, else heartbeats.
	lastWrite := time.Now()
	stopTick := make(chan struct{})
	defer close(stopTick)
	go func() {
		t := time.NewTicker(c.cfg.HeartbeatEvery / 2)
		defer t.Stop()
		for {
			select {
			case <-stopTick:
				return
			case <-t.C:
				c.cond.Broadcast()
			}
		}
	}()
	for {
		c.mu.Lock()
		for {
			if c.closed {
				c.mu.Unlock()
				return ErrClosed
			}
			if isChanClosed(broken) {
				c.mu.Unlock()
				return fmt.Errorf("capwire: read side failed: %w", readErr)
			}
			if c.nextSend < len(c.queue) || time.Since(lastWrite) >= c.cfg.HeartbeatEvery {
				break
			}
			c.cond.Wait()
		}
		var msg any
		if c.nextSend < len(c.queue) {
			pb := c.queue[c.nextSend]
			if pb.seq == 0 {
				pb.seq = c.nextSeq
				c.nextSeq++
			} else {
				// A seq assigned on an earlier connection: this is a
				// replay of the unacked tail.
				c.stats.ReplayedBatches++
				c.m.replayed.Inc()
			}
			msg = &Batch{Seq: pb.seq, Items: pb.items}
			c.nextSend++
		} else {
			msg = &Heartbeat{QueuedBatches: uint32(len(c.queue))}
		}
		c.mu.Unlock()

		buf, err := EncodeMessage(msg)
		if err != nil {
			return fmt.Errorf("capwire: encode: %w", err)
		}
		conn.SetWriteDeadline(time.Now().Add(c.cfg.WriteTimeout))
		if _, err := conn.Write(buf); err != nil {
			return fmt.Errorf("capwire: write: %w", err)
		}
		lastWrite = time.Now()
	}
}

func isChanClosed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// adoptCursor applies the server's resume cursor after a handshake:
// batches at or below it are acked, everything else rewinds for replay.
func (c *Client) adoptCursor(conn net.Conn, cursor uint64) {
	c.mu.Lock()
	c.conn = conn
	c.stats.Handshakes++
	if c.stats.Handshakes > 1 {
		c.m.reconnects.Inc()
	}
	if cursor > 0 {
		c.stats.Resumes++
	}
	if cursor >= c.nextSeq {
		// The server knows batches this client instance never assigned —
		// a restarted agent adopting its predecessor's cursor.
		c.nextSeq = cursor + 1
	}
	c.popAckedLocked(cursor)
	// Cursor regression: the server's cursor sits below the next seq it
	// will be offered (queue head, or nextSeq on an empty/unsent queue).
	// That happens when an engine restart restored a checkpoint lagging
	// batches this client already acked and discarded — the skipped
	// window is lost server-side no matter what, but replaying the old
	// seqs would be rejected as a gap forever, livelocking the session.
	// Renumber the retained tail contiguously from cursor+1 so every
	// batch still held gets delivered. Safe against reordered or
	// duplicated batches: within one server process the cursor never
	// regresses, so this only fires on the authoritative handshake
	// cursor of a restarted server.
	head := c.nextSeq
	if len(c.queue) > 0 && c.queue[0].seq != 0 {
		head = c.queue[0].seq
	}
	var renumbered int
	if head > cursor+1 {
		seq := cursor
		for _, pb := range c.queue {
			if pb.seq == 0 {
				break
			}
			seq++
			pb.seq = seq
			renumbered++
		}
		c.nextSeq = seq + 1
		c.stats.RenumberedBatches += uint64(renumbered)
		if renumbered > 0 {
			c.m.renumbered.Add(uint64(renumbered))
		}
	}
	// Everything still queued (sent-unacked included) goes back on the
	// wire in order.
	c.nextSend = 0
	resumed := cursor > 0
	c.mu.Unlock()
	c.cond.Broadcast()
	if head > cursor+1 {
		c.logf("capwire: %s server cursor %d regressed below head seq %d; renumbered %d queued batch(es) from %d",
			c.cfg.AgentID, cursor, head, renumbered, cursor+1)
	}
	if resumed {
		c.logf("capwire: %s resuming from cursor %d", c.cfg.AgentID, cursor)
	}
}

// handleAck advances on a cumulative server ack.
func (c *Client) handleAck(cursor uint64) {
	c.mu.Lock()
	c.popAckedLocked(cursor)
	c.mu.Unlock()
	c.cond.Broadcast()
}

func (c *Client) popAckedLocked(cursor uint64) {
	if cursor > c.stats.Cursor {
		c.stats.Cursor = cursor
	}
	n := 0
	for n < len(c.queue) && c.queue[n].seq != 0 && c.queue[n].seq <= cursor {
		c.stats.AckedBatches++
		c.stats.AckedFrames += uint64(c.queue[n].frames)
		n++
	}
	if n > 0 {
		c.queue = append(c.queue[:0], c.queue[n:]...)
		c.nextSend -= n
		if c.nextSend < 0 {
			c.nextSend = 0
		}
	}
	c.m.queueDepth.Set(float64(len(c.queue)))
}
