package capwire

import (
	"errors"
	"fmt"
	"math"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/sniffer"
	"repro/internal/telemetry"
)

// ServerConfig configures the engine-side capwire listener.
type ServerConfig struct {
	// Ingest hands one decoded batch to the engine and returns how many
	// captures were ingested; the remainder are counted as quarantined.
	// Required.
	Ingest func(agentID string, caps []sniffer.Capture) int
	// ReadTimeout bounds the wait for an agent's next message; a silent
	// or mid-message-stalled (slow-loris) connection is cut when it
	// expires. <= 0 means 15s.
	ReadTimeout time.Duration
	// WriteTimeout bounds one ack write; <= 0 means 5s.
	WriteTimeout time.Duration
	// Cursors seeds per-agent resume cursors (those saved in the
	// restored observation checkpoint) so resume survives an engine
	// restart.
	Cursors map[string]uint64
	// Logf, when set, receives session lifecycle lines.
	Logf func(format string, args ...any)
}

// agentState is the server's per-agent accounting. Its mutex also
// serializes ingest per agent, so a kicked connection can never race a
// fresh one past the cursor.
type agentState struct {
	id string
	m  agentMetrics

	mu        sync.Mutex
	cursor    uint64
	conn      net.Conn
	lastSeen  time.Time
	connects  uint64
	resumes   uint64
	lag       uint32
	batchesRx uint64 // valid batches received (ingested + deduped)
	framesRx  uint64
	batches   uint64 // ingested
	frames    uint64
	quar      uint64
	dedupB    uint64
	dedupF    uint64
	protoErrs uint64
}

// AgentStatus is one agent's externally visible state, served on
// /api/agents and asserted by the chaos smoke.
type AgentStatus struct {
	ID                string  `json:"id"`
	Connected         bool    `json:"connected"`
	LastSeenAgeSec    float64 `json:"lastSeenAgeSec"`
	Cursor            uint64  `json:"cursor"`
	BatchesReceived   uint64  `json:"batchesReceived"`
	BatchesIngested   uint64  `json:"batchesIngested"`
	FramesIngested    uint64  `json:"framesIngested"`
	FramesQuarantined uint64  `json:"framesQuarantined"`
	BatchesDeduped    uint64  `json:"batchesDeduped"`
	FramesDeduped     uint64  `json:"framesDeduped"`
	Resumes           uint64  `json:"resumes"`
	Connects          uint64  `json:"connects"`
	ProtocolErrors    uint64  `json:"protocolErrors"`
	LagBatches        uint32  `json:"lagBatches"`
	// AccountingOk is the exactly-once invariant: every received batch
	// was either ingested or deduped, and every received frame is
	// accounted for as ingested, quarantined or deduped.
	AccountingOk bool `json:"accountingOk"`
}

// Totals aggregates the fleet for health and bench summaries.
type Totals struct {
	Agents            int     `json:"agents"`
	Connected         int     `json:"connected"`
	BatchesReceived   uint64  `json:"batchesReceived"`
	BatchesIngested   uint64  `json:"batchesIngested"`
	FramesIngested    uint64  `json:"framesIngested"`
	FramesQuarantined uint64  `json:"framesQuarantined"`
	BatchesDeduped    uint64  `json:"batchesDeduped"`
	FramesDeduped     uint64  `json:"framesDeduped"`
	Resumes           uint64  `json:"resumes"`
	ProtocolErrors    uint64  `json:"protocolErrors"`
	P99BatchMs        float64 `json:"p99BatchMs"`
	AccountingOk      bool    `json:"accountingOk"`
}

// Report is the /api/agents document.
type Report struct {
	Enabled bool          `json:"enabled"`
	Agents  []AgentStatus `json:"agents"`
	Totals  Totals        `json:"totals"`
}

// Server accepts agent sessions, dedups replayed batches against
// per-agent cursors, and feeds the engine. Safe for concurrent use.
type Server struct {
	cfg ServerConfig

	mu      sync.Mutex
	agents  map[string]*agentState
	conns   map[net.Conn]struct{} // every accepted conn, pre-handshake included
	lis     net.Listener
	closed  bool
	wg      sync.WaitGroup
	batchMs *telemetry.Histogram
}

// NewServer validates the config.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Ingest == nil {
		return nil, errors.New("capwire: ServerConfig.Ingest is required")
	}
	if cfg.ReadTimeout <= 0 {
		cfg.ReadTimeout = 15 * time.Second
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 5 * time.Second
	}
	s := &Server{
		cfg:     cfg,
		agents:  make(map[string]*agentState),
		conns:   make(map[net.Conn]struct{}),
		batchMs: mBatchSeconds(),
	}
	for id, cur := range cfg.Cursors {
		if id == "" || len(id) > MaxAgentID {
			continue
		}
		s.agents[id] = &agentState{id: id, m: newAgentMetrics(id), cursor: cur}
	}
	return s, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Serve accepts sessions on lis until Close. It always returns a
// non-nil error; after Close that error is net.ErrClosed.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		lis.Close()
		return net.ErrClosed
	}
	s.lis = lis
	s.mu.Unlock()
	for {
		conn, err := lis.Accept()
		if err != nil {
			return err
		}
		// Register the handler under s.mu so Close cannot observe the
		// wait group between Accept and Add — a connection racing the
		// listener shutdown is either fully tracked or refused.
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return net.ErrClosed
		}
		s.wg.Add(1)
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handleConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Close stops accepting, drops every live session, and waits for the
// handlers to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	lis := s.lis
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if lis != nil {
		lis.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return nil
}

// agent returns (creating if new) the state for an agent ID.
func (s *Server) agent(id string) *agentState {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.agents[id]
	if st == nil {
		st = &agentState{id: id, m: newAgentMetrics(id)}
		s.agents[id] = st
	}
	return st
}

// handleConn runs one agent session: handshake, then batches/heartbeats
// until the connection dies or violates the protocol.
func (s *Server) handleConn(conn net.Conn) {
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
	msg, err := ReadMessage(conn)
	if err != nil {
		s.logf("capwire: %s: handshake read: %v", conn.RemoteAddr(), err)
		return
	}
	hello, ok := msg.(*Hello)
	if !ok {
		s.logf("capwire: %s: first message %T, want Hello", conn.RemoteAddr(), msg)
		return
	}
	st := s.agent(hello.AgentID)

	st.mu.Lock()
	// Last session wins: a restarted agent must not wait out its dead
	// predecessor's read deadline.
	if prev := st.conn; prev != nil {
		prev.Close()
	}
	st.conn = conn
	st.lastSeen = time.Now()
	st.connects++
	resumed := st.cursor > 0
	if resumed {
		st.resumes++
	}
	cursor := st.cursor
	st.mu.Unlock()

	st.m.connects.Inc()
	st.m.connected.Set(1)
	if resumed {
		st.m.resumes.Inc()
		s.logf("capwire: agent %s resuming from cursor %d", st.id, cursor)
	} else {
		s.logf("capwire: agent %s connected", st.id)
	}

	err = s.session(conn, st, cursor)

	st.mu.Lock()
	if st.conn == conn {
		st.conn = nil
		st.m.connected.Set(0)
	}
	st.mu.Unlock()
	if err != nil {
		s.logf("capwire: agent %s session ended: %v", st.id, err)
	}
}

func (s *Server) session(conn net.Conn, st *agentState, cursor uint64) error {
	ackBuf, err := EncodeMessage(&HelloAck{Cursor: cursor})
	if err != nil {
		return err
	}
	conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	if _, err := conn.Write(ackBuf); err != nil {
		return fmt.Errorf("write helloack: %w", err)
	}
	for {
		conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
		msg, err := ReadMessage(conn)
		if err != nil {
			return err
		}
		var ackCursor uint64
		switch m := msg.(type) {
		case *Batch:
			ok, cur := s.handleBatch(st, m)
			if !ok {
				return fmt.Errorf("batch seq %d with cursor %d: gap, forcing resume", m.Seq, cur)
			}
			ackCursor = cur
		case *Heartbeat:
			st.mu.Lock()
			st.lastSeen = time.Now()
			st.lag = m.QueuedBatches
			ackCursor = st.cursor
			st.mu.Unlock()
			st.m.lag.Set(float64(m.QueuedBatches))
		default:
			st.mu.Lock()
			st.protoErrs++
			st.mu.Unlock()
			st.m.protoErrors.Inc()
			return fmt.Errorf("unexpected %T mid-session", msg)
		}
		out, err := EncodeMessage(&Ack{Cursor: ackCursor})
		if err != nil {
			return err
		}
		conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		if _, err := conn.Write(out); err != nil {
			return fmt.Errorf("write ack: %w", err)
		}
	}
}

// handleBatch applies the cursor protocol to one batch: dedup at or
// below the cursor, ingest at cursor+1, reject anything further ahead
// (a seq gap — the connection is cut so the client rewinds and replays).
// Returns ok=false on a gap, plus the cursor to ack.
func (s *Server) handleBatch(st *agentState, b *Batch) (bool, uint64) {
	start := time.Now()
	st.mu.Lock()
	defer st.mu.Unlock()
	st.lastSeen = start
	switch {
	case b.Seq <= st.cursor:
		st.dedupB++
		st.dedupF += uint64(len(b.Items))
		st.batchesRx++
		st.framesRx += uint64(len(b.Items))
		st.m.dedupedBatches.Inc()
		st.m.dedupedFrames.Add(uint64(len(b.Items)))
		return true, st.cursor
	case b.Seq == st.cursor+1:
		caps := b.ToCaptures()
		n := s.cfg.Ingest(st.id, caps)
		if n < 0 {
			n = 0
		}
		if n > len(caps) {
			n = len(caps)
		}
		st.cursor = b.Seq
		st.batchesRx++
		st.framesRx += uint64(len(caps))
		st.batches++
		st.frames += uint64(n)
		st.quar += uint64(len(caps) - n)
		st.m.batches.Inc()
		st.m.frames.Add(uint64(n))
		st.m.quarantined.Add(uint64(len(caps) - n))
		s.batchMs.ObserveSince(start)
		return true, st.cursor
	default:
		st.protoErrs++
		st.m.protoErrors.Inc()
		return false, st.cursor
	}
}

// statusLocked snapshots one agent (st.mu held).
func (st *agentState) statusLocked(now time.Time) AgentStatus {
	age := math.NaN()
	if !st.lastSeen.IsZero() {
		age = now.Sub(st.lastSeen).Seconds()
	}
	return AgentStatus{
		ID:                st.id,
		Connected:         st.conn != nil,
		LastSeenAgeSec:    age,
		Cursor:            st.cursor,
		BatchesReceived:   st.batchesRx,
		BatchesIngested:   st.batches,
		FramesIngested:    st.frames,
		FramesQuarantined: st.quar,
		BatchesDeduped:    st.dedupB,
		FramesDeduped:     st.dedupF,
		Resumes:           st.resumes,
		Connects:          st.connects,
		ProtocolErrors:    st.protoErrs,
		LagBatches:        st.lag,
		AccountingOk: st.batchesRx == st.batches+st.dedupB &&
			st.framesRx == st.frames+st.quar+st.dedupF,
	}
}

// Agents returns every known agent's status, sorted by ID.
func (s *Server) Agents() []AgentStatus {
	now := time.Now()
	s.mu.Lock()
	states := make([]*agentState, 0, len(s.agents))
	for _, st := range s.agents {
		states = append(states, st)
	}
	s.mu.Unlock()
	out := make([]AgentStatus, 0, len(states))
	for _, st := range states {
		st.mu.Lock()
		out = append(out, st.statusLocked(now))
		st.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Totals aggregates Agents() plus the fleet-wide p99 batch latency.
func (s *Server) Totals() Totals {
	var t Totals
	t.AccountingOk = true
	for _, a := range s.Agents() {
		t.Agents++
		if a.Connected {
			t.Connected++
		}
		t.BatchesReceived += a.BatchesReceived
		t.BatchesIngested += a.BatchesIngested
		t.FramesIngested += a.FramesIngested
		t.FramesQuarantined += a.FramesQuarantined
		t.BatchesDeduped += a.BatchesDeduped
		t.FramesDeduped += a.FramesDeduped
		t.Resumes += a.Resumes
		t.ProtocolErrors += a.ProtocolErrors
		t.AccountingOk = t.AccountingOk && a.AccountingOk
	}
	if q := telemetry.QuantileFromCumulative(s.batchMs.Bounds(), s.batchMs.Cumulative(), 0.99); !math.IsNaN(q) {
		t.P99BatchMs = q * 1000
	}
	return t
}

// Report builds the /api/agents document.
func (s *Server) Report() Report {
	return Report{Enabled: true, Agents: s.Agents(), Totals: s.Totals()}
}

// HealthReasons lists agents whose exactly-once accounting does not add
// up. Fed into /api/health. An agent's silence is not judged here: the
// engine's per-source check (-ingest-stale-after) covers every capture
// source, remote agents included.
func (s *Server) HealthReasons() []string {
	var reasons []string
	for _, a := range s.Agents() {
		if !a.AccountingOk {
			reasons = append(reasons, fmt.Sprintf("agent %s accounting mismatch", a.ID))
		}
	}
	return reasons
}

// Cursors snapshots every agent's resume cursor.
func (s *Server) Cursors() map[string]uint64 {
	out := make(map[string]uint64)
	s.mu.Lock()
	states := make([]*agentState, 0, len(s.agents))
	for _, st := range s.agents {
		states = append(states, st)
	}
	s.mu.Unlock()
	for _, st := range states {
		st.mu.Lock()
		out[st.id] = st.cursor
		st.mu.Unlock()
	}
	return out
}
