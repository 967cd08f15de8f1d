package faults

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Wire faults extend the plan machinery from capture delivery to the
// capwire transport: the same deterministic-seed philosophy, applied to
// a net.Conn. A WirePlan wraps the agent side of a connection and mangles
// outgoing messages — tearing the connection, truncating or bit-flipping
// a message, stalling mid-message like a slow-loris client, duplicating
// a message, or holding one back so it arrives after its successor.
//
// The wrapper relies on the capwire convention that every Write carries
// exactly one complete wire message, so each fault maps one-to-one onto
// a protocol-visible event: a corrupted Write is one CRC failure, a
// duplicated Write is one dedup hit, a torn Write is one reconnect.
// Every injection is counted; the chaos invariant downstream is that the
// server's quarantine/dedup/resume accounting absorbs all of them with
// no frame lost or double-ingested.

// WireConfig specifies a transport fault plan. All probabilities are
// per written message.
type WireConfig struct {
	// Seed seeds the plan's RNG; identical seeds replay identical faults.
	Seed int64
	// TearProb closes the connection instead of writing — a torn TCP
	// session mid-stream.
	TearProb float64
	// TruncateProb writes only a prefix of the message and then closes —
	// a crash mid-send.
	TruncateProb float64
	// CorruptProb flips 1–3 bits of the message before writing it; the
	// CRC-32 trailer downstream rejects it.
	CorruptProb float64
	// DupProb writes the message twice — at-least-once delivery made
	// literal.
	DupProb float64
	// ReorderProb holds the message back and emits it after the next one.
	ReorderProb float64
	// StallProb writes half the message, sleeps StallSec, then writes the
	// rest — the slow-loris agent that keeps a server reader pinned.
	StallProb float64
	// StallSec is the mid-message stall duration; 0 means 1s.
	StallSec float64
}

// WireCounters totals the transport faults a plan has injected so far.
type WireCounters struct {
	// Torn counts connections closed mid-stream.
	Torn uint64 `json:"torn"`
	// Truncated counts messages cut short (connection closed mid-message).
	Truncated uint64 `json:"truncated"`
	// Corrupted counts messages delivered with flipped bits.
	Corrupted uint64 `json:"corrupted"`
	// Duplicated counts messages written twice.
	Duplicated uint64 `json:"duplicated"`
	// Reordered counts messages delivered after their successor.
	Reordered uint64 `json:"reordered"`
	// Stalled counts messages written with a mid-message stall.
	Stalled uint64 `json:"stalled"`
}

// WirePlan is an armed transport fault plan. Safe for concurrent use;
// one plan may wrap many connections and they share its RNG and budget.
type WirePlan struct {
	cfg WireConfig

	mu  sync.Mutex
	rng *rand.Rand

	torn       atomic.Uint64
	truncated  atomic.Uint64
	corrupted  atomic.Uint64
	duplicated atomic.Uint64
	reordered  atomic.Uint64
	stalled    atomic.Uint64
}

// NewWire validates a config and arms the plan.
func NewWire(cfg WireConfig) (*WirePlan, error) {
	for name, p := range map[string]float64{
		"TearProb": cfg.TearProb, "TruncateProb": cfg.TruncateProb,
		"CorruptProb": cfg.CorruptProb, "DupProb": cfg.DupProb,
		"ReorderProb": cfg.ReorderProb, "StallProb": cfg.StallProb,
	} {
		if p < 0 || p > 1 || math.IsNaN(p) {
			return nil, fmt.Errorf("faults: wire %s = %v, want [0, 1]", name, p)
		}
	}
	if sum := cfg.TearProb + cfg.TruncateProb + cfg.CorruptProb + cfg.DupProb + cfg.ReorderProb + cfg.StallProb; sum > 1 {
		return nil, fmt.Errorf("faults: wire probabilities sum to %v, want <= 1", sum)
	}
	if cfg.StallSec < 0 {
		return nil, fmt.Errorf("faults: wire StallSec = %v, want >= 0", cfg.StallSec)
	}
	return &WirePlan{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}, nil
}

// AggressiveWire is the transport chaos preset: every wire fault class on
// at once, hard enough that a transport without CRC + resume visibly
// loses or double-counts batches. Stalls are kept shorter than the
// capwire server's default read deadline so they delay rather than kill
// healthy smoke runs; tighten the server deadline to turn them lethal.
func AggressiveWire(seed int64) *WirePlan {
	p, err := NewWire(WireConfig{
		Seed:         seed,
		TearProb:     0.02,
		TruncateProb: 0.02,
		CorruptProb:  0.04,
		DupProb:      0.06,
		ReorderProb:  0.08,
		StallProb:    0.02,
		StallSec:     0.2,
	})
	if err != nil {
		panic(err) // the preset is a constant; a failure here is a bug
	}
	return p
}

// Enabled reports whether the plan injects anything; a nil plan doesn't.
func (p *WirePlan) Enabled() bool { return p != nil }

// Config returns the plan's configuration (zero for a nil plan).
func (p *WirePlan) Config() WireConfig {
	if p == nil {
		return WireConfig{}
	}
	return p.cfg
}

// Counters returns the plan's injection totals so far (zero for nil).
func (p *WirePlan) Counters() WireCounters {
	if p == nil {
		return WireCounters{}
	}
	return WireCounters{
		Torn:       p.torn.Load(),
		Truncated:  p.truncated.Load(),
		Corrupted:  p.corrupted.Load(),
		Duplicated: p.duplicated.Load(),
		Reordered:  p.reordered.Load(),
		Stalled:    p.stalled.Load(),
	}
}

// corruptBytes flips 1–3 random bits of raw in place — the same
// corruption model Plan.CorruptBytes applies to encoded frames, drawn
// from the wire plan's own RNG.
func (p *WirePlan) corruptBytes(raw []byte) {
	if len(raw) == 0 {
		return
	}
	p.mu.Lock()
	flips := 1 + p.rng.Intn(3)
	for i := 0; i < flips; i++ {
		bit := p.rng.Intn(len(raw) * 8)
		raw[bit/8] ^= 1 << (bit % 8)
	}
	p.mu.Unlock()
}

// wireOutcome is a per-message transport decision.
type wireOutcome int

const (
	wirePass wireOutcome = iota
	wireTear
	wireTruncate
	wireCorrupt
	wireDup
	wireReorder
	wireStall
)

// outcome draws the fate of one written message.
func (p *WirePlan) outcome() wireOutcome {
	p.mu.Lock()
	u := p.rng.Float64()
	p.mu.Unlock()
	c := p.cfg
	switch {
	case u < c.TearProb:
		return wireTear
	case u < c.TearProb+c.TruncateProb:
		return wireTruncate
	case u < c.TearProb+c.TruncateProb+c.CorruptProb:
		return wireCorrupt
	case u < c.TearProb+c.TruncateProb+c.CorruptProb+c.DupProb:
		return wireDup
	case u < c.TearProb+c.TruncateProb+c.CorruptProb+c.DupProb+c.ReorderProb:
		return wireReorder
	case u < c.TearProb+c.TruncateProb+c.CorruptProb+c.DupProb+c.ReorderProb+c.StallProb:
		return wireStall
	}
	return wirePass
}

// WrapConn wraps the write side of conn with the plan's faults. A nil
// plan returns conn unchanged. The wrapper assumes one complete wire
// message per Write call (the capwire client convention).
func (p *WirePlan) WrapConn(conn net.Conn) net.Conn {
	if p == nil {
		return conn
	}
	return &wireConn{Conn: conn, plan: p}
}

// wireConn applies per-message faults on Write. Reads pass through.
type wireConn struct {
	net.Conn
	plan *WirePlan

	mu   sync.Mutex
	held []byte // one reordered message awaiting its successor
}

// Write mangles one outgoing message per the plan. Faults that keep the
// connection alive report len(b) written so the sender believes the send
// succeeded — exactly the silent failure modes the protocol must absorb.
func (c *wireConn) Write(b []byte) (int, error) {
	p := c.plan
	switch p.outcome() {
	case wireTear:
		p.torn.Add(1)
		mInjected.wireTear.Inc()
		c.Conn.Close()
		return 0, fmt.Errorf("faults: connection torn by wire plan: %w", net.ErrClosed)
	case wireTruncate:
		p.truncated.Add(1)
		mInjected.wireTruncate.Inc()
		n := len(b) / 2
		if n < 1 {
			n = 1
		}
		c.Conn.Write(b[:n])
		c.Conn.Close()
		return n, fmt.Errorf("faults: message truncated by wire plan: %w", net.ErrClosed)
	case wireCorrupt:
		p.corrupted.Add(1)
		mInjected.wireCorrupt.Inc()
		mangled := append([]byte(nil), b...)
		p.corruptBytes(mangled)
		if _, err := c.writeHeldThen(mangled); err != nil {
			return 0, err
		}
		return len(b), nil
	case wireDup:
		p.duplicated.Add(1)
		mInjected.wireDuplicate.Inc()
		if _, err := c.writeHeldThen(b); err != nil {
			return 0, err
		}
		if _, err := c.Conn.Write(b); err != nil {
			return 0, err
		}
		return len(b), nil
	case wireReorder:
		p.reordered.Add(1)
		mInjected.wireReorder.Inc()
		c.mu.Lock()
		flush := c.held
		c.held = append([]byte(nil), b...)
		c.mu.Unlock()
		if flush != nil {
			if _, err := c.Conn.Write(flush); err != nil {
				return 0, err
			}
		}
		// The held message rides out with the next Write; if the
		// connection dies first it is simply lost — the resume path's
		// problem, by design.
		return len(b), nil
	case wireStall:
		p.stalled.Add(1)
		mInjected.wireStall.Inc()
		stall := p.cfg.StallSec
		if stall == 0 {
			stall = 1
		}
		half := len(b) / 2
		if _, err := c.writeHeldThen(b[:half]); err != nil {
			return 0, err
		}
		time.Sleep(time.Duration(stall * float64(time.Second)))
		if _, err := c.Conn.Write(b[half:]); err != nil {
			return 0, err
		}
		return len(b), nil
	}
	return c.writeHeldThen(b)
}

// writeHeldThen flushes a reorder-held message (if any) and then writes
// b, reporting b's byte count.
func (c *wireConn) writeHeldThen(b []byte) (int, error) {
	c.mu.Lock()
	flush := c.held
	c.held = nil
	c.mu.Unlock()
	if flush != nil {
		if _, err := c.Conn.Write(flush); err != nil {
			return 0, err
		}
	}
	return c.Conn.Write(b)
}
