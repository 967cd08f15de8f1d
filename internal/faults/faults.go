// Package faults is the pipeline's deterministic fault-injection plan:
// a seedable schedule of the failures a real deployment of the digital
// Marauder's map reports — monitoring cards that die, flap or lose
// sensitivity mid-run, capture clocks that skew and jitter, frames that
// arrive bit-flipped, and capture batches that are dropped, duplicated,
// reordered or delayed on their way to the engine.
//
// A Plan is consulted from two places. The sniffer asks it about card
// health per decode attempt (CardAlive / CardPenaltyDB — a pure function
// of (channel, time), so two runs with the same plan lose exactly the
// same frames). The capture→engine delivery path asks it for per-frame
// and per-batch outcomes (FrameOutcome, ShuffleBatch, DelayBatch,
// PerturbTime), which draw from a single seeded RNG so an entire chaos
// run replays byte-identically from its seed.
//
// Every injected fault is counted — the chaos test's no-silent-loss
// invariant is that the pipeline's quarantine and drop counters add up
// exactly to the plan's injection counters. A nil *Plan is a valid
// "no faults" plan: every method degrades to a pass-through.
package faults

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
)

// mInjected counts injected faults by kind, so a chaos run's injected
// load shows up next to the pipeline's survival counters. Every kind's
// counter is resolved here, once, so an injection is one atomic add and
// never takes the registry lock.
var mInjected = struct {
	cardReject    *telemetry.Counter
	drop          *telemetry.Counter
	corrupt       *telemetry.Counter
	duplicate     *telemetry.Counter
	reorder       *telemetry.Counter
	delay         *telemetry.Counter
	wireTear      *telemetry.Counter
	wireTruncate  *telemetry.Counter
	wireCorrupt   *telemetry.Counter
	wireDuplicate *telemetry.Counter
	wireReorder   *telemetry.Counter
	wireStall     *telemetry.Counter
}{
	cardReject:    injectedCounter("card_reject"),
	drop:          injectedCounter("drop"),
	corrupt:       injectedCounter("corrupt"),
	duplicate:     injectedCounter("duplicate"),
	reorder:       injectedCounter("reorder"),
	delay:         injectedCounter("delay"),
	wireTear:      injectedCounter("wire_tear"),
	wireTruncate:  injectedCounter("wire_truncate"),
	wireCorrupt:   injectedCounter("wire_corrupt"),
	wireDuplicate: injectedCounter("wire_duplicate"),
	wireReorder:   injectedCounter("wire_reorder"),
	wireStall:     injectedCounter("wire_stall"),
}

func injectedCounter(kind string) *telemetry.Counter {
	return telemetry.Default().Counter(
		"marauder_faults_injected_total",
		"Faults injected into the capture pipeline, by kind.",
		telemetry.Labels{"kind": kind})
}

// CardMode is a monitoring-card failure mode.
type CardMode int

// Card failure modes.
const (
	// CardDead takes the card offline for the fault's active window.
	CardDead CardMode = iota + 1
	// CardFlapping cycles the card down/up with PeriodSec period; it is
	// down for the first DownFraction of each period.
	CardFlapping
	// CardDegraded keeps the card decoding but subtracts PenaltyDB from
	// every frame's SNR (a failing LNA, a loose pigtail).
	CardDegraded
)

// String names the mode for logs and health reports.
func (m CardMode) String() string {
	switch m {
	case CardDead:
		return "dead"
	case CardFlapping:
		return "flapping"
	case CardDegraded:
		return "degraded"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// CardFault schedules one card failure.
type CardFault struct {
	// Channel is the monitoring card's channel (the plan's card identity).
	Channel int
	// Mode is the failure mode.
	Mode CardMode
	// FromSec / ToSec bound the fault's active window in trace seconds;
	// ToSec <= 0 means the fault never ends.
	FromSec, ToSec float64
	// PeriodSec is the flapping cycle length (CardFlapping only).
	PeriodSec float64
	// DownFraction is the fraction of each flapping period spent down;
	// 0 means the default 0.5.
	DownFraction float64
	// PenaltyDB is the SNR loss while degraded (CardDegraded only).
	PenaltyDB float64
}

// activeAt reports whether the fault window covers t.
func (c CardFault) activeAt(t float64) bool {
	return t >= c.FromSec && (c.ToSec <= 0 || t < c.ToSec)
}

// Config specifies a fault plan.
type Config struct {
	// Seed seeds the plan's RNG; identical seeds replay identical faults.
	Seed int64
	// Cards schedules monitoring-card failures.
	Cards []CardFault
	// ClockSkewSec is a constant offset added to every capture timestamp.
	ClockSkewSec float64
	// ClockJitterSec adds uniform ±jitter to every capture timestamp.
	ClockJitterSec float64
	// CorruptProb is the per-frame probability of bit-flip corruption of
	// the encoded frame.
	CorruptProb float64
	// DropProb is the per-frame probability the frame is lost in delivery.
	DropProb float64
	// DupProb is the per-frame probability the frame is delivered twice.
	DupProb float64
	// ReorderProb is the per-batch probability the batch is shuffled.
	ReorderProb float64
	// DelayProb is the per-batch probability the batch is held back and
	// delivered together with the next one.
	DelayProb float64
}

// Counters totals the faults a plan has injected so far.
type Counters struct {
	// Dropped counts frames removed from delivery.
	Dropped uint64 `json:"dropped"`
	// Corrupted counts frames delivered with flipped bits.
	Corrupted uint64 `json:"corrupted"`
	// Duplicated counts frames delivered twice.
	Duplicated uint64 `json:"duplicated"`
	// ReorderedBatches counts shuffled delivery batches.
	ReorderedBatches uint64 `json:"reorderedBatches"`
	// DelayedBatches counts batches held for late delivery.
	DelayedBatches uint64 `json:"delayedBatches"`
	// CardRejects counts frames lost because the only capable card was
	// down or too degraded to decode.
	CardRejects uint64 `json:"cardRejects"`
}

// Plan is an armed fault plan. Safe for concurrent use.
type Plan struct {
	cfg Config

	mu  sync.Mutex
	rng *rand.Rand

	dropped    atomic.Uint64
	corrupted  atomic.Uint64
	duplicated atomic.Uint64
	reordered  atomic.Uint64
	delayed    atomic.Uint64
	cardReject atomic.Uint64
}

// New validates a config and arms the plan.
func New(cfg Config) (*Plan, error) {
	for name, p := range map[string]float64{
		"CorruptProb": cfg.CorruptProb, "DropProb": cfg.DropProb,
		"DupProb": cfg.DupProb, "ReorderProb": cfg.ReorderProb,
		"DelayProb": cfg.DelayProb,
	} {
		if p < 0 || p > 1 || math.IsNaN(p) {
			return nil, fmt.Errorf("faults: %s = %v, want [0, 1]", name, p)
		}
	}
	if sum := cfg.DropProb + cfg.CorruptProb + cfg.DupProb; sum > 1 {
		return nil, fmt.Errorf("faults: DropProb+CorruptProb+DupProb = %v, want <= 1", sum)
	}
	if cfg.ClockJitterSec < 0 {
		return nil, fmt.Errorf("faults: ClockJitterSec = %v, want >= 0", cfg.ClockJitterSec)
	}
	for i, cf := range cfg.Cards {
		switch cf.Mode {
		case CardDead:
		case CardFlapping:
			if cf.PeriodSec <= 0 {
				return nil, fmt.Errorf("faults: card %d: flapping needs PeriodSec > 0", i)
			}
			if cf.DownFraction < 0 || cf.DownFraction >= 1 {
				return nil, fmt.Errorf("faults: card %d: DownFraction = %v, want [0, 1)", i, cf.DownFraction)
			}
		case CardDegraded:
			if cf.PenaltyDB < 0 {
				return nil, fmt.Errorf("faults: card %d: PenaltyDB = %v, want >= 0", i, cf.PenaltyDB)
			}
		default:
			return nil, fmt.Errorf("faults: card %d: unknown mode %d", i, int(cf.Mode))
		}
	}
	return &Plan{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}, nil
}

// Aggressive is the chaos preset: every fault class on at once, hard
// enough that an unprotected pipeline visibly loses data. Channel 1 dies
// outright, channel 6 flaps on a one-minute cycle, channel 11 loses
// 12 dB; timestamps skew and jitter; 5% of frames corrupt, 5% drop, 3%
// duplicate; a third of batches arrive shuffled and a fifth arrive late.
func Aggressive(seed int64) *Plan {
	p, err := New(Config{
		Seed: seed,
		Cards: []CardFault{
			{Channel: 1, Mode: CardDead, FromSec: 30},
			{Channel: 6, Mode: CardFlapping, PeriodSec: 60, DownFraction: 0.5},
			{Channel: 11, Mode: CardDegraded, FromSec: 60, PenaltyDB: 12},
		},
		ClockSkewSec:   0.25,
		ClockJitterSec: 0.05,
		CorruptProb:    0.05,
		DropProb:       0.05,
		DupProb:        0.03,
		ReorderProb:    0.3,
		DelayProb:      0.2,
	})
	if err != nil {
		panic(err) // the preset is a constant; a failure here is a bug
	}
	return p
}

// Enabled reports whether the plan injects anything; a nil plan doesn't.
func (p *Plan) Enabled() bool { return p != nil }

// Config returns the plan's configuration (zero for a nil plan).
func (p *Plan) Config() Config {
	if p == nil {
		return Config{}
	}
	return p.cfg
}

// CardAlive reports whether the card on the given channel can decode at
// all at time t. It is a pure function of (channel, t).
func (p *Plan) CardAlive(channel int, t float64) bool {
	if p == nil {
		return true
	}
	for _, cf := range p.cfg.Cards {
		if cf.Channel != channel || !cf.activeAt(t) {
			continue
		}
		switch cf.Mode {
		case CardDead:
			return false
		case CardFlapping:
			down := cf.DownFraction
			if down == 0 {
				down = 0.5
			}
			phase := math.Mod(t-cf.FromSec, cf.PeriodSec)
			if phase < cf.PeriodSec*down {
				return false
			}
		}
	}
	return true
}

// CardPenaltyDB returns the SNR penalty the card on the given channel
// suffers at time t (0 when healthy). Pure function of (channel, t).
func (p *Plan) CardPenaltyDB(channel int, t float64) float64 {
	if p == nil {
		return 0
	}
	var penalty float64
	for _, cf := range p.cfg.Cards {
		if cf.Channel == channel && cf.Mode == CardDegraded && cf.activeAt(t) {
			penalty += cf.PenaltyDB
		}
	}
	return penalty
}

// RecordCardReject counts one frame lost to a down/degraded card — called
// by the sniffer when the only card that could have decoded a frame was
// faulted at the time.
func (p *Plan) RecordCardReject() {
	if p == nil {
		return
	}
	p.cardReject.Add(1)
	mInjected.cardReject.Inc()
}

// Outcome is a per-frame delivery decision.
type Outcome int

// Per-frame outcomes.
const (
	// Pass delivers the frame untouched.
	Pass Outcome = iota
	// Drop loses the frame.
	Drop
	// Corrupt delivers the frame with flipped bits.
	Corrupt
	// Duplicate delivers the frame twice.
	Duplicate
)

// FrameOutcome draws the delivery outcome for one frame.
func (p *Plan) FrameOutcome() Outcome {
	if p == nil {
		return Pass
	}
	p.mu.Lock()
	u := p.rng.Float64()
	p.mu.Unlock()
	switch {
	case u < p.cfg.DropProb:
		p.dropped.Add(1)
		mInjected.drop.Inc()
		return Drop
	case u < p.cfg.DropProb+p.cfg.CorruptProb:
		p.corrupted.Add(1)
		mInjected.corrupt.Inc()
		return Corrupt
	case u < p.cfg.DropProb+p.cfg.CorruptProb+p.cfg.DupProb:
		p.duplicated.Add(1)
		mInjected.duplicate.Inc()
		return Duplicate
	}
	return Pass
}

// CorruptBytes flips 1–3 random bits of raw in place and returns it —
// the encoded-frame corruption model. Any flip breaks the 802.11 FCS, so
// the decoder downstream rejects the frame instead of mis-parsing it.
func (p *Plan) CorruptBytes(raw []byte) []byte {
	if p == nil || len(raw) == 0 {
		return raw
	}
	p.mu.Lock()
	flips := 1 + p.rng.Intn(3)
	for i := 0; i < flips; i++ {
		bit := p.rng.Intn(len(raw) * 8)
		raw[bit/8] ^= 1 << (bit % 8)
	}
	p.mu.Unlock()
	return raw
}

// PerturbTime applies the plan's clock skew and jitter to a capture
// timestamp.
func (p *Plan) PerturbTime(t float64) float64 {
	if p == nil {
		return t
	}
	t += p.cfg.ClockSkewSec
	if p.cfg.ClockJitterSec > 0 {
		p.mu.Lock()
		t += p.cfg.ClockJitterSec * (2*p.rng.Float64() - 1)
		p.mu.Unlock()
	}
	return t
}

// ShuffleBatch decides whether a delivery batch is reordered and, if so,
// returns the permutation to apply.
func (p *Plan) ShuffleBatch(n int) ([]int, bool) {
	if p == nil || n < 2 {
		return nil, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.rng.Float64() >= p.cfg.ReorderProb {
		return nil, false
	}
	p.reordered.Add(1)
	mInjected.reorder.Inc()
	return p.rng.Perm(n), true
}

// DelayBatch decides whether a delivery batch is held back and delivered
// with the next one.
func (p *Plan) DelayBatch() bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	delayed := p.rng.Float64() < p.cfg.DelayProb
	p.mu.Unlock()
	if delayed {
		p.delayed.Add(1)
		mInjected.delay.Inc()
	}
	return delayed
}

// Counters returns the plan's injection totals so far (zero for nil).
func (p *Plan) Counters() Counters {
	if p == nil {
		return Counters{}
	}
	return Counters{
		Dropped:          p.dropped.Load(),
		Corrupted:        p.corrupted.Load(),
		Duplicated:       p.duplicated.Load(),
		ReorderedBatches: p.reordered.Load(),
		DelayedBatches:   p.delayed.Load(),
		CardRejects:      p.cardReject.Load(),
	}
}
