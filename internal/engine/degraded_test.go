package engine

import (
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dot11"
	"repro/internal/geom"
	"repro/internal/sim"
	"repro/internal/sniffer"
)

// flakyTrainer trains successfully only when failLeft has run out; every
// call decrements it. It localizes like a fixed-point stub.
type flakyTrainer struct {
	failLeft *int
	calls    *int
}

func (f flakyTrainer) Name() string { return "flaky" }

func (f flakyTrainer) Locate(k core.Knowledge, gamma []dot11.MAC) (core.Estimate, error) {
	if k.Len() == 0 {
		return core.Estimate{}, core.ErrNoAPs
	}
	return core.Estimate{Pos: geom.Pt(1, 2), K: len(gamma), Method: "flaky"}, nil
}

func (f flakyTrainer) Train(base core.Knowledge, sets map[dot11.MAC][]dot11.MAC) (core.Knowledge, error) {
	*f.calls++
	if *f.failLeft > 0 {
		*f.failLeft--
		return core.Knowledge{}, errors.New("LP infeasible")
	}
	infos := base.All()
	for i := range infos {
		infos[i].MaxRange = 100
	}
	return core.NewKnowledge(infos), nil
}

func trainBase() core.Knowledge {
	ap := dot11.MAC{2, 0xA9, 0, 0, 0, 1}
	return core.NewKnowledge([]core.APInfo{{BSSID: ap, Pos: geom.Pt(0, 0)}})
}

func TestRefreshRetriesThenSucceeds(t *testing.T) {
	fails, calls := refreshAttempts-1, 0
	eng, err := New(Config{
		Know: trainBase(), WindowSec: 10,
		Localizer: flakyTrainer{failLeft: &fails, calls: &calls},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RefreshKnowledge(); err != nil {
		t.Fatalf("refresh should succeed on the last attempt: %v", err)
	}
	if calls != refreshAttempts {
		t.Errorf("training ran %d times, want %d", calls, refreshAttempts)
	}
	h := eng.Health()
	if !h.Healthy || h.RefreshRetries != refreshAttempts-1 || h.ConsecutiveRefreshFailures != 0 || !h.TrainedOnce {
		t.Errorf("health after recovered refresh = %+v", h)
	}
}

func TestRefreshColdStartFailurePropagates(t *testing.T) {
	fails, calls := 100, 0
	eng, err := New(Config{
		Know: trainBase(), WindowSec: 10,
		Localizer: flakyTrainer{failLeft: &fails, calls: &calls},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RefreshKnowledge(); err == nil {
		t.Fatal("cold-start refresh with no last-known-good must error")
	}
	if calls != refreshAttempts {
		t.Errorf("training ran %d times, want %d (refreshAttempts)", calls, refreshAttempts)
	}
	h := eng.Health()
	if h.Healthy || h.ConsecutiveRefreshFailures != 1 || h.TrainedOnce {
		t.Errorf("health after cold-start failure = %+v", h)
	}
}

func TestRefreshFallsBackToLastKnownGood(t *testing.T) {
	fails, calls := 0, 0
	eng, err := New(Config{
		Know: trainBase(), WindowSec: 10,
		Localizer: flakyTrainer{failLeft: &fails, calls: &calls},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RefreshKnowledge(); err != nil {
		t.Fatal(err)
	}
	goodGen := eng.Stats().KnowledgeGen
	goodKnow := eng.Knowledge()

	// Training breaks permanently; the refresh degrades instead of erroring.
	fails = 1 << 30
	if err := eng.RefreshKnowledge(); err != nil {
		t.Fatalf("refresh after a prior success must degrade, not error: %v", err)
	}
	h := eng.Health()
	if h.Healthy || h.RefreshFallbacks != 1 || h.ConsecutiveRefreshFailures != 1 {
		t.Errorf("health after fallback = %+v", h)
	}
	if eng.Stats().KnowledgeGen != goodGen {
		t.Error("fallback must not swap the knowledge generation")
	}
	if k := eng.Knowledge(); k.Len() != goodKnow.Len() {
		t.Error("fallback lost the last-known-good knowledge")
	}
	// Fixes keep working against the stale knowledge: degraded, not dead.
	st := eng.Store()
	dev := sim.NewMAC(0xDD, 1)
	ap := dot11.MAC{2, 0xA9, 0, 0, 0, 1}
	st.Ingest(5, probeResp(dev, ap), true)
	if _, err := eng.Fix(dev, 5); err != nil {
		t.Fatalf("fix during degraded mode: %v", err)
	}

	// Training heals: health recovers on the next refresh.
	fails = 0
	if err := eng.RefreshKnowledge(); err != nil {
		t.Fatal(err)
	}
	if h := eng.Health(); !h.Healthy || h.ConsecutiveRefreshFailures != 0 {
		t.Errorf("health after recovery = %+v", h)
	}
}

func TestRefreshBackoffSleeps(t *testing.T) {
	fails, calls := refreshAttempts-1, 0
	eng, err := New(Config{
		Know: trainBase(), WindowSec: 10,
		Localizer: flakyTrainer{failLeft: &fails, calls: &calls},
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := eng.RefreshKnowledge(); err != nil {
		t.Fatal(err)
	}
	// Retry i (from 1) sleeps refreshBackoff·2^(i-1): 25ms + 50ms.
	var want time.Duration
	for i := 1; i < refreshAttempts; i++ {
		want += refreshBackoff << (i - 1)
	}
	if elapsed := time.Since(start); elapsed < want {
		t.Errorf("elapsed %v, want >= %v of exponential backoff", elapsed, want)
	}
}

func probeResp(dev, ap dot11.MAC) *dot11.Frame {
	return &dot11.Frame{
		Type:    dot11.TypeManagement,
		Subtype: dot11.SubtypeProbeResp,
		Addr1:   dev,
		Addr2:   ap,
		Addr3:   ap,
	}
}

func TestIngestQuarantinesCorruptCaptures(t *testing.T) {
	eng, err := New(Config{Know: trainBase(), WindowSec: 10})
	if err != nil {
		t.Fatal(err)
	}
	dev := sim.NewMAC(0xDD, 7)
	ap := dot11.MAC{2, 0xA9, 0, 0, 0, 1}
	good := probeResp(dev, ap)
	raw, err := good.Encode()
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), raw...)
	corrupt[3] ^= 0x10 // breaks the FCS

	caps := []sniffer.Capture{
		{TimeSec: 1, Frame: good},
		{TimeSec: 2, Raw: corrupt, CardChannel: 6}, // undecodable
		{TimeSec: 3}, // neither frame nor raw
		{TimeSec: 4, Raw: append([]byte(nil), raw...)}, // clean raw: decodes and ingests
	}
	n := eng.IngestCaptures(caps)
	if n != 2 {
		t.Fatalf("ingested %d, want 2 (good frame + re-decoded raw)", n)
	}
	q := eng.Quarantine()
	if q.Total != 2 {
		t.Fatalf("quarantined %d, want 2", q.Total)
	}
	if q.ByReason[ReasonUndecodable] != 1 || q.ByReason[ReasonMissingFrame] != 1 {
		t.Fatalf("quarantine by reason = %v", q.ByReason)
	}
	if len(q.Recent) != 2 {
		t.Fatalf("recent samples = %d, want 2", len(q.Recent))
	}
	if q.Recent[0].Reason != ReasonUndecodable || q.Recent[0].CardChannel != 6 || q.Recent[0].RawLen != len(corrupt) {
		t.Errorf("first sample = %+v", q.Recent[0])
	}
	if eng.Stats().Quarantined != 2 {
		t.Errorf("Stats.Quarantined = %d, want 2", eng.Stats().Quarantined)
	}
	// The two clean records actually landed.
	if eng.Store().Len() != 2 {
		t.Errorf("store holds %d records, want 2", eng.Store().Len())
	}
}

// TestQuarantinePathZeroAllocs guards the pre-resolved per-reason
// counters: once the sample ring is full, quarantining a capture takes no
// registry lookup and allocates nothing.
func TestQuarantinePathZeroAllocs(t *testing.T) {
	eng, err := New(Config{Know: trainBase(), WindowSec: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < quarantineKeep; i++ {
		eng.quarantine(QuarantinedCapture{Reason: ReasonMissingFrame})
	}
	undecodable := mQuarantined[ReasonUndecodable].Value()
	for _, reason := range []string{ReasonUndecodable, ReasonMissingFrame} {
		c := QuarantinedCapture{TimeSec: 1, Reason: reason, RawLen: 3}
		if avg := testing.AllocsPerRun(100, func() { eng.quarantine(c) }); avg != 0 {
			t.Fatalf("quarantining a %s capture allocates %.2f times, want 0", reason, avg)
		}
	}
	if got := mQuarantined[ReasonUndecodable].Value() - undecodable; got != 101 {
		t.Fatalf("undecodable counter advanced %d, want 101", got)
	}
}

func TestQuarantineRingBounded(t *testing.T) {
	eng, err := New(Config{Know: trainBase(), WindowSec: 10})
	if err != nil {
		t.Fatal(err)
	}
	caps := make([]sniffer.Capture, quarantineKeep+50)
	for i := range caps {
		caps[i] = sniffer.Capture{TimeSec: float64(i)} // missing-frame
	}
	eng.IngestCaptures(caps)
	q := eng.Quarantine()
	if q.Total != uint64(len(caps)) {
		t.Fatalf("total %d, want %d — the cap must not lose the count", q.Total, len(caps))
	}
	if len(q.Recent) != quarantineKeep {
		t.Fatalf("retained %d samples, want %d", len(q.Recent), quarantineKeep)
	}
	// Oldest-first rotation: first retained sample is capture 50.
	if q.Recent[0].TimeSec != 50 {
		t.Errorf("oldest retained sample t=%v, want 50", q.Recent[0].TimeSec)
	}
}
