package engine

import (
	"sync"
)

// quarantineKeep bounds the retained sample of quarantined captures; the
// totals keep counting past it, so nothing is lost from the accounting
// even when the samples rotate.
const quarantineKeep = 256

// Quarantine reasons.
const (
	// ReasonUndecodable marks captures whose raw bytes fail frame
	// decoding — bit-flip corruption, truncation, a broken FCS.
	ReasonUndecodable = "undecodable"
	// ReasonMissingFrame marks captures that arrived with neither a
	// decoded frame nor raw bytes to attempt decoding.
	ReasonMissingFrame = "missing-frame"
)

// QuarantinedCapture is one rejected capture's accounting record.
type QuarantinedCapture struct {
	// TimeSec is the capture's (possibly fault-perturbed) timestamp.
	TimeSec float64 `json:"timeSec"`
	// Reason says why the capture was rejected.
	Reason string `json:"reason"`
	// RawLen is the length of the undecodable bytes (0 when none).
	RawLen int `json:"rawLen"`
	// CardChannel is the monitoring card that produced the capture.
	CardChannel int `json:"cardChannel"`
}

// QuarantineStats summarizes the engine's reject queue.
type QuarantineStats struct {
	// Total counts every quarantined capture since construction.
	Total uint64 `json:"total"`
	// ByReason splits the total by rejection reason.
	ByReason map[string]uint64 `json:"byReason,omitempty"`
	// Recent holds the newest retained samples, oldest first, capped at
	// quarantineKeep.
	Recent []QuarantinedCapture `json:"recent,omitempty"`
}

// quarantine is the engine's bounded reject queue: corrupt or undecodable
// captures land here, counted per reason, instead of erroring the ingest
// path or silently vanishing.
type quarantine struct {
	mu       sync.Mutex
	total    uint64
	byReason map[string]uint64
	recent   []QuarantinedCapture // ring, oldest at head once full
	next     int                  // ring write cursor
}

// quarantine diverts one rejected capture to the reject queue and counts
// it under its reason's pre-resolved metric handle.
func (e *Engine) quarantine(c QuarantinedCapture) {
	e.rejects.add(c)
	mQuarantined[c.Reason].Inc()
}

// add records one rejected capture.
func (q *quarantine) add(c QuarantinedCapture) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.total++
	if q.byReason == nil {
		q.byReason = make(map[string]uint64)
	}
	q.byReason[c.Reason]++
	if len(q.recent) < quarantineKeep {
		q.recent = append(q.recent, c)
	} else {
		q.recent[q.next] = c
		q.next = (q.next + 1) % quarantineKeep
	}
}

// stats snapshots the queue.
func (q *quarantine) stats() QuarantineStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	st := QuarantineStats{Total: q.total}
	if len(q.byReason) > 0 {
		st.ByReason = make(map[string]uint64, len(q.byReason))
		for k, v := range q.byReason {
			st.ByReason[k] = v
		}
	}
	if len(q.recent) > 0 {
		st.Recent = make([]QuarantinedCapture, 0, len(q.recent))
		st.Recent = append(st.Recent, q.recent[q.next:]...)
		st.Recent = append(st.Recent, q.recent[:q.next]...)
	}
	return st
}

// Health is the engine's degraded-vs-healthy self-report, the engine's
// contribution to the map server's /api/health endpoint.
type Health struct {
	// Healthy is false while the engine is in a degraded mode.
	Healthy bool `json:"healthy"`
	// Reasons names each active degradation.
	Reasons []string `json:"reasons,omitempty"`
	// Quarantined counts captures in the reject queue.
	Quarantined uint64 `json:"quarantined"`
	// RefreshRetries counts re-training attempts beyond the first.
	RefreshRetries uint64 `json:"refreshRetries"`
	// RefreshFallbacks counts RefreshKnowledge calls that kept the
	// last-known-good knowledge after exhausting retries.
	RefreshFallbacks uint64 `json:"refreshFallbacks"`
	// ConsecutiveRefreshFailures counts RefreshKnowledge calls that have
	// failed (after retries) since the last success.
	ConsecutiveRefreshFailures uint64 `json:"consecutiveRefreshFailures"`
	// KnowledgeGen is the active knowledge generation.
	KnowledgeGen uint64 `json:"knowledgeGen"`
	// TrainedOnce reports whether a trained algorithm has ever produced
	// working knowledge (meaningless but true for untrained algorithms).
	TrainedOnce bool `json:"trainedOnce"`
	// Sources maps each capture source that has ever delivered to its
	// delivery liveness; a Stale entry degrades Healthy.
	Sources map[string]SourceHealth `json:"sources,omitempty"`
}
