package ops

import (
	"time"

	"repro/internal/telemetry"
)

// Ledger is the pipeline's time by layer over one interval of the
// registry sampler: the process's own answer to "which layer is slow
// right now?". It reads the stage histograms the layers already keep, so
// it costs no clock read of its own.
type Ledger struct {
	// IntervalSec is the wall time the ledger covers.
	IntervalSec float64 `json:"intervalSec"`
	// Layers holds one row per layer, in ledgerLayers order.
	Layers []LedgerRow `json:"layers"`
}

// LedgerRow is one layer's cost over a ledger's interval. Items are
// fixes for a fix-path stage and calls for every other layer.
type LedgerRow struct {
	Layer          string  `json:"layer"`
	Items          uint64  `json:"items"`
	Seconds        float64 `json:"seconds"`
	SecondsPerItem float64 `json:"secondsPerItem"`
	ItemsPerSec    float64 `json:"itemsPerSec"`
	// Share is the layer's part of the seconds summed over all layers.
	Share float64 `json:"share"`
}

// ledgerLayers names each layer's histogram. sampled marks the fix-path
// stages, which are timed on 1 fix in 16 plus every traced fix.
var ledgerLayers = []struct {
	layer, name, labels string
	sampled             bool
}{
	{"window_assembly", "marauder_stage_seconds", `stage="window_assembly"`, true},
	{"localize", "marauder_stage_seconds", `stage="localize"`, true},
	{"trace_record", "marauder_stage_seconds", `stage="trace_record"`, true},
	{"store_scan", "marauder_stage_seconds", `stage="store_scan"`, false},
	{"ingest", "marauder_stage_seconds", `stage="ingest"`, false},
	{"publish", "marauder_stage_seconds", `stage="publish"`, false},
	{"knowledge_refresh", "marauder_engine_knowledge_refresh_seconds", "", false},
}

// NewLedger derives the ledger of the interval between two registry
// snapshots; a nil prev is the process's start. A sampled stage's row
// takes its mean from the histogram (Δsum/Δcount) and its item count
// from marauder_engine_fixes_total, so its total is right at any trace
// rate; a fix-path row whose interval timed no fix reports zero seconds.
// Every other layer is timed on every call and reports Δsum over Δcount.
func NewLedger(prev, cur []telemetry.Sample, interval time.Duration) Ledger {
	const fixes = "marauder_engine_fixes_total"
	nFixes := find(cur, fixes, "").Counter - find(prev, fixes, "").Counter
	l := Ledger{IntervalSec: interval.Seconds(), Layers: make([]LedgerRow, len(ledgerLayers))}
	var total float64
	for i, ly := range ledgerLayers {
		c, p := find(cur, ly.name, ly.labels), find(prev, ly.name, ly.labels)
		r := LedgerRow{Layer: ly.layer, Items: c.Count - p.Count, Seconds: c.Sum - p.Sum}
		if ly.sampled {
			if r.Items > 0 {
				r.Seconds *= float64(nFixes) / float64(r.Items)
			}
			r.Items = nFixes
		}
		if r.Items > 0 {
			r.SecondsPerItem = r.Seconds / float64(r.Items)
		}
		if l.IntervalSec > 0 {
			r.ItemsPerSec = float64(r.Items) / l.IntervalSec
		}
		total += r.Seconds
		l.Layers[i] = r
	}
	if total > 0 {
		for i := range l.Layers {
			l.Layers[i].Share = l.Layers[i].Seconds / total
		}
	}
	return l
}

// Hottest returns the layer with the largest share; false when no layer
// spent any time.
func (l Ledger) Hottest() (LedgerRow, bool) {
	var hot LedgerRow
	for _, r := range l.Layers {
		if r.Share > hot.Share {
			hot = r
		}
	}
	return hot, hot.Share > 0
}

// find returns the sample of the named series in snap, zero when absent.
func find(snap []telemetry.Sample, name, labels string) telemetry.Sample {
	for _, s := range snap {
		if s.Name == name && s.Labels == labels {
			return s
		}
	}
	return telemetry.Sample{}
}
