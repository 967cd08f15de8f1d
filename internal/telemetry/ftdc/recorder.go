package ftdc

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Config assembles a Recorder.
type Config struct {
	// Dir is the directory FTDC files are written into; created if
	// missing. Required.
	Dir string
	// Interval is the caller's sampling period, reported in Status; 0
	// means 1 s.
	Interval time.Duration
	// ChunkSamples caps samples per chunk; 0 means the Writer default.
	ChunkSamples int
}

// Status is the recorder's self-report, shaped for /api/health detail.
type Status struct {
	// Enabled is false for a nil recorder — the "flag not set" report.
	Enabled bool `json:"enabled"`
	// Path is the FTDC file being written.
	Path string `json:"path,omitempty"`
	// Interval is the sampling period in seconds.
	IntervalSec float64 `json:"intervalSec,omitempty"`
	// Samples, Chunks and Bytes count what has been durably sealed, plus
	// PendingSamples still buffered in the open chunk.
	Samples        uint64 `json:"samples"`
	PendingSamples int    `json:"pendingSamples"`
	Chunks         uint64 `json:"chunks"`
	Bytes          uint64 `json:"bytes"`
	// Columns is the width of the last sample taken.
	Columns int `json:"columns,omitempty"`
	// LastErr is the most recent sample/flush error, "" when healthy.
	LastErr string `json:"lastErr,omitempty"`
}

// Recorder appends registry snapshots to an FTDC file, one row per
// Append; the caller owns the sampling clock. All methods are safe for
// concurrent use, and all methods are nil-safe: a nil *Recorder is the
// recorder-disabled state, costing the caller one nil check.
type Recorder struct {
	cfg  Config
	path string

	mu      sync.Mutex
	f       *os.File
	w       *Writer
	cols    []Column
	vals    []uint64
	lastErr error
	closed  bool
}

// New opens the FTDC output file, ftdc-<start-unix-nano>.ftdc in Dir.
// Nothing is recorded until Append.
func New(cfg Config) (*Recorder, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("ftdc: Config.Dir is required")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("ftdc: %w", err)
	}
	path := filepath.Join(cfg.Dir, fmt.Sprintf("ftdc-%d.ftdc", time.Now().UnixNano()))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ftdc: %w", err)
	}
	return &Recorder{
		cfg:  cfg,
		path: path,
		f:    f,
		w:    NewWriter(f, cfg.ChunkSamples),
	}, nil
}

// Path returns the FTDC file path ("" on a nil recorder).
func (r *Recorder) Path() string {
	if r == nil {
		return ""
	}
	return r.path
}

// Append records snap, a registry snapshot taken at now, as one row.
// Returns the write error, which is also retained for Status.
func (r *Recorder) Append(now time.Time, snap []telemetry.Sample) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return fmt.Errorf("ftdc: recorder closed")
	}
	r.cols, r.vals = appendSnapshotRow(r.cols[:0], r.vals[:0], now, snap)
	err := r.w.Append(r.cols, r.vals)
	r.lastErr = err
	return err
}

// appendSnapshotRow flattens a registry snapshot into parallel
// column/value slices: the timestamp first, then one column per counter
// and gauge, and count/sum/cumulative-bucket columns per histogram. The
// snapshot is (name, labels)-sorted, so identical registry contents
// always produce the identical schema — schema changes happen exactly
// when series appear or disappear.
func appendSnapshotRow(cols []Column, vals []uint64, now time.Time, snap []telemetry.Sample) ([]Column, []uint64) {
	cols = append(cols, Column{Name: TimeColumn, Kind: KindUint})
	vals = append(vals, uint64(now.UnixNano()))
	for _, s := range snap {
		series := s.Series()
		switch s.Kind {
		case telemetry.KindCounter:
			cols = append(cols, Column{Name: series, Kind: KindUint})
			vals = append(vals, s.Counter)
		case telemetry.KindGauge:
			cols = append(cols, Column{Name: series, Kind: KindFloatBits})
			vals = append(vals, math.Float64bits(s.Gauge))
		case telemetry.KindHistogram:
			cols = append(cols, Column{Name: series + "_count", Kind: KindUint})
			vals = append(vals, s.Count)
			cols = append(cols, Column{Name: series + "_sum", Kind: KindFloatBits})
			vals = append(vals, math.Float64bits(s.Sum))
			for i, bound := range s.Bounds {
				cols = append(cols, Column{
					Name: bucketColumn(s.Name, s.Labels, formatBound(bound)),
					Kind: KindUint,
				})
				vals = append(vals, s.Cumulative[i])
			}
			cols = append(cols, Column{Name: bucketColumn(s.Name, s.Labels, "+Inf"), Kind: KindUint})
			vals = append(vals, s.Cumulative[len(s.Cumulative)-1])
		}
	}
	return cols, vals
}

// bucketColumn renders `name_bucket{labels,le="bound"}` matching the
// Prometheus text series identity for the same data.
func bucketColumn(name, labels, bound string) string {
	le := `le="` + bound + `"`
	if labels == "" {
		return name + "_bucket{" + le + "}"
	}
	return name + "_bucket{" + labels + "," + le + "}"
}

// formatBound renders a bucket bound the way the text exposition does.
func formatBound(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return fmt.Sprintf("%g", v)
}

// Close seals the pending chunk and closes the file. Idempotent.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	ferr := r.w.Flush()
	cerr := r.f.Close()
	if ferr != nil {
		r.lastErr = ferr
		return ferr
	}
	if cerr != nil {
		r.lastErr = cerr
	}
	return cerr
}

// Status reports the recorder's progress; on a nil recorder it reports
// Enabled: false, which is what /api/health shows when the flag is off.
func (r *Recorder) Status() Status {
	if r == nil {
		return Status{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	chunks, samples, bytes := r.w.Counts()
	st := Status{
		Enabled:        true,
		Path:           r.path,
		IntervalSec:    r.cfg.Interval.Seconds(),
		Samples:        samples,
		PendingSamples: r.w.Pending(),
		Chunks:         chunks,
		Bytes:          bytes,
		Columns:        len(r.cols),
	}
	if r.lastErr != nil {
		st.LastErr = r.lastErr.Error()
	}
	return st
}
