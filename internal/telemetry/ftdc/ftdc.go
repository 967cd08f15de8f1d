// Package ftdc is the pipeline's flight recorder: full-time diagnostic
// data capture in the spirit of MongoDB's FTDC and viam-rdk's ftdc/ — a
// recorder that appends every metric of a telemetry registry snapshot,
// Go runtime series included, to a compact, chunked, delta-encoded,
// CRC-checksummed binary file. The caller's fixed-interval sampler
// (internal/ops) hands it one snapshot per tick. A long soak or chaos run leaves behind a
// complete per-second history of the process that can be decoded offline
// (cmd/ftdcdump) long after the Prometheus endpoint is gone — post-mortem
// analysis as a first-class artifact instead of scraped text.
//
// # On-disk format
//
// A file is a sequence of self-contained chunks. Each chunk is:
//
//	magic   "FTDC" (4 bytes) + version (1 byte, currently 1)
//	schema  uvarint column count, then per column:
//	        uvarint name length, name bytes, kind byte
//	samples uvarint sample count, then row-major varint payload
//	crc     IEEE CRC-32 of everything above, 4 bytes little-endian
//
// Every cell is carried as a uint64 (Column.Kind says whether those bits
// are a raw integer or math.Float64bits of a float64). The payload
// delta-encodes down columns: row 0 stores zigzag(value), row i stores
// zigzag(value_i − value_{i−1}), each as an unsigned varint. Counters
// and cumulative bucket counts — the bulk of the columns — change by
// small amounts per interval, so almost every cell is one or two bytes.
// Deltas are computed in uint64 arithmetic (wrapping), so the round trip
// is exact for every possible bit pattern, floats included.
//
// Because each chunk carries its own schema, columns may appear or
// disappear mid-file (new labeled series registering, a restart with
// different flags): the writer just seals the current chunk and opens
// one with the new schema. A truncated final chunk — the expected shape
// of a crash — costs only that chunk; every sealed chunk before it
// decodes normally, and the CRC distinguishes truncation from
// corruption.
package ftdc

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Chunk magic and current format version.
var magic = [4]byte{'F', 'T', 'D', 'C'}

const version = 1

// Kind says how a column's uint64 cells are to be interpreted.
type Kind uint8

const (
	// KindUint cells are plain integers: counters, cumulative histogram
	// bucket counts, timestamps.
	KindUint Kind = iota
	// KindFloatBits cells are math.Float64bits of a float64: gauges and
	// histogram sums.
	KindFloatBits
)

// String names the kind for dumps and errors.
func (k Kind) String() string {
	switch k {
	case KindUint:
		return "uint"
	case KindFloatBits:
		return "float"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// TimeColumn is the conventional name of the sample-timestamp column the
// recorder writes first in every schema: Unix nanoseconds, KindUint.
// The codec does not treat it specially; decoders find it by name.
const TimeColumn = "time_unix_nano"

// Column is one series in a chunk's schema.
type Column struct {
	Name string
	Kind Kind
}

// Chunk is a decoded chunk: a schema and the samples recorded under it.
// Samples[i][j] is the raw uint64 cell of column j in sample i.
type Chunk struct {
	Columns []Column
	Samples [][]uint64
}

// Float returns sample i, column j decoded per the column kind.
func (c *Chunk) Float(i, j int) float64 {
	v := c.Samples[i][j]
	if c.Columns[j].Kind == KindFloatBits {
		return math.Float64frombits(v)
	}
	return float64(v)
}

// Format sanity caps: a hostile or corrupted stream must not allocate
// unboundedly before the CRC check can reject it.
const (
	maxColumns    = 1 << 16
	maxNameLen    = 1 << 12
	maxSamples    = 1 << 24
	maxSampleCap  = 1 << 12 // initial slice capacity clamp
	maxColumnCap  = 1 << 10
	versionLatest = version
)

// zigzag maps signed deltas to unsigned varint-friendly values:
// 0,-1,1,-2,2… → 0,1,2,3,4…
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendChunk encodes one chunk (schema + samples) including magic,
// version and trailing CRC, appending to dst.
func appendChunk(dst []byte, cols []Column, samples [][]uint64) []byte {
	start := len(dst)
	dst = append(dst, magic[:]...)
	dst = append(dst, version)
	dst = binary.AppendUvarint(dst, uint64(len(cols)))
	for _, c := range cols {
		dst = binary.AppendUvarint(dst, uint64(len(c.Name)))
		dst = append(dst, c.Name...)
		dst = append(dst, byte(c.Kind))
	}
	dst = binary.AppendUvarint(dst, uint64(len(samples)))
	prev := make([]uint64, len(cols))
	for _, row := range samples {
		for j, v := range row {
			// Wrapping uint64 subtraction: decode adds the delta back and
			// lands on the exact original bits for any value pair.
			dst = binary.AppendUvarint(dst, zigzag(int64(v-prev[j])))
			prev[j] = v
		}
	}
	sum := crc32.ChecksumIEEE(dst[start:])
	return binary.LittleEndian.AppendUint32(dst, sum)
}

// Writer accumulates samples and writes sealed chunks to an io.Writer.
// It is not safe for concurrent use; the Recorder serializes access.
type Writer struct {
	w          io.Writer
	maxSamples int

	cols    []Column
	samples [][]uint64
	buf     []byte

	chunksOut  uint64
	samplesOut uint64
	bytesOut   uint64
}

// NewWriter creates a Writer sealing chunks every maxSamplesPerChunk
// samples (≤ 0 means the default 120 — two minutes at the recorder's
// default 1 s interval).
func NewWriter(w io.Writer, maxSamplesPerChunk int) *Writer {
	if maxSamplesPerChunk <= 0 {
		maxSamplesPerChunk = 120
	}
	return &Writer{w: w, maxSamples: maxSamplesPerChunk}
}

// sameSchema reports whether the pending chunk's schema matches cols.
func (w *Writer) sameSchema(cols []Column) bool {
	if len(w.cols) != len(cols) {
		return false
	}
	for i := range cols {
		if w.cols[i] != cols[i] {
			return false
		}
	}
	return true
}

// Append adds one sample under the given schema, sealing the pending
// chunk first when the schema changed (columns appeared or disappeared)
// or the chunk is full. cols and vals must be parallel; both are copied.
func (w *Writer) Append(cols []Column, vals []uint64) error {
	if len(cols) != len(vals) {
		return fmt.Errorf("ftdc: %d columns but %d values", len(cols), len(vals))
	}
	if len(w.samples) > 0 && !w.sameSchema(cols) {
		if err := w.Flush(); err != nil {
			return err
		}
	}
	if len(w.samples) == 0 {
		w.cols = append(w.cols[:0], cols...)
	}
	w.samples = append(w.samples, append([]uint64(nil), vals...))
	if len(w.samples) >= w.maxSamples {
		return w.Flush()
	}
	return nil
}

// Flush seals and writes the pending chunk, if any. A crash between
// flushes loses at most the unsealed samples.
func (w *Writer) Flush() error {
	if len(w.samples) == 0 {
		return nil
	}
	w.buf = appendChunk(w.buf[:0], w.cols, w.samples)
	n, err := w.w.Write(w.buf)
	w.bytesOut += uint64(n)
	if err != nil {
		return fmt.Errorf("ftdc: write chunk: %w", err)
	}
	w.chunksOut++
	w.samplesOut += uint64(len(w.samples))
	w.samples = w.samples[:0]
	return nil
}

// Counts reports sealed chunks, samples inside them, and bytes written.
func (w *Writer) Counts() (chunks, samples, bytes uint64) {
	return w.chunksOut, w.samplesOut, w.bytesOut
}

// Pending reports how many appended samples are not yet sealed into a
// chunk.
func (w *Writer) Pending() int { return len(w.samples) }
