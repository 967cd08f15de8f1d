// Command ftdcdump decodes the flight-recorder files the pipeline writes
// (internal/telemetry/ftdc): chunked, delta-encoded, CRC-checksummed
// binary captures of every telemetry metric plus Go runtime stats, taken
// on a fixed interval. It is the post-mortem half of the recorder: a
// serving or chaos run leaves a .ftdc file behind, and ftdcdump turns it
// back into numbers long after the process and its /metrics endpoint are
// gone.
//
// Usage:
//
//	ftdcdump [-format summary|json|csv] [-match REGEX] [-check]
//	         [-since TIME] [-until TIME] file.ftdc...
//
// Formats:
//
//	summary  per-column statistics: samples, min, max, p50, p99, first,
//	         last, and — for monotonic columns like counters — the rate
//	         per second over the recorded span (the default)
//	json     one JSON object per sample on stdout, keyed by column name
//	csv      one CSV table over the union of all chunk schemas; cells of
//	         columns absent from a sample's chunk are empty
//
// -match keeps only columns whose name matches the regular expression
// (the timestamp column is always kept). -since and -until cut the
// recording down to a time range — samples at or after -since and
// strictly before -until survive; either bound may be an RFC3339 stamp
// (2026-08-08T12:00:00Z, fractional seconds accepted) or unix seconds
// (1786500000, fractions accepted) — the shape a marauder log or an
// /api/health report hands you. -check additionally asserts the
// recording is sane — decodable, at least one sample, strictly monotonic
// timestamps — and exits non-zero otherwise; scripts/profile_smoke.sh
// gates on it. A crash-truncated final chunk is reported on stderr but is
// not an error: every sealed chunk before it still decodes.
package main

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"time"

	"repro/internal/telemetry/ftdc"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "ftdcdump: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ftdcdump", flag.ContinueOnError)
	format := fs.String("format", "summary", "output format: summary, json or csv")
	match := fs.String("match", "", "keep only columns matching this regexp (timestamp always kept)")
	check := fs.Bool("check", false, "assert the recording is sane: non-empty, strictly monotonic timestamps")
	sinceFlag := fs.String("since", "", "drop samples before this time (RFC3339 or unix seconds)")
	untilFlag := fs.String("until", "", "drop samples at or after this time (RFC3339 or unix seconds)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return errors.New("no input files (usage: ftdcdump [-format summary|json|csv] [-match REGEX] [-check] [-since TIME] [-until TIME] file.ftdc...)")
	}
	var matcher *regexp.Regexp
	if *match != "" {
		var err error
		if matcher, err = regexp.Compile(*match); err != nil {
			return fmt.Errorf("bad -match: %w", err)
		}
	}
	since, err := parseTimeFlag(*sinceFlag, 0)
	if err != nil {
		return fmt.Errorf("bad -since: %w", err)
	}
	until, err := parseTimeFlag(*untilFlag, math.MaxUint64)
	if err != nil {
		return fmt.Errorf("bad -until: %w", err)
	}
	if since >= until {
		return fmt.Errorf("-since %s is not before -until %s", *sinceFlag, *untilFlag)
	}

	for _, path := range fs.Args() {
		chunks, err := ftdc.ReadFile(path)
		if err != nil {
			if errors.Is(err, io.ErrUnexpectedEOF) && len(chunks) > 0 {
				// The expected shape of a crash: a torn final chunk after
				// sealed ones. The sealed history is the artifact.
				fmt.Fprintf(os.Stderr, "ftdcdump: %s: truncated final chunk dropped (%d sealed chunks kept)\n", path, len(chunks))
			} else {
				return fmt.Errorf("%s: %w", path, err)
			}
		}
		chunks = filterColumns(chunks, matcher)
		chunks = filterTime(chunks, since, until)
		if *check {
			if err := checkSane(chunks); err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			fmt.Fprintf(out, "%s: ok (%d chunks, %d samples)\n", path, len(chunks), totalSamples(chunks))
			continue
		}
		switch *format {
		case "summary":
			if len(fs.Args()) > 1 {
				fmt.Fprintf(out, "# %s\n", path)
			}
			writeSummary(out, chunks)
		case "json":
			if err := writeJSON(out, chunks); err != nil {
				return err
			}
		case "csv":
			if err := writeCSV(out, chunks); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unknown format %q: want summary, json or csv", *format)
		}
	}
	return nil
}

// filterColumns drops columns not matching the regexp from every chunk.
// The timestamp column always survives so time-based output still works.
func filterColumns(chunks []*ftdc.Chunk, matcher *regexp.Regexp) []*ftdc.Chunk {
	if matcher == nil {
		return chunks
	}
	out := make([]*ftdc.Chunk, 0, len(chunks))
	for _, c := range chunks {
		keep := make([]int, 0, len(c.Columns))
		for j, col := range c.Columns {
			if col.Name == ftdc.TimeColumn || matcher.MatchString(col.Name) {
				keep = append(keep, j)
			}
		}
		fc := &ftdc.Chunk{Columns: make([]ftdc.Column, len(keep))}
		for i, j := range keep {
			fc.Columns[i] = c.Columns[j]
		}
		for _, row := range c.Samples {
			frow := make([]uint64, len(keep))
			for i, j := range keep {
				frow[i] = row[j]
			}
			fc.Samples = append(fc.Samples, frow)
		}
		out = append(out, fc)
	}
	return out
}

// parseTimeFlag resolves a -since/-until value to unix nanoseconds: ""
// falls back to def, an RFC3339 stamp or a unix-seconds number (both
// with optional fractional seconds) parses.
func parseTimeFlag(s string, def uint64) (uint64, error) {
	if s == "" {
		return def, nil
	}
	if t, err := time.Parse(time.RFC3339Nano, s); err == nil {
		if t.Unix() < 0 {
			return 0, fmt.Errorf("%q is before the unix epoch", s)
		}
		return uint64(t.UnixNano()), nil
	}
	if sec, err := strconv.ParseFloat(s, 64); err == nil {
		if sec < 0 {
			return 0, fmt.Errorf("%q is before the unix epoch", s)
		}
		return uint64(sec * 1e9), nil
	}
	return 0, fmt.Errorf("%q is neither RFC3339 nor unix seconds", s)
}

// filterTime keeps only samples whose timestamp lands in [since, until),
// in unix nanos. Chunks without a timestamp column pass through intact
// (-check will flag them anyway), and chunks left empty are dropped.
func filterTime(chunks []*ftdc.Chunk, since, until uint64) []*ftdc.Chunk {
	if since == 0 && until == math.MaxUint64 {
		return chunks
	}
	out := make([]*ftdc.Chunk, 0, len(chunks))
	for _, c := range chunks {
		tj := -1
		for j, col := range c.Columns {
			if col.Name == ftdc.TimeColumn {
				tj = j
				break
			}
		}
		if tj < 0 {
			out = append(out, c)
			continue
		}
		fc := &ftdc.Chunk{Columns: c.Columns}
		for _, row := range c.Samples {
			if t := row[tj]; t >= since && t < until {
				fc.Samples = append(fc.Samples, row)
			}
		}
		if len(fc.Samples) > 0 {
			out = append(out, fc)
		}
	}
	return out
}

func totalSamples(chunks []*ftdc.Chunk) int {
	n := 0
	for _, c := range chunks {
		n += len(c.Samples)
	}
	return n
}

// checkSane is the profile smoke test's gate: the recording must contain at
// least one sample, every chunk must carry the timestamp column, and the
// timestamps must be strictly increasing across the whole file.
func checkSane(chunks []*ftdc.Chunk) error {
	if totalSamples(chunks) == 0 {
		return errors.New("no samples recorded")
	}
	prev := uint64(0)
	seen := 0
	for ci, c := range chunks {
		tj := -1
		for j, col := range c.Columns {
			if col.Name == ftdc.TimeColumn {
				tj = j
				break
			}
		}
		if tj < 0 {
			return fmt.Errorf("chunk %d has no %s column", ci, ftdc.TimeColumn)
		}
		for si, row := range c.Samples {
			t := row[tj]
			if seen > 0 && t <= prev {
				return fmt.Errorf("timestamps not monotonic: sample %d of chunk %d has %d after %d", si, ci, t, prev)
			}
			prev = t
			seen++
		}
	}
	return nil
}

// colSeries is one column's values gathered across every chunk that
// carries it, with the matching timestamps.
type colSeries struct {
	kind   ftdc.Kind
	times  []uint64 // unix nanos, parallel to vals
	vals   []float64
	seenAt int // first column order index, for stable output
}

// gather flattens chunked samples into per-column series.
func gather(chunks []*ftdc.Chunk) (map[string]*colSeries, []string) {
	series := make(map[string]*colSeries)
	var order []string
	next := 0
	for _, c := range chunks {
		tj := -1
		for j, col := range c.Columns {
			if col.Name == ftdc.TimeColumn {
				tj = j
				break
			}
		}
		for si := range c.Samples {
			var t uint64
			if tj >= 0 {
				t = c.Samples[si][tj]
			}
			for j, col := range c.Columns {
				s, ok := series[col.Name]
				if !ok {
					s = &colSeries{kind: col.Kind, seenAt: next}
					next++
					series[col.Name] = s
					order = append(order, col.Name)
				}
				s.times = append(s.times, t)
				s.vals = append(s.vals, c.Float(si, j))
			}
		}
	}
	return series, order
}

// quantile returns the p-quantile of vals by nearest-rank over a sorted
// copy — exact for the recorded samples, no bucketing involved.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// writeSummary prints per-column statistics in first-seen order:
// samples, min, max, p50, p99, first, last, and — when the column never
// decreases and time advanced — the per-second rate over the span.
func writeSummary(w io.Writer, chunks []*ftdc.Chunk) {
	series, order := gather(chunks)
	fmt.Fprintf(w, "%d chunks, %d samples, %d columns\n", len(chunks), totalSamples(chunks), len(order))
	for _, name := range order {
		s := series[name]
		n := len(s.vals)
		if n == 0 {
			continue
		}
		sorted := append([]float64(nil), s.vals...)
		sort.Float64s(sorted)
		first, last := s.vals[0], s.vals[n-1]
		monotonic := true
		for i := 1; i < n; i++ {
			if s.vals[i] < s.vals[i-1] {
				monotonic = false
				break
			}
		}
		fmt.Fprintf(w, "%s  kind=%s samples=%d min=%g p50=%g p99=%g max=%g first=%g last=%g",
			name, s.kind, n,
			sorted[0], quantile(sorted, 0.50), quantile(sorted, 0.99), sorted[n-1],
			first, last)
		if monotonic && name != ftdc.TimeColumn {
			if spanSec := float64(s.times[n-1]-s.times[0]) / 1e9; spanSec > 0 {
				fmt.Fprintf(w, " rate=%g/s", (last-first)/spanSec)
			}
		}
		fmt.Fprintln(w)
	}
}

// writeJSON streams one object per sample, keyed by column name.
func writeJSON(w io.Writer, chunks []*ftdc.Chunk) error {
	enc := json.NewEncoder(w)
	for _, c := range chunks {
		for si := range c.Samples {
			obj := make(map[string]any, len(c.Columns))
			for j, col := range c.Columns {
				if col.Kind == ftdc.KindUint {
					obj[col.Name] = c.Samples[si][j]
				} else {
					obj[col.Name] = c.Float(si, j)
				}
			}
			if err := enc.Encode(obj); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeCSV emits one table over the union of every chunk's schema, the
// timestamp column first and the rest in first-seen order; cells of
// columns absent from a sample's chunk are empty.
func writeCSV(w io.Writer, chunks []*ftdc.Chunk) error {
	_, order := gather(chunks)
	// Move the timestamp column to the front when present.
	for i, name := range order {
		if name == ftdc.TimeColumn {
			copy(order[1:i+1], order[:i])
			order[0] = name
			break
		}
	}
	idx := make(map[string]int, len(order))
	for i, name := range order {
		idx[name] = i
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(order); err != nil {
		return err
	}
	row := make([]string, len(order))
	for _, c := range chunks {
		for si := range c.Samples {
			for i := range row {
				row[i] = ""
			}
			for j, col := range c.Columns {
				if col.Kind == ftdc.KindUint {
					row[idx[col.Name]] = fmt.Sprintf("%d", c.Samples[si][j])
				} else {
					row[idx[col.Name]] = fmt.Sprintf("%g", c.Float(si, j))
				}
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
