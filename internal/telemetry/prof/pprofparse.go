// pprofparse.go is a minimal, dependency-free decoder for the pprof
// profile.proto wire format — just enough of it to turn the CPU and heap
// captures this process writes about itself back into symbol tables. The
// full pprof toolchain lives outside the repo (github.com/google/pprof);
// the continuous profiler cannot depend on it, and does not need to: a
// top-N hot-function attribution needs only the string table, the
// sample→location→function graph and the sample values.
//
// The subset decoded here:
//
//	Profile:  sample_type(1), sample(2), location(4), function(5),
//	          string_table(6), time_nanos(9), duration_nanos(10), period(12)
//	Sample:   location_id(1, packed or repeated), value(2, packed or repeated)
//	Location: id(1), line(4)
//	Line:     function_id(1)
//	Function: id(1), name(2)
//
// Everything else (mappings, labels, comments) is skipped field-by-field,
// which is what protobuf is designed for. Both gzipped captures (as
// runtime/pprof writes them) and bare proto bytes are accepted.
package prof

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"sort"
)

// maxProfileBytes caps the decompressed profile size; a continuous
// profiler decoding its own periodic captures should never see more than
// a few megabytes, and the cap keeps a corrupt gzip stream from
// ballooning memory.
const maxProfileBytes = 256 << 20

// ValueType names one sample value dimension, e.g. {"cpu", "nanoseconds"}
// or {"alloc_space", "bytes"}.
type ValueType struct {
	Type string
	Unit string
}

// Sample is one stack sample: location IDs leaf-first, one value per
// declared sample type.
type Sample struct {
	LocationIDs []uint64
	Values      []int64
}

// Profile is a decoded pprof capture, resolved to the subset the
// attributor consumes.
type Profile struct {
	// SampleTypes declares the meaning of each Sample.Values column.
	SampleTypes []ValueType
	// Samples are the raw stack samples.
	Samples []Sample
	// TimeNanos and DurationNanos are the capture's start and length.
	TimeNanos     int64
	DurationNanos int64
	// Period is the sampling period in period-type units (CPU: ns between
	// samples).
	Period int64

	// locFuncs maps a location ID to its function names, innermost
	// (deepest inline) first.
	locFuncs map[uint64][]string
}

// ValueIndex returns the index of the sample-type column with the given
// type name, or -1.
func (p *Profile) ValueIndex(name string) int {
	for i, st := range p.SampleTypes {
		if st.Type == name {
			return i
		}
	}
	return -1
}

// protobuf wire types.
const (
	wireVarint = 0
	wireI64    = 1
	wireLen    = 2
	wireI32    = 5
)

// varint decodes one base-128 varint, returning the value and the number
// of bytes consumed (0 on malformed input).
func varint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// scanFields walks one protobuf message, calling fn per field with the
// decoded varint/fixed value (wire types 0/1/5) or the sub-message bytes
// (wire type 2).
func scanFields(data []byte, fn func(field, wire int, v uint64, sub []byte) error) error {
	for len(data) > 0 {
		tag, n := varint(data)
		if n == 0 {
			return fmt.Errorf("prof: malformed tag varint")
		}
		data = data[n:]
		field, wire := int(tag>>3), int(tag&7)
		switch wire {
		case wireVarint:
			v, n := varint(data)
			if n == 0 {
				return fmt.Errorf("prof: malformed varint in field %d", field)
			}
			data = data[n:]
			if err := fn(field, wire, v, nil); err != nil {
				return err
			}
		case wireI64:
			if len(data) < 8 {
				return fmt.Errorf("prof: truncated i64 in field %d", field)
			}
			var v uint64
			for i := 0; i < 8; i++ {
				v |= uint64(data[i]) << (8 * i)
			}
			data = data[8:]
			if err := fn(field, wire, v, nil); err != nil {
				return err
			}
		case wireLen:
			l, n := varint(data)
			if n == 0 || uint64(len(data)-n) < l {
				return fmt.Errorf("prof: truncated length-delimited field %d", field)
			}
			sub := data[n : n+int(l)]
			data = data[n+int(l):]
			if err := fn(field, wire, 0, sub); err != nil {
				return err
			}
		case wireI32:
			if len(data) < 4 {
				return fmt.Errorf("prof: truncated i32 in field %d", field)
			}
			var v uint64
			for i := 0; i < 4; i++ {
				v |= uint64(data[i]) << (8 * i)
			}
			data = data[4:]
			if err := fn(field, wire, v, nil); err != nil {
				return err
			}
		default:
			return fmt.Errorf("prof: unsupported wire type %d in field %d", wire, field)
		}
	}
	return nil
}

// appendPacked appends the varints of one repeated-integer field: packed
// (one length-delimited blob) when sub is non-nil, a single element
// otherwise. Both encodings are legal for the same field and Go's pprof
// writer has used both across versions.
func appendPacked(dst []uint64, wire int, v uint64, sub []byte) ([]uint64, error) {
	if wire != wireLen {
		return append(dst, v), nil
	}
	for len(sub) > 0 {
		e, n := varint(sub)
		if n == 0 {
			return nil, fmt.Errorf("prof: malformed packed varint")
		}
		dst = append(dst, e)
		sub = sub[n:]
	}
	return dst, nil
}

// Parse decodes a pprof capture (gzipped, as runtime/pprof writes, or
// bare proto bytes) into a resolved Profile.
func Parse(data []byte) (*Profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("prof: gunzip: %w", err)
		}
		raw, err := io.ReadAll(io.LimitReader(zr, maxProfileBytes))
		if err != nil {
			return nil, fmt.Errorf("prof: gunzip: %w", err)
		}
		data = raw
	}

	var (
		strings    []string
		typeIdx    [][2]uint64 // string-table indices of (type, unit)
		funcName   = map[uint64]uint64{}
		locLineFns = map[uint64][]uint64{}
		p          = &Profile{locFuncs: map[uint64][]string{}}
	)
	err := scanFields(data, func(field, wire int, v uint64, sub []byte) error {
		switch field {
		case 1: // sample_type: ValueType
			var ti [2]uint64
			if err := scanFields(sub, func(f, w int, v uint64, _ []byte) error {
				if f == 1 {
					ti[0] = v
				} else if f == 2 {
					ti[1] = v
				}
				return nil
			}); err != nil {
				return err
			}
			typeIdx = append(typeIdx, ti)
		case 2: // sample
			var s Sample
			if err := scanFields(sub, func(f, w int, v uint64, sb []byte) error {
				var err error
				switch f {
				case 1:
					s.LocationIDs, err = appendPacked(s.LocationIDs, w, v, sb)
				case 2:
					var vals []uint64
					if vals, err = appendPacked(nil, w, v, sb); err == nil {
						for _, u := range vals {
							s.Values = append(s.Values, int64(u))
						}
					}
				}
				return err
			}); err != nil {
				return err
			}
			p.Samples = append(p.Samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := scanFields(sub, func(f, w int, v uint64, sb []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return scanFields(sb, func(lf, lw int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locLineFns[id] = fns
		case 5: // function
			var id, name uint64
			if err := scanFields(sub, func(f, w int, v uint64, _ []byte) error {
				if f == 1 {
					id = v
				} else if f == 2 {
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strings = append(strings, string(sub))
		case 9:
			p.TimeNanos = int64(v)
		case 10:
			p.DurationNanos = int64(v)
		case 12:
			p.Period = int64(v)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	str := func(i uint64) string {
		if i < uint64(len(strings)) {
			return strings[i]
		}
		return ""
	}
	for _, ti := range typeIdx {
		p.SampleTypes = append(p.SampleTypes, ValueType{Type: str(ti[0]), Unit: str(ti[1])})
	}
	for id, fns := range locLineFns {
		names := make([]string, 0, len(fns))
		for _, fid := range fns {
			if ni, ok := funcName[fid]; ok {
				if name := str(ni); name != "" {
					names = append(names, name)
				}
			}
		}
		p.locFuncs[id] = names
	}
	return p, nil
}

// HotFunc is one row of an attribution table: a function with its flat
// (self) and cumulative (anywhere on stack) weight in the profile's
// sample-value units, plus the flat share of the profile total.
type HotFunc struct {
	Name      string  `json:"name"`
	Flat      int64   `json:"flat"`
	FlatShare float64 `json:"flatShare"`
	Cum       int64   `json:"cum"`
}

// Top aggregates the profile into a top-n hot-function table over the
// given sample-value column: flat weight goes to each sample's leaf
// function (innermost frame of the first location), cumulative weight to
// every distinct function on the stack. Rows sort by flat descending,
// ties by name. total is the column sum over all samples.
func (p *Profile) Top(n, valueIdx int) (top []HotFunc, total int64) {
	if valueIdx < 0 || n <= 0 {
		return nil, 0
	}
	flat := map[string]int64{}
	cum := map[string]int64{}
	var seen map[string]bool
	for _, s := range p.Samples {
		if valueIdx >= len(s.Values) {
			continue
		}
		v := s.Values[valueIdx]
		if v == 0 {
			continue
		}
		total += v
		leaf := "unknown"
		if len(s.LocationIDs) > 0 {
			if fns := p.locFuncs[s.LocationIDs[0]]; len(fns) > 0 {
				leaf = fns[0]
			}
		}
		flat[leaf] += v
		if seen == nil {
			seen = make(map[string]bool, 16)
		} else {
			clear(seen)
		}
		for _, loc := range s.LocationIDs {
			for _, fn := range p.locFuncs[loc] {
				if !seen[fn] {
					seen[fn] = true
					cum[fn] += v
				}
			}
		}
	}
	if total == 0 {
		return nil, 0
	}
	top = make([]HotFunc, 0, len(flat))
	for name, f := range flat {
		top = append(top, HotFunc{Name: name, Flat: f, Cum: cum[name]})
	}
	sort.Slice(top, func(i, j int) bool {
		if top[i].Flat != top[j].Flat {
			return top[i].Flat > top[j].Flat
		}
		return top[i].Name < top[j].Name
	})
	if len(top) > n {
		top = top[:n]
	}
	for i := range top {
		top[i].FlatShare = float64(top[i].Flat) / float64(total)
	}
	return top, total
}
