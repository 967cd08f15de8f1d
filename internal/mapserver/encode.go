package mapserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/geom"
)

// GET /api/state is served by an append encoder instead of reflection.
// Its output is byte-for-byte what
//
//	json.NewEncoder(w).Encode(map[string]any{"aps": []APMarker, "devices": []DeviceMarker})
//
// writes for the same markers, error included: the first NaN or ±Inf in
// encoding order fails the request with encoding/json's message.
// FuzzStateJSON holds the two encoders to that.

// device is one published map dot: a DeviceMarker before encoding, with
// the MAC kept as its six bytes read as a big-endian integer, so integer
// order is MAC.String() order.
type device struct {
	mac        uint64
	est, truth geom.Point
	errM       float64
	k          int
	method     string
	hasTruth   bool
}

// byMAC sorts devices in place by MAC. A sort.Interface swaps entries by
// index; a comparator taking entries by value would copy each one per
// comparison.
type byMAC []device

func (d byMAC) Len() int           { return len(d) }
func (d byMAC) Less(i, j int) bool { return d[i].mac < d[j].mac }
func (d byMAC) Swap(i, j int)      { d[i], d[j] = d[j], d[i] }

// apLayer is the AP layer as the JSON value of "aps", encoded once per
// SetAPs; err is the error encoding it met, if any.
type apLayer struct {
	json []byte
	err  error
}

// encodeAPs encodes an AP layer. An empty layer is null, as the nil
// slice it was always stored as.
func encodeAPs(aps []APMarker) apLayer {
	if len(aps) == 0 {
		return apLayer{json: []byte("null")}
	}
	e := encoder{b: make([]byte, 0, 128*len(aps))}
	e.b = append(e.b, '[')
	for i := range aps {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.ap(&aps[i])
	}
	e.b = append(e.b, ']')
	// The layer is held until the next SetAPs: keep an exact-size copy,
	// not the encoding buffer's spare capacity.
	return apLayer{json: bytes.Clone(e.b), err: e.err}
}

// bufPool holds /api/state response buffers; a map frame is hundreds of
// kilobytes, so a buffer is reused rather than regrown per request.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// serveState writes the /api/state response: the cached AP layer and the
// published device slice, encoded into one buffer and sent in one Write
// with its Content-Length, so the body is not chunked.
func (s *State) serveState(w http.ResponseWriter) {
	s.mu.RLock()
	aps, devices := s.aps, s.devices
	s.mu.RUnlock()

	buf := bufPool.Get().(*[]byte)
	defer bufPool.Put(buf)
	// A located device encodes to ~180-230 bytes: size a fresh or
	// outgrown buffer once rather than regrowing it by doubling.
	if need := len(aps.json) + 256*len(devices) + 32; cap(*buf) < need {
		*buf = make([]byte, 0, need)
	}
	e := encoder{b: (*buf)[:0], err: aps.err}
	e.b = append(e.b, `{"aps":`...)
	e.b = append(e.b, aps.json...)
	e.b = append(e.b, `,"devices":[`...)
	for i := range devices {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.device(&devices[i])
	}
	e.b = append(e.b, "]}\n"...)
	*buf = e.b
	if e.err != nil {
		http.Error(w, fmt.Sprintf("encode: %v", e.err), http.StatusInternalServerError)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(e.b)))
	_, _ = w.Write(e.b) // a failed write is the client's hang-up
}

// encoder appends JSON to b and keeps the first error it meets; once err
// is set the output is discarded.
type encoder struct {
	b   []byte
	err error
}

func (e *encoder) ap(a *APMarker) {
	e.b = append(e.b, `{"bssid":`...)
	e.b = appendString(e.b, a.BSSID)
	e.b = append(e.b, `,"ssid":`...)
	e.b = appendString(e.b, a.SSID)
	e.b = append(e.b, `,"pos":`...)
	e.point(a.Pos)
	e.b = append(e.b, `,"range":`...)
	e.float(a.Range)
	e.b = append(e.b, '}')
}

func (e *encoder) device(d *device) {
	const hexDigits = "0123456789abcdef"
	e.b = append(e.b, `{"mac":"`...)
	for shift := 40; shift >= 0; shift -= 8 {
		v := byte(d.mac >> shift)
		e.b = append(e.b, hexDigits[v>>4], hexDigits[v&0x0f], ':')
	}
	e.b[len(e.b)-1] = '"'
	e.b = append(e.b, `,"est":`...)
	e.point(d.est)
	if d.hasTruth {
		e.b = append(e.b, `,"truth":`...)
		e.point(d.truth)
	}
	e.b = append(e.b, `,"k":`...)
	e.b = strconv.AppendInt(e.b, int64(d.k), 10)
	e.b = append(e.b, `,"method":`...)
	e.b = appendString(e.b, d.method)
	e.b = append(e.b, `,"errM":`...)
	e.float(d.errM)
	e.b = append(e.b, `,"hasTruth":`...)
	e.b = strconv.AppendBool(e.b, d.hasTruth)
	e.b = append(e.b, '}')
}

func (e *encoder) point(p geom.Point) {
	e.b = append(e.b, `{"x":`...)
	e.float(p.X)
	e.b = append(e.b, `,"y":`...)
	e.float(p.Y)
	e.b = append(e.b, '}')
}

// float appends f as encoding/json does: shortest round-trip digits,
// exponent form outside [1e-6, 1e21), and no leading zero in a negative
// exponent.
func (e *encoder) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	if f == math.Trunc(f) && math.Abs(f) < 1<<53 && !math.Signbit(f) {
		// An integer below 2^53 is its own shortest form; this is every
		// errM of a device without truth.
		e.b = strconv.AppendInt(e.b, int64(f), 10)
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		if n := len(e.b); n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
			e.b[n-2] = e.b[n-1]
			e.b = e.b[:n-1]
		}
	}
}

// appendString appends s as a JSON string the way encoding/json does with
// HTML escaping on: <, > and & as \u00XX, control bytes escaped, invalid
// UTF-8 replaced by \ufffd, and U+2028/U+2029 escaped for JSONP.
func appendString(b []byte, s string) []byte {
	const hexDigits = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
