package dot11

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// FuzzDecode hammers the 802.11 frame parser with arbitrary bytes: it must
// never panic, and anything it accepts must re-encode to the same wire
// bytes (parse/serialize round-trip stability).
func FuzzDecode(f *testing.F) {
	seed1, _ := NewBeacon(MAC{1, 2, 3, 4, 5, 6}, "seed", 6, 42, 7).Encode()
	seed2, _ := NewProbeRequest(MAC{9, 8, 7, 6, 5, 4}, "", 1).Encode()
	f.Add(seed1)
	f.Add(seed2)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		frame, err := Decode(data)
		if err != nil {
			return
		}
		re, err := frame.Encode()
		if err != nil {
			t.Fatalf("accepted frame failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("round trip changed bytes:\n in: %x\nout: %x", data, re)
		}
	})
}

// FuzzDecodeReuse is the in-place parser's differential oracle. Parsing
// into a reused frame that still holds another frame (fixed fields set
// and more IEs than the input can have) accepts exactly what Decode
// accepts, with the same error, and leaves exactly Decode's frame: every
// field and IE equal, and no stale IE left over. Decode's frame must
// not change when its input is overwritten afterwards.
func FuzzDecodeReuse(f *testing.F) {
	for _, fr := range []*Frame{
		NewBeacon(MAC{1, 2, 3, 4, 5, 6}, "seed", 6, 42, 7),
		NewProbeRequest(MAC{9, 8, 7, 6, 5, 4}, "", 1),
		NewProbeResponse(MAC{0xA0, 9}, MAC{0xDD, 9}, "café", 14, 2),
		{Type: TypeManagement, Subtype: SubtypeDeauth},
	} {
		b, err := fr.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		input := bytes.Clone(data)
		want, werr := Decode(input)
		for i := range input {
			input[i] ^= 0xff
		}
		dirty := NewBeacon(MAC{0xee}, "stale", 11, 1<<40, 99)
		for len(dirty.IEs) <= len(data)/2 {
			dirty.IEs = append(dirty.IEs, IE{ID: 0xdd, Data: []byte("stale")})
		}
		gerr := dirty.Parse(data)
		if gerr != werr {
			t.Fatalf("Parse error %v, Decode error %v", gerr, werr)
		}
		if werr != nil {
			return
		}
		if msg := frameDiff(dirty, want); msg != "" {
			t.Fatalf("reused frame differs from Decode's: %s", msg)
		}
	})
}

// frameDiff describes the first difference between two frames, or
// returns "" when every field and IE is equal.
func frameDiff(a, b *Frame) string {
	ha, hb := *a, *b
	ha.IEs, hb.IEs = nil, nil
	if !reflect.DeepEqual(ha, hb) {
		return fmt.Sprintf("header %+v vs %+v", ha, hb)
	}
	if len(a.IEs) != len(b.IEs) {
		return fmt.Sprintf("%d IEs vs %d", len(a.IEs), len(b.IEs))
	}
	for i := range a.IEs {
		x, y := a.IEs[i], b.IEs[i]
		if x.ID != y.ID || !bytes.Equal(x.Data, y.Data) || (x.Data == nil) != (y.Data == nil) {
			return fmt.Sprintf("IE %d: %d %x vs %d %x", i, x.ID, x.Data, y.ID, y.Data)
		}
	}
	return ""
}

// FuzzFrameParse drives the full parse surface the observation pipeline
// touches on every capture: Decode, then for accepted frames the element
// accessors (SSID, Channel), channel math, and the encode round trip.
// None of it may panic, and derived values must stay in range.
func FuzzFrameParse(f *testing.F) {
	seed1, _ := NewBeacon(MAC{0xA0, 1, 2, 3, 4, 5}, "corp-net", 11, 100, 9).Encode()
	seed2, _ := NewProbeRequest(MAC{0xDD, 0, 0, 0, 0, 1}, "home", 3).Encode()
	seed3, _ := NewProbeResponse(MAC{0xA0, 9}, MAC{0xDD, 9}, "café ☕", 14, 2).Encode()
	f.Add(seed1)
	f.Add(seed2)
	f.Add(seed3)
	f.Add([]byte{0x40, 0x00, 0x00, 0x00}) // truncated probe request
	f.Fuzz(func(t *testing.T, data []byte) {
		frame, err := Decode(data)
		if err != nil {
			return
		}
		if ssid, ok := frame.SSID(); ok && len(ssid) > 255 {
			t.Fatalf("SSID longer than an element can carry: %d bytes", len(ssid))
		}
		if ch, ok := frame.Channel(); ok {
			if freq, err := ChannelFreqHz(ch); err == nil {
				if freq < 2.4e9 || freq > 2.5e9 {
					t.Fatalf("channel %d mapped to out-of-band frequency %v", ch, freq)
				}
				for rx := 1; rx <= 14; rx++ {
					if ov := SpectralOverlap(ch, rx); ov < 0 || ov > 1 {
						t.Fatalf("SpectralOverlap(%d,%d) = %v out of [0,1]", ch, rx, ov)
					}
				}
			}
		}
		re, err := frame.Encode()
		if err != nil {
			t.Fatalf("accepted frame failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("round trip changed bytes:\n in: %x\nout: %x", data, re)
		}
	})
}

// FuzzDecodeRadiotap checks the radiotap splitter never panics and never
// returns a body that escapes the input buffer.
func FuzzDecodeRadiotap(f *testing.F) {
	frame, _ := NewProbeRequest(MAC{1}, "x", 0).Encode()
	f.Add(EncodeRadiotap(Radiotap{ChannelMHz: 2437, SignalDBm: -60, NoiseDBm: -95}, frame))
	f.Add([]byte{0, 0, 8, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, body, err := DecodeRadiotap(data)
		if err != nil {
			return
		}
		if len(body) > len(data) {
			t.Fatalf("body longer than input: %d > %d", len(body), len(data))
		}
	})
}
