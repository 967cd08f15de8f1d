package dot11

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestMACString(t *testing.T) {
	m := MAC{0x00, 0x1b, 0x2c, 0x3d, 0x4e, 0x5f}
	want := "00:1b:2c:3d:4e:5f"
	if got := m.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	parsed, err := ParseMAC(want)
	if err != nil {
		t.Fatal(err)
	}
	if parsed != m {
		t.Errorf("ParseMAC = %v, want %v", parsed, m)
	}
	if _, err := ParseMAC("nonsense"); err == nil {
		t.Error("want error for bad MAC")
	}
}

// TestMACStringMatchesSprintf pins the table formatter to the fmt form
// it replaced, and to ParseMAC, over random addresses and the extremes.
func TestMACStringMatchesSprintf(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	macs := []MAC{{}, Broadcast, {0x0f, 0xf0, 0x09, 0x90, 0xa0, 0x0a}}
	for i := 0; i < 1000; i++ {
		var m MAC
		rng.Read(m[:])
		macs = append(macs, m)
	}
	for _, m := range macs {
		want := fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
		if got := m.String(); got != want {
			t.Fatalf("String(% x) = %q, want %q", m[:], got, want)
		}
		if parsed, err := ParseMAC(m.String()); err != nil || parsed != m {
			t.Fatalf("ParseMAC(%q) = %v, %v", m.String(), parsed, err)
		}
	}
}

func TestMACRoundTripProperty(t *testing.T) {
	f := func(b [6]byte) bool {
		m := MAC(b)
		parsed, err := ParseMAC(m.String())
		return err == nil && parsed == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProbeRequestRoundTrip(t *testing.T) {
	src := MAC{2, 0, 0, 0, 0, 7}
	f := NewProbeRequest(src, "eduroam", 42)
	b, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Subtype != SubtypeProbeRequest || got.Addr2 != src || got.Seq != 42 {
		t.Errorf("decoded %+v", got)
	}
	if ssid, ok := got.SSID(); !ok || ssid != "eduroam" {
		t.Errorf("SSID = %q, %v", ssid, ok)
	}
	if got.Addr1 != Broadcast {
		t.Error("probe request must be broadcast")
	}
}

func TestBeaconRoundTrip(t *testing.T) {
	ap := MAC{0, 0x1b, 0, 0, 0, 1}
	f := NewBeacon(ap, "UML-North", 6, 123456789, 7)
	b, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Timestamp != 123456789 || got.BeaconInterval != 100 {
		t.Errorf("fixed fields: %+v", got)
	}
	if ch, ok := got.Channel(); !ok || ch != 6 {
		t.Errorf("channel = %d, %v", ch, ok)
	}
	if !reflect.DeepEqual(got.IEs, f.IEs) {
		t.Errorf("IEs differ: %v vs %v", got.IEs, f.IEs)
	}
}

func TestProbeResponseRoundTrip(t *testing.T) {
	ap := MAC{0, 1, 2, 3, 4, 5}
	dst := MAC{9, 8, 7, 6, 5, 4}
	f := NewProbeResponse(ap, dst, "GWU", 11, 3)
	b, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Addr1 != dst || got.Addr2 != ap || got.Addr3 != ap {
		t.Errorf("addresses: %+v", got)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode([]byte{1, 2, 3}); !errors.Is(err, ErrShortFrame) {
		t.Errorf("short: %v", err)
	}
	f := NewProbeRequest(MAC{1}, "x", 0)
	b, _ := f.Encode()
	b[5] ^= 0xff // corrupt
	if _, err := Decode(b); !errors.Is(err, ErrBadFCS) {
		t.Errorf("corrupt: %v", err)
	}
	// Non-management frame control.
	raw := make([]byte, 28)
	raw[0] = 0x08 // type = data
	// fix FCS
	b2 := append(raw[:24:24], 0, 0, 0, 0)
	copy(b2[24:], fcsOf(b2[:24]))
	if _, err := Decode(b2); !errors.Is(err, ErrNotMgmt) {
		t.Errorf("data frame: %v", err)
	}
}

func fcsOf(b []byte) []byte {
	f := NewProbeRequest(MAC{}, "", 0)
	_ = f
	// compute crc32 IEEE little endian
	var out [4]byte
	c := crc32IEEE(b)
	out[0] = byte(c)
	out[1] = byte(c >> 8)
	out[2] = byte(c >> 16)
	out[3] = byte(c >> 24)
	return out[:]
}

func crc32IEEE(b []byte) uint32 {
	const poly = 0xedb88320
	crc := ^uint32(0)
	for _, x := range b {
		crc ^= uint32(x)
		for i := 0; i < 8; i++ {
			if crc&1 != 0 {
				crc = crc>>1 ^ poly
			} else {
				crc >>= 1
			}
		}
	}
	return ^crc
}

func TestEncodeRejectsNonMgmt(t *testing.T) {
	f := &Frame{Type: TypeData}
	if _, err := f.Encode(); !errors.Is(err, ErrNotMgmt) {
		t.Errorf("err = %v", err)
	}
}

func TestEncodeRejectsOversizeIE(t *testing.T) {
	f := NewProbeRequest(MAC{}, "", 0)
	f.IEs = append(f.IEs, IE{ID: 221, Data: make([]byte, 300)})
	if _, err := f.Encode(); err == nil {
		t.Error("want error for oversized IE")
	}
}

func TestFrameRoundTripProperty(t *testing.T) {
	f := func(src, bssid [6]byte, ssid string, seq uint16, ts uint64) bool {
		if len(ssid) > 32 {
			ssid = ssid[:32]
		}
		fr := NewBeacon(MAC(src), ssid, 6, ts, seq%4096)
		fr.Addr3 = MAC(bssid)
		b, err := fr.Encode()
		if err != nil {
			return false
		}
		got, err := Decode(b)
		if err != nil {
			return false
		}
		s, _ := got.SSID()
		return got.Addr2 == MAC(src) && got.Addr3 == MAC(bssid) &&
			s == ssid && got.Seq == seq%4096 && got.Timestamp == ts
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDecodeTruncatedIE(t *testing.T) {
	f := NewProbeRequest(MAC{1}, "abc", 0)
	b, _ := f.Encode()
	// Chop into the IE region and re-seal with a fresh FCS so only the IE
	// parser can complain.
	cut := b[:len(b)-4-2]
	resealed := append(append([]byte{}, cut...), fcsOf(cut)...)
	if _, err := Decode(resealed); !errors.Is(err, ErrShortFrame) {
		t.Errorf("err = %v, want ErrShortFrame", err)
	}
}

func TestSubtypeString(t *testing.T) {
	if SubtypeBeacon.String() != "Beacon" || SubtypeProbeRequest.String() != "ProbeReq" {
		t.Error("subtype strings wrong")
	}
	if Subtype(15).String() != "Subtype(15)" {
		t.Error("unknown subtype string wrong")
	}
}

func TestChannelFreq(t *testing.T) {
	tests := []struct {
		ch   int
		want float64
	}{{1, 2.412e9}, {6, 2.437e9}, {11, 2.462e9}, {14, 2.484e9}}
	for _, tt := range tests {
		got, err := ChannelFreqHz(tt.ch)
		if err != nil {
			t.Fatal(err)
		}
		if got != tt.want {
			t.Errorf("ch %d = %v, want %v", tt.ch, got, tt.want)
		}
	}
	if _, err := ChannelFreqHz(0); err == nil {
		t.Error("want error for channel 0")
	}
	if _, err := ChannelFreqHz(15); err == nil {
		t.Error("want error for channel 15")
	}
}

func TestSpectralOverlap(t *testing.T) {
	if got := SpectralOverlap(6, 6); got != 1 {
		t.Errorf("same channel overlap = %v", got)
	}
	if got := SpectralOverlap(1, 6); got != 0 {
		t.Errorf("1 vs 6 overlap = %v, want 0", got)
	}
	// Adjacent channels overlap substantially but not fully.
	ov := SpectralOverlap(6, 7)
	if ov <= 0.5 || ov >= 1 {
		t.Errorf("adjacent overlap = %v", ov)
	}
	if SpectralOverlap(6, 7) != SpectralOverlap(7, 6) {
		t.Error("overlap must be symmetric")
	}
}

func TestLeakage(t *testing.T) {
	if got := LeakageDB(6, 6); got != 0 {
		t.Errorf("on-channel leakage = %v", got)
	}
	if !math.IsInf(LeakageDB(1, 11), 1) {
		t.Error("far channels should have infinite leakage")
	}
	if l := LeakageDB(6, 8); l <= 0 || math.IsInf(l, 1) {
		t.Errorf("near-channel leakage = %v", l)
	}
}

// The paper's Fig 9: a card on a neighbouring channel recognizes few or no
// packets even though energy leaks.
func TestDecodableCrossChannel(t *testing.T) {
	if !DecodableCrossChannel(11, 11) {
		t.Error("on-channel must decode")
	}
	if DecodableCrossChannel(11, 10) {
		t.Error("adjacent channel must not decode, however strong the leak")
	}
	if DecodableCrossChannel(11, 9) {
		t.Error(">=2 channels away must never decode")
	}
}

func TestChannelPlans(t *testing.T) {
	def := DefaultPlan()
	if !reflect.DeepEqual(def.Cards, []int{1, 6, 11}) {
		t.Errorf("default plan = %v", def.Cards)
	}
	if !def.Covers(6) || def.Covers(3) {
		t.Error("default plan coverage wrong")
	}
	full := FullPlan()
	if len(full.Cards) != 11 {
		t.Errorf("full plan = %v", full.Cards)
	}
	for ch := MinChannel; ch <= MaxChannel; ch++ {
		if !full.Covers(ch) {
			t.Errorf("full plan must cover channel %d", ch)
		}
	}
	// The folk {3,6,9} plan fails to decode channels 1 and 11 (Fig 9's
	// conclusion).
	folk := FolkPlan()
	if folk.Covers(1) || folk.Covers(11) {
		t.Error("folk plan should not cover the edge channels")
	}
}

func TestEncodeDeterministic(t *testing.T) {
	f := NewBeacon(MAC{1, 2, 3, 4, 5, 6}, "ssid", 1, 99, 1)
	a, _ := f.Encode()
	b, _ := f.Encode()
	if !bytes.Equal(a, b) {
		t.Error("Encode must be deterministic")
	}
}

func BenchmarkEncodeDecode(b *testing.B) {
	f := NewBeacon(MAC{1, 2, 3, 4, 5, 6}, "UML-North-Campus", 6, 12345, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		raw, err := f.Encode()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Decode(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// Decode must never panic, whatever bytes arrive off the air.
func TestDecodeNeverPanicsProperty(t *testing.T) {
	f := func(b []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Decode panicked on %x: %v", b, r)
			}
		}()
		_, _ = Decode(b)
		_, _, _ = DecodeRadiotap(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
