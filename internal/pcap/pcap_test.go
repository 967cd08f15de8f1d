package pcap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/dot11"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, LinkTypeIEEE80211)
	t0 := time.Date(2008, 10, 24, 12, 0, 0, 123456000, time.UTC)
	pkts := []Packet{
		{Time: t0, Data: []byte{1, 2, 3}},
		{Time: t0.Add(time.Second), Data: []byte{4, 5}, OrigLen: 100},
	}
	for _, p := range pkts {
		if err := w.WritePacket(p); err != nil {
			t.Fatal(err)
		}
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.LinkType() != LinkTypeIEEE80211 {
		t.Errorf("link type = %v", r.LinkType())
	}
	if r.SnapLen() != 65535 {
		t.Errorf("snaplen = %v", r.SnapLen())
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d packets", len(got))
	}
	if !got[0].Time.Equal(t0) {
		t.Errorf("time = %v, want %v", got[0].Time, t0)
	}
	if !bytes.Equal(got[0].Data, pkts[0].Data) {
		t.Errorf("data = %v", got[0].Data)
	}
	if got[0].OrigLen != 3 {
		t.Errorf("origlen = %d, want 3 (defaults to caplen)", got[0].OrigLen)
	}
	if got[1].OrigLen != 100 {
		t.Errorf("origlen = %d, want 100", got[1].OrigLen)
	}
}

func TestWriteHeaderIdempotent(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, LinkTypeEthernet)
	if err := w.WriteHeader(); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteHeader(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 24 {
		t.Errorf("header written twice: %d bytes", buf.Len())
	}
}

func TestBadMagic(t *testing.T) {
	_, err := NewReader(bytes.NewReader(make([]byte, 24)))
	if !errors.Is(err, ErrBadMagic) {
		t.Errorf("err = %v", err)
	}
}

func TestShortHeader(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte{1, 2})); err == nil {
		t.Error("want error for short header")
	}
}

func TestTruncatedPacket(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, LinkTypeIEEE80211)
	if err := w.WritePacket(Packet{Time: time.Now(), Data: []byte{1, 2, 3, 4}}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	r, err := NewReader(bytes.NewReader(full[:len(full)-2]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); !errors.Is(err, ErrTruncated) {
		t.Errorf("err = %v, want ErrTruncated", err)
	}
}

func TestSnapLenEnforced(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, LinkTypeIEEE80211)
	if err := w.WritePacket(Packet{Data: make([]byte, 70000)}); !errors.Is(err, ErrSnapExceeds) {
		t.Errorf("err = %v", err)
	}
}

// TestHugeCapLenRejected: a header claiming a 4 GiB snap length does not
// let a packet header make the reader allocate gigabytes before it finds
// the file truncated.
func TestHugeCapLenRejected(t *testing.T) {
	data := make([]byte, 24+16)
	binary.LittleEndian.PutUint32(data[0:4], 0xa1b2c3d4)
	binary.LittleEndian.PutUint32(data[16:20], 0xffffffff)
	binary.LittleEndian.PutUint32(data[24+8:24+12], 0xf0000000)
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Next()
	if err == nil || errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want the capture length rejected", err)
	}
}

func TestBigEndianRead(t *testing.T) {
	// Hand-build a big-endian capture with one 2-byte packet.
	var buf bytes.Buffer
	hdr := make([]byte, 24)
	binary.BigEndian.PutUint32(hdr[0:4], 0xa1b2c3d4)
	binary.BigEndian.PutUint16(hdr[4:6], 2)
	binary.BigEndian.PutUint16(hdr[6:8], 4)
	binary.BigEndian.PutUint32(hdr[16:20], 65535)
	binary.BigEndian.PutUint32(hdr[20:24], uint32(LinkTypeIEEE80211))
	buf.Write(hdr)
	ph := make([]byte, 16)
	binary.BigEndian.PutUint32(ph[0:4], 1000)
	binary.BigEndian.PutUint32(ph[4:8], 500)
	binary.BigEndian.PutUint32(ph[8:12], 2)
	binary.BigEndian.PutUint32(ph[12:16], 2)
	buf.Write(ph)
	buf.Write([]byte{0xaa, 0xbb})

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	p, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if p.Time.Unix() != 1000 || p.Time.Nanosecond() != 500000 {
		t.Errorf("time = %v", p.Time)
	}
	if !bytes.Equal(p.Data, []byte{0xaa, 0xbb}) {
		t.Errorf("data = %v", p.Data)
	}
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("err = %v, want EOF", err)
	}
}

// End-to-end: encode 802.11 frames, persist via pcap, read back, decode.
func TestDot11ThroughPcap(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, LinkTypeIEEE80211)
	ap := dot11.MAC{0, 0x1b, 0x2c, 0, 0, 1}
	frames := []*dot11.Frame{
		dot11.NewBeacon(ap, "net-a", 1, 1, 1),
		dot11.NewProbeRequest(dot11.MAC{2, 0, 0, 0, 0, 9}, "net-a", 2),
		dot11.NewProbeResponse(ap, dot11.MAC{2, 0, 0, 0, 0, 9}, "net-a", 1, 3),
	}
	base := time.Date(2008, 10, 24, 0, 0, 0, 0, time.UTC)
	for i, f := range frames {
		raw, err := f.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WritePacket(Packet{Time: base.Add(time.Duration(i) * time.Millisecond), Data: raw}); err != nil {
			t.Fatal(err)
		}
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	pkts, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) != 3 {
		t.Fatalf("got %d packets", len(pkts))
	}
	for i, p := range pkts {
		f, err := dot11.Decode(p.Data)
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if f.Subtype != frames[i].Subtype {
			t.Errorf("packet %d subtype = %v, want %v", i, f.Subtype, frames[i].Subtype)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(payloads [][]byte, secs uint32) bool {
		if len(payloads) > 20 {
			payloads = payloads[:20]
		}
		var buf bytes.Buffer
		w := NewWriter(&buf, LinkTypeIEEE80211)
		ts := time.Unix(int64(secs%1e9), 0).UTC()
		for _, pl := range payloads {
			if len(pl) > 65535 {
				pl = pl[:65535]
			}
			if err := w.WritePacket(Packet{Time: ts, Data: pl}); err != nil {
				return false
			}
		}
		if err := w.WriteHeader(); err != nil { // ensure header exists even for 0 packets
			return false
		}
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		got, err := r.ReadAll()
		if err != nil {
			return false
		}
		if len(got) != len(payloads) {
			return false
		}
		for i := range got {
			pl := payloads[i]
			if len(pl) > 65535 {
				pl = pl[:65535]
			}
			if !bytes.Equal(got[i].Data, pl) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkWriteRead(b *testing.B) {
	frame, err := dot11.NewBeacon(dot11.MAC{1}, "bench", 6, 0, 0).Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		w := NewWriter(&buf, LinkTypeIEEE80211)
		for j := 0; j < 100; j++ {
			if err := w.WritePacket(Packet{Data: frame}); err != nil {
				b.Fatal(err)
			}
		}
		r, err := NewReader(&buf)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.ReadAll(); err != nil {
			b.Fatal(err)
		}
	}
}
