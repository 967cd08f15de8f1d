package capwire

import (
	"bytes"
	"hash/crc32"
	"io"
	"testing"

	"repro/internal/dot11"
	"repro/internal/sniffer"
)

func testMAC(b byte) dot11.MAC { return dot11.MAC{0x02, 0xdd, 0, 0, 0, b} }

func sampleMessages(t testing.TB) []any {
	t.Helper()
	frame := dot11.NewProbeRequest(testMAC(1), "corpnet", 42)
	raw, err := frame.Encode()
	if err != nil {
		t.Fatalf("encode frame: %v", err)
	}
	return []any{
		&Hello{AgentID: "agent-1"},
		&HelloAck{Cursor: 0},
		&HelloAck{Cursor: 1<<63 + 17},
		&Ack{Cursor: 12345},
		&Heartbeat{QueuedBatches: 7},
		&Batch{Seq: 1},
		&Batch{Seq: 9, Items: []Item{
			{TimeSec: 12.5, SNRDB: 23.25, Channel: 6, CardChannel: 6, LiveMask: 0b101, FromAP: false, HasFrame: true, Data: raw},
			{TimeSec: 13.0, SNRDB: -3, Channel: 11, CardChannel: 1, FromAP: true, Data: []byte{0xde, 0xad}},
			{TimeSec: 0, SNRDB: 0},
		}},
	}
}

func TestCodecRoundTrip(t *testing.T) {
	for _, msg := range sampleMessages(t) {
		buf, err := EncodeMessage(msg)
		if err != nil {
			t.Fatalf("encode %T: %v", msg, err)
		}
		got, n, err := DecodeMessage(buf)
		if err != nil {
			t.Fatalf("decode %T: %v", msg, err)
		}
		if n != len(buf) {
			t.Fatalf("decode %T consumed %d of %d bytes", msg, n, len(buf))
		}
		re, err := EncodeMessage(got)
		if err != nil {
			t.Fatalf("re-encode %T: %v", got, err)
		}
		if !bytes.Equal(re, buf) {
			t.Fatalf("%T re-encoding differs from original", msg)
		}
	}
}

func TestDecodeWithTrailingBytes(t *testing.T) {
	buf, err := EncodeMessage(&Ack{Cursor: 5})
	if err != nil {
		t.Fatal(err)
	}
	withJunk := append(append([]byte(nil), buf...), 0xFF, 0x00, 0x12)
	msg, n, err := DecodeMessage(withJunk)
	if err != nil {
		t.Fatalf("decode with trailing junk: %v", err)
	}
	if n != len(buf) {
		t.Fatalf("consumed %d, want %d", n, len(buf))
	}
	if ack, ok := msg.(*Ack); !ok || ack.Cursor != 5 {
		t.Fatalf("got %#v", msg)
	}
}

func TestDecodeRejects(t *testing.T) {
	good, err := EncodeMessage(&Hello{AgentID: "a"})
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(mut func(b []byte) []byte) []byte {
		b := append([]byte(nil), good...)
		return mut(b)
	}
	cases := map[string][]byte{
		"empty":       nil,
		"short":       good[:8],
		"bad magic":   mutate(func(b []byte) []byte { b[0] = 'X'; return b }),
		"bad version": mutate(func(b []byte) []byte { b[4] = 99; return b }),
		"bad type":    mutate(func(b []byte) []byte { b[5] = 200; return b }),
		"payload bit": mutate(func(b []byte) []byte { b[len(b)-6] ^= 0x10; return b }),
		"crc bit":     mutate(func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }),
		"truncated":   good[:len(good)-3],
	}
	for name, b := range cases {
		if _, _, err := DecodeMessage(b); err == nil {
			t.Errorf("%s: decode accepted corrupt input", name)
		}
	}
}

func TestDecodeRejectsBadPayloads(t *testing.T) {
	// Hand-build messages whose framing is fine but whose payloads lie.
	reframe := func(typ byte, payload []byte) []byte {
		msg := append([]byte(nil), magic[:]...)
		msg = append(msg, Version, typ)
		msg = append(msg, byte(len(payload)>>24), byte(len(payload)>>16), byte(len(payload)>>8), byte(len(payload)))
		msg = append(msg, payload...)
		sum := crc32.ChecksumIEEE(msg[4:])
		msg = append(msg, byte(sum>>24), byte(sum>>16), byte(sum>>8), byte(sum))
		return msg
	}
	cases := map[string][]byte{
		"hello empty id":     reframe(TypeHello, []byte{0, 0}),
		"hello short":        reframe(TypeHello, []byte{0, 5, 'a'}),
		"hello trailing":     reframe(TypeHello, []byte{0, 1, 'a', 'b'}),
		"ack short":          reframe(TypeAck, []byte{1, 2, 3}),
		"batch short":        reframe(TypeBatch, []byte{0}),
		"batch item lies":    reframe(TypeBatch, append(make([]byte, 8), 0, 0, 0, 2)),
		"heartbeat trailing": reframe(TypeHeartbeat, []byte{0, 0, 0, 1, 9}),
	}
	for name, b := range cases {
		if _, _, err := DecodeMessage(b); err == nil {
			t.Errorf("%s: decode accepted invalid payload", name)
		}
	}
}

func TestReadMessageStream(t *testing.T) {
	var stream bytes.Buffer
	msgs := sampleMessages(t)
	for _, m := range msgs {
		b, err := EncodeMessage(m)
		if err != nil {
			t.Fatal(err)
		}
		stream.Write(b)
	}
	for i := range msgs {
		got, err := ReadMessage(&stream)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		re1, _ := EncodeMessage(got)
		re2, _ := EncodeMessage(msgs[i])
		if !bytes.Equal(re1, re2) {
			t.Fatalf("message %d mismatch: %#v vs %#v", i, got, msgs[i])
		}
	}
	if _, err := ReadMessage(&stream); err != io.EOF {
		t.Fatalf("drained stream: %v, want io.EOF", err)
	}
}

func TestCaptureConversionRoundTrip(t *testing.T) {
	frame := dot11.NewProbeRequest(testMAC(9), "", 77)
	clean := sniffer.Capture{
		TimeSec: 41.25, Frame: frame, Channel: 6, CardChannel: 11,
		SNRDB: 17.5, FromAP: false, LiveMask: 0b11,
	}
	corrupt := sniffer.Capture{TimeSec: 42, Raw: []byte{1, 2, 3, 4}, Channel: 1, CardChannel: 1, SNRDB: 3}

	b, err := BatchFromCaptures(3, []sniffer.Capture{clean, corrupt})
	if err != nil {
		t.Fatal(err)
	}
	caps := b.ToCaptures()
	if len(caps) != 2 {
		t.Fatalf("got %d captures", len(caps))
	}
	got := caps[0]
	if got.Frame == nil {
		t.Fatal("clean capture lost its frame")
	}
	if got.Frame.Addr2 != frame.Addr2 || got.Frame.Seq != frame.Seq {
		t.Fatalf("frame identity changed: %v/%d", got.Frame.Addr2, got.Frame.Seq)
	}
	if got.TimeSec != clean.TimeSec || got.SNRDB != clean.SNRDB || got.Channel != clean.Channel ||
		got.CardChannel != clean.CardChannel || got.FromAP != clean.FromAP || got.LiveMask != clean.LiveMask {
		t.Fatalf("capture metadata changed: %+v", got)
	}
	if caps[1].Frame != nil || !bytes.Equal(caps[1].Raw, corrupt.Raw) {
		t.Fatalf("corrupt capture mutated: %+v", caps[1])
	}
}

func TestItemWithUndecodableFrameBytesQuarantines(t *testing.T) {
	b := &Batch{Seq: 1, Items: []Item{{HasFrame: true, Data: []byte{0xba, 0xdf, 0x00, 0xd5}}}}
	caps := b.ToCaptures()
	if len(caps) != 1 {
		t.Fatalf("got %d captures, want 1", len(caps))
	}
	if caps[0].Frame != nil {
		t.Fatal("undecodable frame bytes produced a decoded frame")
	}
	if !bytes.Equal(caps[0].Raw, b.Items[0].Data) {
		t.Fatalf("undecodable frame bytes should survive as Raw for quarantine, got %x", caps[0].Raw)
	}
}
