package capwire

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dot11"
	"repro/internal/sniffer"
)

// FuzzCapwireDecode is the codec's safety contract: arbitrary bytes
// never panic the decoder, and any message it accepts re-encodes to
// exactly the bytes it consumed — so a server that survives the fuzzer
// cannot be wedged or desynced by a hostile or fault-mangled agent. An
// accepted message read through a session's buffers that just held
// another batch decodes, and parses into captures, exactly as it does
// fresh.
func FuzzCapwireDecode(f *testing.F) {
	held := heldBatch(f)
	for _, msg := range []any{
		&Hello{AgentID: "agent-1"},
		&HelloAck{Cursor: 41},
		&Ack{Cursor: 1 << 40},
		&Heartbeat{QueuedBatches: 3},
		&Batch{Seq: 7, Items: []Item{
			{TimeSec: 1.5, SNRDB: 20, Channel: 6, CardChannel: 6, LiveMask: 1, HasFrame: true, Data: []byte{1, 2, 3}},
			{TimeSec: 2, FromAP: true},
		}},
	} {
		b, err := EncodeMessage(msg)
		if err != nil {
			f.Fatalf("seed encode %T: %v", msg, err)
		}
		f.Add(b)
		// Mutated variants: flipped CRC, truncated tail, version skew.
		flip := append([]byte(nil), b...)
		flip[len(flip)-1] ^= 0xFF
		f.Add(flip)
		f.Add(b[:len(b)-2])
		skew := append([]byte(nil), b...)
		skew[4] = 2
		f.Add(skew)
	}
	f.Add([]byte("MRCW"))
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	empty, err := EncodeMessage(&Batch{Seq: 2})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty)
	f.Add(held)

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, n, err := DecodeMessage(data)
		if err != nil {
			if msg != nil || n != 0 {
				t.Fatalf("error with non-zero result: msg=%v n=%d", msg, n)
			}
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("accepted message consumed %d of %d bytes", n, len(data))
		}
		re, err := EncodeMessage(msg)
		if err != nil {
			t.Fatalf("accepted message failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("lossy decode: consumed %x, re-encoded %x", data[:n], re)
		}
		checkReuse(t, held, data[:n], msg)
	})
}

// heldBatch encodes the batch a session's buffers hold before the
// message under test: more items than a small message has, frames with
// several information elements, and a raw capture.
func heldBatch(tb testing.TB) []byte {
	tb.Helper()
	caps := make([]sniffer.Capture, 0, 40)
	for i := 0; i < 39; i++ {
		src := dot11.MAC{0x02, 0xaa, 0, 0, 0, byte(i)}
		caps = append(caps, sniffer.Capture{TimeSec: float64(i), Channel: 6, CardChannel: 6, SNRDB: 9,
			Frame: dot11.NewProbeResponse(src, dot11.MAC{0x02, 0xbb}, "held-network", 6, uint16(i))})
	}
	caps = append(caps, sniffer.Capture{TimeSec: 40, Raw: bytes.Repeat([]byte{0xa5}, 64)})
	b, err := BatchFromCaptures(7, caps)
	if err != nil {
		tb.Fatal(err)
	}
	buf, err := EncodeMessage(b)
	if err != nil {
		tb.Fatal(err)
	}
	return buf
}

// checkReuse reads msgBytes through session buffers that first served
// the held batch, and requires the message fresh decoding gave (fresh)
// and, for a batch, the same captures as a fresh ToCaptures.
func checkReuse(t *testing.T, held, msgBytes []byte, fresh any) {
	t.Helper()
	var sb sessionBufs
	if _, err := sb.rd.read(bytes.NewReader(held)); err != nil {
		t.Fatalf("held batch: %v", err)
	}
	sb.ar.captures(sb.rd.batch.Items)
	sb.release()
	got, err := sb.rd.read(bytes.NewReader(msgBytes))
	if err != nil {
		t.Fatalf("reused buffers reject what DecodeMessage accepts: %v", err)
	}
	if re, err := EncodeMessage(got); err != nil || !bytes.Equal(re, msgBytes) {
		t.Fatalf("reused buffers decode %#v, fresh %#v", got, fresh)
	}
	b, ok := got.(*Batch)
	if !ok {
		return
	}
	fb := fresh.(*Batch)
	for i := range b.Items {
		if !reflect.DeepEqual(b.Items[i], fb.Items[i]) {
			t.Fatalf("item %d: reused buffers decode %+v, fresh %+v", i, b.Items[i], fb.Items[i])
		}
	}
	want := fb.ToCaptures()
	caps := sb.ar.captures(b.Items)
	if len(caps) != len(want) {
		t.Fatalf("%d captures from reused buffers, %d fresh", len(caps), len(want))
	}
	for i := range caps {
		if msg := captureDiff(caps[i], want[i]); msg != "" {
			t.Fatalf("capture %d: %s", i, msg)
		}
	}
}

// captureDiff describes how two captures differ, frames compared by
// their wire encoding, or returns "".
func captureDiff(a, b sniffer.Capture) string {
	if (a.Frame == nil) != (b.Frame == nil) {
		return fmt.Sprintf("frame %v vs %v", a.Frame, b.Frame)
	}
	if a.Frame != nil {
		ea, erra := a.Frame.Encode()
		eb, errb := b.Frame.Encode()
		if erra != nil || errb != nil || !bytes.Equal(ea, eb) || !reflect.DeepEqual(a.Frame, b.Frame) {
			return fmt.Sprintf("frame %+v vs %+v", a.Frame, b.Frame)
		}
	}
	a.Frame, b.Frame = nil, nil
	if !reflect.DeepEqual(a, b) {
		return fmt.Sprintf("%+v vs %+v", a, b)
	}
	return ""
}
