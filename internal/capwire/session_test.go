package capwire

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/dot11"
	"repro/internal/sniffer"
)

// batchMessage encodes a batch of n probe requests with sequence seq.
func batchMessage(tb testing.TB, seq uint64, n int) []byte {
	tb.Helper()
	b, err := BatchFromCaptures(seq, uniqueCaptures(0x40, 0, n))
	if err != nil {
		tb.Fatal(err)
	}
	msg, err := EncodeMessage(b)
	if err != nil {
		tb.Fatal(err)
	}
	return msg
}

// readFrames is an Ingest callback that only reads what it is handed,
// keeping nothing.
func readFrames(_ string, caps []sniffer.Capture) int {
	n := 0
	for _, c := range caps {
		if c.Frame != nil && len(c.Frame.IEs) > 0 && c.Frame.IEs[0].ID == dot11.EIDSSID {
			n++
		}
	}
	return n
}

// sessionRig is a server with one agent and one session's buffers: the
// per-batch path without a connection.
type sessionRig struct {
	srv *Server
	st  *agentState
	sb  *sessionBufs
	r   bytes.Reader
}

func newSessionRig(tb testing.TB) *sessionRig {
	tb.Helper()
	srv, err := NewServer(ServerConfig{Ingest: readFrames})
	if err != nil {
		tb.Fatal(err)
	}
	return &sessionRig{srv: srv, st: srv.agent("rig-agent"), sb: new(sessionBufs)}
}

// serve runs msg, a batch of seq 1, through the session's per-batch
// path: read, decode, captures, Ingest, release and ack. The agent's
// cursor is rewound first so the batch is always ingested, never
// deduplicated.
func (rg *sessionRig) serve(tb testing.TB, msg []byte) {
	rg.st.cursor = 0
	rg.r.Reset(msg)
	cur, err := rg.srv.step(rg.st, rg.sb, &rg.r)
	if err != nil || cur != 1 {
		tb.Fatalf("step: cursor %d, %v; want 1", cur, err)
	}
	if err := rg.sb.writeAck(io.Discard, cur); err != nil {
		tb.Fatal(err)
	}
}

// TestServerBatchPathAllocs: a batch crosses the server in a fixed
// number of allocations, whatever its item count. The session reuses its
// read buffer, items, frame arena, captures and ack buffer.
func TestServerBatchPathAllocs(t *testing.T) {
	allocs := map[int]float64{}
	for _, n := range []int{16, 256} {
		rg := newSessionRig(t)
		msg := batchMessage(t, 1, n)
		allocs[n] = testing.AllocsPerRun(100, func() { rg.serve(t, msg) })
		if s := rg.st.statusLocked(time.Now()); s.FramesIngested != uint64(101*n) || s.FramesQuarantined != 0 {
			t.Fatalf("%d-item batches: ingested %d, quarantined %d; want %d, 0", n, s.FramesIngested, s.FramesQuarantined, 101*n)
		}
	}
	if allocs[16] != allocs[256] || allocs[256] != 0 {
		t.Fatalf("allocations per batch: %v for 16 items, %v for 256; want 0 for both", allocs[16], allocs[256])
	}
}

// TestSessionKeepsBoundedMemory: neither a batch near MaxPayload nor one
// whose parsed IE storage dwarfs its wire bytes stays pinned by the
// session, a 256-item batch is kept for reuse, and no
// capture, frame or item keeps a reference into the read buffer once
// the batch is ingested.
func TestSessionKeepsBoundedMemory(t *testing.T) {
	raw, err := dot11.NewProbeRequest(testMAC(3), "big-batch-network-name-0123456789", 1).Encode()
	if err != nil {
		t.Fatal(err)
	}
	big := &Batch{Seq: 1, Items: make([]Item, MaxBatchItems)}
	for i := range big.Items {
		big.Items[i] = Item{TimeSec: float64(i), HasFrame: true, Data: raw}
	}
	bigMsg, err := EncodeMessage(big)
	if err != nil {
		t.Fatal(err)
	}
	if len(bigMsg) < MaxPayload/2 {
		t.Fatalf("big batch is %d bytes, want near MaxPayload (%d)", len(bigMsg), MaxPayload)
	}

	// One frame of empty elements: small on the wire, but its parsed IE
	// storage takes 16 times its bytes.
	many := &dot11.Frame{Type: dot11.TypeManagement, Subtype: dot11.SubtypeProbeRequest}
	for len(many.IEs) < (maxItemData-64)/2 {
		many.IEs = append(many.IEs, dot11.IE{ID: 221, Data: []byte{}})
	}
	manyBatch, err := BatchFromCaptures(1, []sniffer.Capture{{Frame: many}})
	if err != nil {
		t.Fatal(err)
	}
	manyMsg, err := EncodeMessage(manyBatch)
	if err != nil {
		t.Fatal(err)
	}

	rg := newSessionRig(t)
	for _, step := range []struct {
		name string
		msg  []byte
		kept bool // the session keeps its buffers for the next batch
	}{
		{"256-item batch", batchMessage(t, 1, 256), true},
		{"frame of many elements", manyMsg, false},
		{"near-MaxPayload batch", bigMsg, false},
		{"16-item batch", batchMessage(t, 1, 16), true},
	} {
		rg.serve(t, step.msg)
		sb := rg.sb
		fp := sb.footprint()
		if fp > keepBytes {
			t.Fatalf("after the %s the session holds %d bytes, more than keepBytes (%d)", step.name, fp, keepBytes)
		}
		if (fp > 0) != step.kept {
			t.Fatalf("after the %s the session holds %d bytes; want kept=%v", step.name, fp, step.kept)
		}
		if err := noReferences(sb); err != nil {
			t.Fatalf("after the %s: %v", step.name, err)
		}
	}
}

// noReferences reports a capture, frame or item of sb that still points
// into a message.
func noReferences(sb *sessionBufs) error {
	for i, it := range sb.rd.batch.Items {
		if it.Data != nil {
			return fmt.Errorf("item %d keeps its data", i)
		}
	}
	for i, c := range sb.ar.caps {
		if c.Frame != nil || c.Raw != nil {
			return fmt.Errorf("capture %d keeps a frame or raw bytes", i)
		}
	}
	for i := range sb.ar.frames {
		for j, ie := range sb.ar.frames[i].IEs {
			if ie.Data != nil {
				return fmt.Errorf("frame %d IE %d keeps its data", i, j)
			}
		}
	}
	return nil
}

// BenchmarkCapwireServerBatch drives the server's per-batch path (read,
// decode, captures, a read-only Ingest, ack) from an in-memory reader;
// it reports ns per frame.
func BenchmarkCapwireServerBatch(b *testing.B) {
	for _, n := range []int{16, 256} {
		b.Run(fmt.Sprintf("items=%d", n), func(b *testing.B) {
			rg := newSessionRig(b)
			msg := batchMessage(b, 1, n)
			b.SetBytes(int64(len(msg)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rg.serve(b, msg)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/frame")
		})
	}
}
