package engine

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/dot11"
	"repro/internal/sniffer"
)

// TestIngestKeepsNoCaptureMemory pins the lifetime contract of
// IngestCapturesFrom: it keeps no reference into the captures it is
// handed. One engine ingests captures whose frames were parsed in place
// over a shared buffer (their IEs, directed-probe SSIDs included, alias
// it, and the raw captures are slices of it), and the buffer is then
// overwritten. Its saved store and quarantine must equal those of an
// engine fed private copies.
func TestIngestKeepsNoCaptureMemory(t *testing.T) {
	ap, dev := mac(0xA0, 1), mac(0xD0, 1)
	frames := []*dot11.Frame{
		dot11.NewProbeRequest(dev, "home-network", 1),
		dot11.NewProbeRequest(mac(0xD0, 2), "office", 2),
		dot11.NewProbeRequest(dev, "", 3),
		dot11.NewProbeResponse(ap, dev, "campus", 6, 4),
		dot11.NewBeacon(mac(0xA0, 2), "campus", 11, 99, 5),
	}
	var buf []byte
	var spans [][2]int
	for _, f := range frames {
		from := len(buf)
		var err error
		if buf, err = f.AppendEncode(buf); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, [2]int{from, len(buf)})
	}
	// A raw capture that decodes on the engine's retry, and one that
	// does not.
	retry := spans[0]
	junkFrom := len(buf)
	buf = append(buf, 0xde, 0xad, 0xbe, 0xef)
	pristine := bytes.Clone(buf)

	aliased := make([]sniffer.Capture, 0, len(frames)+2)
	private := make([]sniffer.Capture, 0, len(frames)+2)
	arena := make([]dot11.Frame, len(frames))
	for i, s := range spans {
		if err := arena[i].Parse(buf[s[0]:s[1]]); err != nil {
			t.Fatal(err)
		}
		own, err := dot11.Decode(pristine[s[0]:s[1]])
		if err != nil {
			t.Fatal(err)
		}
		fromAP := frames[i].Subtype != dot11.SubtypeProbeRequest
		aliased = append(aliased, sniffer.Capture{TimeSec: float64(10 + i), Frame: &arena[i], FromAP: fromAP, CardChannel: 6})
		private = append(private, sniffer.Capture{TimeSec: float64(10 + i), Frame: own, FromAP: fromAP, CardChannel: 6})
	}
	aliased = append(aliased,
		sniffer.Capture{TimeSec: 20, Raw: buf[retry[0]:retry[1]], CardChannel: 1},
		sniffer.Capture{TimeSec: 21, Raw: buf[junkFrom:], CardChannel: 11})
	private = append(private,
		sniffer.Capture{TimeSec: 20, Raw: bytes.Clone(pristine[retry[0]:retry[1]]), CardChannel: 1},
		sniffer.Capture{TimeSec: 21, Raw: bytes.Clone(pristine[junkFrom:]), CardChannel: 11})

	got := testEngine(t, Config{WindowSec: 30})
	want := testEngine(t, Config{WindowSec: 30})
	if n := got.IngestCapturesFrom("agent:a", aliased); n != len(frames)+1 {
		t.Fatalf("ingested %d captures, want %d", n, len(frames)+1)
	}
	for i := range buf {
		buf[i] = 0xa5
	}
	want.IngestCapturesFrom("agent:a", private)

	var gotSave, wantSave bytes.Buffer
	if err := got.Store().Save(&gotSave); err != nil {
		t.Fatal(err)
	}
	if err := want.Store().Save(&wantSave); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotSave.Bytes(), wantSave.Bytes()) {
		t.Fatalf("store saved after the buffer was overwritten differs:\n got %s\nwant %s", gotSave.Bytes(), wantSave.Bytes())
	}
	if !bytes.Contains(wantSave.Bytes(), []byte("home-network")) {
		t.Fatalf("the saved store holds no probed SSID, so the test checks nothing of them:\n%s", wantSave.Bytes())
	}
	if q, wq := got.Quarantine(), want.Quarantine(); !reflect.DeepEqual(q, wq) || q.Total != 1 {
		t.Fatalf("quarantine %+v, want %+v with one capture", q, wq)
	}
}
