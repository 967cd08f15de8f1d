package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dot11"
	"repro/internal/geom"
	"repro/internal/sniffer"
)

func TestQuantileSampleRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: quantile must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		q      float64
		value  float64
		capped bool
		gotQ   float64
	}{
		{n: 1000, q: 0.99, value: 990, gotQ: 0.99},              // exactly 10 beyond
		{n: 500, q: 0.99, value: 490, capped: true, gotQ: 0.98}, // p99 has 5 beyond
		{n: 101, q: 0.5, value: 51, gotQ: 0.5},
		{n: 8, q: 0.99, value: 8, capped: true, gotQ: 1}, // too few: the maximum
		{n: 2000, q: 0.99, value: 1980, gotQ: 0.99},
	} {
		p := quantile(seq(tc.n), tc.q)
		if p.Value != tc.value || p.Capped != tc.capped || math.Abs(p.Q-tc.gotQ) > 1e-12 || p.N != tc.n {
			t.Errorf("n=%d q=%v: got %+v, want value %v capped %v q %v", tc.n, tc.q, p, tc.value, tc.capped, tc.gotQ)
		}
		if p.Capped != (p.note("p99") != "") {
			t.Errorf("n=%d: note %q disagrees with capped=%v", tc.n, p.note("p99"), p.Capped)
		}
	}
	if p := quantile(nil, 0.5); !math.IsNaN(p.Value) {
		t.Errorf("empty: got %v, want NaN", p.Value)
	}
}

func TestWindowMedianThroughput(t *testing.T) {
	at := func(s float64) stamp { return stamp(s * float64(time.Second)) }
	// Rates per window: 100, 300, 200, 1000 (a burst), 200 items/s.
	marks := []mark{
		{at: at(0), items: 0, cpu: 0},
		{at: at(1), items: 100, cpu: time.Second},
		{at: at(2), items: 400, cpu: 2 * time.Second},
		{at: at(3), items: 600, cpu: 3 * time.Second},
		{at: at(3.5), items: 1100, cpu: 4 * time.Second},
		{at: at(4.5), items: 1300, cpu: 5 * time.Second},
	}
	w := sumWindows(marks, nil)
	if got := median(w.rates); got != 200 {
		t.Errorf("median rate %v, want 200 (the burst window must not move it)", got)
	}
	if w.items != 1300 || len(w.rates) != 5 {
		t.Errorf("items %d windows %d, want 1300 and 5", w.items, len(w.rates))
	}
	// One CPU-second per window over 100, 300, 200, 500 and 200 items.
	if got := median(w.cpuPer); math.Abs(got-1e9/200) > 1e-6 {
		t.Errorf("median cpu per item %v, want %v", got, 1e9/200.0)
	}
	even := sumWindows(marks, func(i int) bool { return i%2 == 0 })
	if len(even.rates) != 3 || even.items != 100+200+200 || median(even.rates) != 200 {
		t.Errorf("even windows: %d windows, %d items, median %v", len(even.rates), even.items, median(even.rates))
	}
	if !even.contains(at(0.5)) || even.contains(at(1.5)) || even.contains(at(4.5)) {
		t.Error("contains: want [0,1) in and [1,2) and the end bound out")
	}
}

func TestOpenLoopFreshnessAndLateness(t *testing.T) {
	ms := func(v float64) stamp { return stamp(v * float64(time.Millisecond)) }
	due := []stamp{ms(0), ms(20), ms(40), ms(60)}
	started := []stamp{ms(1), ms(35), ms(41), ms(60)} // the second send ran 15 ms late
	ingested := []stamp{ms(5), ms(38), ms(45), ms(90)}
	// Frames: [2,12) [12,30) [30,50) [50,70); the last batch is never shown.
	starts := []stamp{ms(2), ms(12), ms(30), ms(50)}
	ends := []stamp{ms(12), ms(30), ms(50), ms(70)}
	got := freshness(due, ingested, starts, ends)
	// Batch 0 ingested at 5: first frame starting after is at 12, ends 30.
	// Batch 1 ingested at 38 → frame at 50 ends 70, measured from due 20.
	// Batch 2 ingested at 45 → same frame, from due 40.
	want := []float64{30, 50, 30}
	if len(got) != len(want) {
		t.Fatalf("got %d samples, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i].ms-want[i]) > 1e-9 {
			t.Errorf("batch %d: freshness %v ms, want %v", i, got[i].ms, want[i])
		}
	}
	if got[1].at != ms(70) {
		t.Errorf("freshness sample completes at the frame's end, got %v", time.Duration(got[1].at))
	}
	late := lateness(due, started)
	if late[1] != 15 || late[3] != 0 {
		t.Errorf("lateness %v, want 15 ms for the second send and 0 for the last", late)
	}
}

func TestLedgerArithmetic(t *testing.T) {
	spans := []span{
		{Name: spanSend, Key: 1, Start: 0, End: 100, N: 10, Blocked: true},
		{Name: spanSend, Key: 2, Start: 100, End: 300, N: 10},
		{Name: spanIngest, Key: 1, Start: 1100, End: 1200, N: 10},
		{Name: spanIngest, Key: 3, Start: 5000, End: 5100, N: 10}, // its send was not traced
	}
	ls := sumLayers(spans)
	if s := ls[spanSend]; s.calls != 2 || s.n != 20 || s.nsPer() != 15 || s.blocked != 1 {
		t.Errorf("send sum %+v, want 2 calls, 20 frames, 15 ns/frame, 1 blocked", *s)
	}
	if line, err := json.Marshal(spans[0]); err != nil || !strings.Contains(string(line), `"name":"capwire.send"`) {
		t.Errorf("span JSON %s (%v): want the name spelled out", line, err)
	}
	tr := transitsUS(spans)
	if len(tr) != 1 || tr[0] != 1 {
		t.Errorf("transits %v µs, want one pairing of 1 µs", tr)
	}
	for _, tc := range []struct {
		layers, e2e float64
		ok          bool
	}{{100, 100, true}, {75, 100, true}, {125, 100, true}, {74, 100, false}, {126, 100, false}, {1, 0, false}} {
		if c := reconcile("x", tc.layers, tc.e2e, "ns"); c.OK != tc.ok {
			t.Errorf("reconcile(%v, %v) ok=%v, want %v", tc.layers, tc.e2e, c.OK, tc.ok)
		}
	}
}

func TestSameTrackIsBitExact(t *testing.T) {
	pts := []core.TrackPoint{{TimeSec: 5, Est: core.Estimate{Pos: geom.Pt(1, 2), K: 3, Method: "m-loc",
		Vertices: []geom.Point{geom.Pt(0, 0), geom.Pt(1, 1)}}}}
	if err := sameTrack(pts, pts); err != nil {
		t.Fatal(err)
	}
	off := []core.TrackPoint{pts[0]}
	off[0].Est.Vertices = []geom.Point{geom.Pt(0, 0), geom.Pt(1, math.Nextafter(1, 2))}
	if sameTrack(pts, off) == nil {
		t.Error("a one-ulp vertex difference must fail the check")
	}
}

func TestOffHeapCapturesSurviveGC(t *testing.T) {
	caps := func() []sniffer.Capture {
		return []sniffer.Capture{
			{TimeSec: 1, Channel: 6, CardChannel: 6, SNRDB: 21.5, FromAP: true, LiveMask: 3, Frame: &dot11.Frame{
				Type: dot11.TypeManagement, Subtype: dot11.SubtypeProbeRequest, Addr2: dot11.MAC{2, 0, 0, 0, 0, 7}, Seq: 42,
				IEs: []dot11.IE{{ID: 0, Data: []byte("campus")}, {ID: 1}},
			}},
			{TimeSec: 2, Raw: []byte{0xde, 0xad}},
			{TimeSec: 3, Raw: []byte{}},
		}
	}
	var mem offHeap
	defer mem.release()
	got, err := mem.captures(caps())
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC() // nothing on the heap holds the originals any more
	runtime.GC()
	if want := caps(); !reflect.DeepEqual(got, want) {
		t.Fatalf("off-heap copy %+v, want %+v", got, want)
	}
}

func TestHostProbe(t *testing.T) {
	m, keys := make(map[uint64]uint64, 1024), make([]uint64, 0, 1024)
	if n := testing.AllocsPerRun(20, func() { probeKernel(m, keys, 1) }); n != 0 {
		t.Errorf("probeKernel allocates %v times per pass; it must not, or GC assists land on it", n)
	}
	sec := stamp(time.Second)
	h := &hostProbe{
		at:   []stamp{0, sec, 2 * sec, 3 * sec},
		cost: []float64{probeNominalNs, 2 * probeNominalNs, 3 * probeNominalNs, 9 * probeNominalNs},
	}
	if f := h.factor(func(t stamp) bool { return t < 5*sec/2 }); f != 2 {
		t.Errorf("factor over the first three samples %v, want their median 2", f)
	}
	if f := h.factor(func(stamp) bool { return false }); f != 2.5 {
		t.Errorf("factor with no sample kept %v, want the median of all, 2.5", f)
	}
	if f := (&hostProbe{}).factor(func(stamp) bool { return true }); f != 1 {
		t.Errorf("factor with no samples %v, want 1", f)
	}
}

// benchmarkJSON is the part of BENCHMARK.json the benchmark's output must
// match.
type benchmarkJSON struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSmokeAllWorkloads runs every workload at test scale, traced, and
// checks that each emits every metric BENCHMARK.json names, finite and
// with its unit, and that nothing failed.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "report.json")
	var stdout, stderr bytes.Buffer
	start := time.Now()
	code := run([]string{"-workload", "all", "-smoke", "-seconds", "2", "-trace", "1", "-seed", "7",
		"-out", out, "-spans", dir}, &stdout, &stderr)
	t.Logf("smoke run took %v", time.Since(start))
	if code != 0 {
		t.Fatalf("exit %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var reports map[string]*result
	if err := json.Unmarshal(data, &reports); err != nil {
		t.Fatal(err)
	}
	check := func(wl, kind string, m map[string]metricV, want []struct{ Name, Unit string }) {
		for _, w := range want {
			v, ok := m[w.Name]
			switch {
			case !ok:
				t.Errorf("%s: %s metric %s missing", wl, kind, w.Name)
			case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
				t.Errorf("%s: %s = %v", wl, w.Name, v.Value)
			case v.Unit != w.Unit:
				t.Errorf("%s: %s unit %q, BENCHMARK.json says %q", wl, w.Name, v.Unit, w.Unit)
			}
		}
	}
	for _, wl := range workloads {
		res := reports[wl.name]
		if res == nil {
			t.Fatalf("no report for %s", wl.name)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d %v", wl.name, res.Correct, res.Attempted, res.Failed, res.Failures)
		}
		if rate := res.Extra["error_rate"].Value; rate != 0 {
			t.Errorf("%s: error_rate %v", wl.name, rate)
		}
		check(wl.name, "end-to-end", res.EndToEnd, b.EndToEnd)
		check(wl.name, "per-layer", res.Layers, b.PerLayer)
		if res.Spans == nil || res.Spans.Count == 0 {
			t.Errorf("%s: no spans recorded", wl.name)
		} else if fi, err := os.Stat(res.Spans.File); err != nil || fi.Size() == 0 {
			t.Errorf("%s: span file %s: %v", wl.name, res.Spans.File, err)
		}
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not the summary: %v", err)
	}
	if !last.Correct || last.Failed != 0 || len(last.Metrics) != len(workloads)*len(b.PerLayer) {
		t.Errorf("summary: correct=%v failed=%d with %d metrics", last.Correct, last.Failed, len(last.Metrics))
	}
}

func TestOutputNamesMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	same := func(kind string, got []string, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: benchmark emits %d metrics, BENCHMARK.json lists %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i].Name {
				t.Errorf("%s %d: benchmark %q, BENCHMARK.json %q", kind, i, got[i], want[i].Name)
			}
		}
	}
	same("end_to_end", endToEndNames, b.EndToEnd)
	same("per_layer", layerNamesOut, b.PerLayer)
}
