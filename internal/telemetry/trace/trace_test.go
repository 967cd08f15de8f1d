package trace

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestNewValidation(t *testing.T) {
	for _, bad := range []Config{
		{Sample: -0.1},
		{Sample: 1.5},
		{Buffer: -1},
		{Devices: -1},
	} {
		if _, err := New(bad); err == nil {
			t.Errorf("New(%+v): want error", bad)
		}
	}
	tr, err := New(Config{})
	if err != nil {
		t.Fatalf("New(zero config): %v", err)
	}
	st := tr.Stats()
	if st.SampleEvery != 1 || st.Buffer != 256 {
		t.Errorf("defaults = every %d buffer %d, want 1 and 256", st.SampleEvery, st.Buffer)
	}
}

func TestSampleEveryResolution(t *testing.T) {
	for _, tc := range []struct {
		sample float64
		want   int
	}{
		{0, 1}, {1, 1}, {0.5, 2}, {0.25, 4}, {0.1, 10}, {0.001, 1000},
	} {
		tr, err := New(Config{Sample: tc.sample})
		if err != nil {
			t.Fatalf("Sample=%v: %v", tc.sample, err)
		}
		if got := tr.SampleEvery(); got != tc.want {
			t.Errorf("Sample=%v resolved to every %d, want %d", tc.sample, got, tc.want)
		}
	}
}

func TestSamplingStride(t *testing.T) {
	tr, _ := New(Config{Sample: 0.25})
	sampled := 0
	for i := 0; i < 100; i++ {
		if x := tr.Start(KindFix, "d"); x != nil {
			sampled++
			x.Finish(time.Now(), 0, nil)
		}
	}
	if sampled != 25 {
		t.Errorf("sampled %d of 100 at 1-in-4, want 25", sampled)
	}
	if st := tr.Stats(); st.Finished != 25 {
		t.Errorf("Finished = %d, want 25", st.Finished)
	}
}

func TestRingOrderAndOverwrite(t *testing.T) {
	tr, _ := New(Config{Buffer: 4})
	for i := 0; i < 6; i++ {
		x := tr.Start(KindFix, fmt.Sprintf("dev-%d", i))
		x.Finish(time.Now(), 0, nil)
	}
	recent := tr.Recent(0)
	if len(recent) != 4 {
		t.Fatalf("Recent(0) returned %d records, want ring capacity 4", len(recent))
	}
	// Newest first: devices 5, 4, 3, 2 survive; 0 and 1 were overwritten.
	for i, want := range []string{"dev-5", "dev-4", "dev-3", "dev-2"} {
		if recent[i].Device != want {
			t.Errorf("Recent[%d].Device = %s, want %s", i, recent[i].Device, want)
		}
	}
	if got := tr.Recent(2); len(got) != 2 || got[0].Device != "dev-5" {
		t.Errorf("Recent(2) = %d records starting %s, want 2 starting dev-5", len(got), got[0].Device)
	}
	st := tr.Stats()
	if st.Finished != 6 || st.Buffered != 4 {
		t.Errorf("Stats = %+v, want Finished 6 Buffered 4", st)
	}
}

func TestExplainIndex(t *testing.T) {
	tr, _ := New(Config{})
	if _, ok := tr.Explain("aa"); ok {
		t.Fatal("Explain on empty tracer reported a record")
	}
	x := tr.Start(KindFix, "aa")
	x.Finish(time.Now(), 0, &Provenance{Algorithm: "m-loc", K: 3})
	x = tr.Start(KindFix, "aa")
	x.Finish(time.Now(), 0, &Provenance{Algorithm: "m-loc", K: 5})
	p, ok := tr.Explain("aa")
	if !ok {
		t.Fatal("Explain missed a finished provenance")
	}
	if p.K != 5 {
		t.Errorf("Explain K = %d, want the latest record's 5", p.K)
	}
	if p.Device != "aa" || p.TraceID == "" {
		t.Errorf("Finish did not stamp device/trace ID: %+v", p)
	}
}

func TestExplainIndexEviction(t *testing.T) {
	tr, _ := New(Config{Devices: 3})
	for i := 0; i < 3; i++ {
		x := tr.Start(KindFix, fmt.Sprintf("dev-%d", i))
		x.Finish(time.Now(), 0, &Provenance{})
	}
	// A fourth distinct device trips the wholesale clear.
	x := tr.Start(KindFix, "dev-3")
	x.Finish(time.Now(), 0, &Provenance{})
	if st := tr.Stats(); st.Devices != 1 {
		t.Errorf("after eviction index holds %d devices, want 1", st.Devices)
	}
	if _, ok := tr.Explain("dev-3"); !ok {
		t.Error("the record that triggered eviction was lost")
	}
	// Re-recording a known device at the cap must not clear.
	tr2, _ := New(Config{Devices: 1})
	x = tr2.Start(KindFix, "same")
	x.Finish(time.Now(), 0, &Provenance{K: 1})
	x = tr2.Start(KindFix, "same")
	x.Finish(time.Now(), 0, &Provenance{K: 2})
	if p, ok := tr2.Explain("same"); !ok || p.K != 2 {
		t.Errorf("known-device update at cap: got %+v ok=%v, want K=2", p, ok)
	}
}

func TestFinishRecordsSpans(t *testing.T) {
	tr, _ := New(Config{})
	x := tr.Start(KindFix, "d")
	start := time.UnixMicro(1_000_000)
	stages := map[string]float64{"window_assembly": 0.004, "localize": 0.0065}
	x.Finish(start, 12*time.Microsecond, &Provenance{StagesMs: stages},
		Span{Name: "window_assembly", DurUS: 4, Attrs: map[string]any{"records": 7}},
		Span{Name: "localize", StartUS: 4, DurUS: 6, Attrs: map[string]any{"cache_hit": true}})
	rec := tr.Recent(1)[0]
	if len(rec.Spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(rec.Spans))
	}
	if rec.Spans[0].Name != "window_assembly" || rec.Spans[0].Attrs["records"] != 7 {
		t.Errorf("span 0 = %+v, want window_assembly with records=7", rec.Spans[0])
	}
	if rec.Spans[1].StartUS != 4 || rec.Spans[1].DurUS != 6 {
		t.Errorf("span 1 = %+v, want start 4 µs, duration 6 µs", rec.Spans[1])
	}
	if rec.Start != 1_000_000 || rec.DurUS != 12 {
		t.Errorf("record start %d dur %d, want the caller's 1000000 and 12", rec.Start, rec.DurUS)
	}
	// The caller's stage durations are kept as given, not re-derived from
	// the microsecond-rounded spans.
	if got := rec.Provenance.StagesMs; got["localize"] != 0.0065 || len(got) != 2 {
		t.Errorf("StagesMs = %v, want the caller's %v", got, stages)
	}
}

func TestDoubleFinishAndLateSpan(t *testing.T) {
	tr, _ := New(Config{})
	x := tr.Start(KindFix, "d")
	x.Finish(time.Now(), 0, nil, Span{Name: "early"})
	x.Finish(time.Now(), 0, nil, Span{Name: "late"}) // second finish is a no-op
	if st := tr.Stats(); st.Finished != 1 {
		t.Errorf("double Finish recorded %d traces, want 1", st.Finished)
	}
	if rec := tr.Recent(1)[0]; len(rec.Spans) != 1 || rec.Spans[0].Name != "early" {
		t.Errorf("spans after double finish = %+v, want only early", rec.Spans)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Error("nil tracer reports Enabled")
	}
	if tr.SampleEvery() != 0 {
		t.Error("nil tracer SampleEvery != 0")
	}
	if tr.Start(KindFix, "d") != nil {
		t.Fatal("nil tracer Start returned a trace")
	}
	if tr.Recent(5) != nil {
		t.Error("nil tracer Recent != nil")
	}
	if _, ok := tr.Explain("d"); ok {
		t.Error("nil tracer Explain reported a record")
	}
	if tr.Stats() != (Stats{}) {
		t.Error("nil tracer Stats not zero")
	}
	var x *Trace
	if x.ID() != "" {
		t.Error("nil trace ID not empty")
	}
	x.Finish(time.Now(), 0, &Provenance{}, Span{Name: "s"}) // absorbed
}

func TestTraceIDsDistinct(t *testing.T) {
	tr, _ := New(Config{Buffer: 64})
	seen := make(map[string]bool)
	for i := 0; i < 64; i++ {
		x := tr.Start(KindFix, "d")
		id := x.ID()
		if len(id) != 16 {
			t.Fatalf("trace ID %q is not 16 hex digits", id)
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %s", id)
		}
		seen[id] = true
		x.Finish(time.Now(), 0, nil)
	}
}

func TestConcurrentTracing(t *testing.T) {
	tr, _ := New(Config{Sample: 0.5, Buffer: 32})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				x := tr.Start(KindFix, fmt.Sprintf("dev-%d", g))
				x.Finish(time.Now(), 0, &Provenance{K: i},
					Span{Name: "localize", Attrs: map[string]any{"i": i}})
			}
		}(g)
	}
	wg.Wait()
	st := tr.Stats()
	if st.Finished != 800 {
		t.Errorf("Finished = %d, want 800 (half of 1600 at 1-in-2)", st.Finished)
	}
	if st.Buffered != 32 {
		t.Errorf("Buffered = %d, want full ring of 32", st.Buffered)
	}
}

func TestRecordJSONShape(t *testing.T) {
	tr, _ := New(Config{})
	x := tr.Start(KindFix, "02:aa:00:00:00:01")
	x.Finish(time.Now(), 0, &Provenance{
		Algorithm: "m-loc", Gamma: []string{"02:bb:00:00:00:01"}, K: 1,
		Located: true, IntersectedAreaM2: 12.5, Theorem2AreaM2: 14.1, CacheHit: true,
	}, Span{Name: "localize", DurUS: 3, Attrs: map[string]any{"cache_hit": true}})
	b, err := json.Marshal(tr.Recent(1)[0])
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	prov, ok := m["provenance"].(map[string]any)
	if !ok {
		t.Fatalf("no provenance object in %s", b)
	}
	for _, key := range []string{
		"traceId", "device", "algorithm", "gamma", "k",
		"intersectedAreaM2", "theorem2AreaM2", "cacheHit", "stagesMs", "totalMs",
	} {
		if _, ok := prov[key]; !ok {
			t.Errorf("provenance JSON missing %q: %s", key, b)
		}
	}
	spans, ok := m["spans"].([]any)
	if !ok || len(spans) != 1 {
		t.Fatalf("want one span in %s", b)
	}
	for _, key := range []string{"name", "startUs", "durUs", "attrs"} {
		if _, ok := spans[0].(map[string]any)[key]; !ok {
			t.Errorf("span JSON missing %q: %s", key, b)
		}
	}
}
