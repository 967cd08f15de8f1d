package ftdc

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// stubClock hands out strictly increasing fake timestamps.
type stubClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *stubClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(time.Second)
	return c.t
}

// newTestRecorder returns a recorder with 4-sample chunks and its
// sample: one Append of reg's snapshot, a stub second after the last.
func newTestRecorder(t *testing.T, reg *telemetry.Registry) (*Recorder, func() error) {
	t.Helper()
	clk := &stubClock{t: time.Unix(1700000000, 0)}
	r, err := New(Config{Dir: t.TempDir(), ChunkSamples: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return r, func() error { return r.Append(clk.now(), reg.Snapshot()) }
}

func TestRecorderEndToEnd(t *testing.T) {
	reg := telemetry.NewRegistry()
	frames := reg.Counter("app_frames_total", "frames", nil)
	depth := reg.Gauge("app_queue_depth", "queue depth", nil)
	lat := reg.Histogram("app_latency_seconds", "latency", []float64{0.01, 0.1, 1}, nil)

	rec, sample := newTestRecorder(t, reg)
	for i := 0; i < 10; i++ {
		frames.Add(uint64(3 * i))
		depth.Set(float64(i) - 2.5)
		lat.Observe(0.05 * float64(i))
		if err := sample(); err != nil {
			t.Fatalf("Sample %d: %v", i, err)
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	chunks, err := ReadFile(rec.Path())
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	var rows int
	for _, c := range chunks {
		rows += len(c.Samples)
	}
	if rows != 10 {
		t.Fatalf("decoded %d rows, want 10", rows)
	}

	// Schema: time first, then every series flattened. Histogram expands
	// to _count/_sum/_bucket{le=...} columns matching the text exposition.
	c0 := chunks[0]
	if c0.Columns[0].Name != TimeColumn || c0.Columns[0].Kind != KindUint {
		t.Fatalf("first column = %+v, want %s", c0.Columns[0], TimeColumn)
	}
	idx := make(map[string]int, len(c0.Columns))
	for j, col := range c0.Columns {
		idx[col.Name] = j
	}
	for _, name := range []string{
		"app_frames_total",
		"app_queue_depth",
		"app_latency_seconds_count",
		"app_latency_seconds_sum",
		`app_latency_seconds_bucket{le="0.01"}`,
		`app_latency_seconds_bucket{le="0.1"}`,
		`app_latency_seconds_bucket{le="1"}`,
		`app_latency_seconds_bucket{le="+Inf"}`,
	} {
		if _, ok := idx[name]; !ok {
			t.Fatalf("column %q missing; have %+v", name, c0.Columns)
		}
	}

	// Timestamps strictly increase across chunk boundaries.
	var last uint64
	for _, c := range chunks {
		tj := 0
		for _, s := range c.Samples {
			if s[tj] <= last {
				t.Fatalf("timestamp not increasing: %d after %d", s[tj], last)
			}
			last = s[tj]
		}
	}

	// Values round-trip: the final row carries the final counter value and
	// the gauge as float bits.
	lastChunk := chunks[len(chunks)-1]
	lastRow := lastChunk.Samples[len(lastChunk.Samples)-1]
	lidx := make(map[string]int)
	for j, col := range lastChunk.Columns {
		lidx[col.Name] = j
	}
	var wantFrames uint64
	for i := 0; i < 10; i++ {
		wantFrames += uint64(3 * i)
	}
	if got := lastRow[lidx["app_frames_total"]]; got != wantFrames {
		t.Fatalf("final counter = %d, want %d", got, wantFrames)
	}
	if got := math.Float64frombits(lastRow[lidx["app_queue_depth"]]); got != 6.5 {
		t.Fatalf("final gauge = %v, want 6.5", got)
	}
	if got := lastRow[lidx["app_latency_seconds_count"]]; got != 10 {
		t.Fatalf("final histogram count = %d, want 10", got)
	}
}

func TestRecorderSchemaChangeMidFlight(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("app_a_total", "a", nil)
	rec, sample := newTestRecorder(t, reg)
	if err := sample(); err != nil {
		t.Fatal(err)
	}
	// A new labeled series registers mid-flight: the recorder must seal
	// the chunk and keep going under the wider schema.
	reg.Counter("app_b_total", "b", telemetry.Labels{"shard": "3"}).Add(9)
	if err := sample(); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	chunks, err := ReadFile(rec.Path())
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if len(chunks) != 2 {
		t.Fatalf("got %d chunks, want 2 (schema change seals)", len(chunks))
	}
	if len(chunks[1].Columns) != len(chunks[0].Columns)+1 {
		t.Fatalf("second schema width %d, want %d", len(chunks[1].Columns), len(chunks[0].Columns)+1)
	}
	found := false
	for _, col := range chunks[1].Columns {
		if strings.Contains(col.Name, "app_b_total") {
			found = true
		}
	}
	if !found {
		t.Fatalf("new series missing from second chunk: %+v", chunks[1].Columns)
	}
}

func TestRecorderStatus(t *testing.T) {
	var nilRec *Recorder
	if st := nilRec.Status(); st.Enabled {
		t.Fatal("nil recorder reports Enabled")
	}
	if nilRec.Path() != "" {
		t.Fatal("nil recorder has a path")
	}
	if err := nilRec.Append(time.Now(), nil); err != nil {
		t.Fatalf("nil Append: %v", err)
	}
	if err := nilRec.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}

	reg := telemetry.NewRegistry()
	reg.Counter("app_x_total", "x", nil)
	rec, sample := newTestRecorder(t, reg)
	for i := 0; i < 5; i++ { // chunk cap 4 → one sealed chunk + 1 pending
		if err := sample(); err != nil {
			t.Fatal(err)
		}
	}
	st := rec.Status()
	if !st.Enabled || st.Path != rec.Path() {
		t.Fatalf("status identity wrong: %+v", st)
	}
	if st.Chunks != 1 || st.Samples != 4 || st.PendingSamples != 1 {
		t.Fatalf("status counts = %+v, want 1 chunk / 4 samples / 1 pending", st)
	}
	if st.Columns != 2 { // time + counter
		t.Fatalf("status columns = %d, want 2", st.Columns)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := sample(); err == nil {
		t.Fatal("Append after Close succeeded")
	}
}

func TestRecorderConcurrentSample(t *testing.T) {
	reg := telemetry.NewRegistry()
	ctr := reg.Counter("app_x_total", "x", nil)
	rec, sample := newTestRecorder(t, reg)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				ctr.Inc()
				_ = sample()
			}
		}()
	}
	wg.Wait()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	chunks, err := ReadFile(rec.Path())
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	var rows int
	for _, c := range chunks {
		rows += len(c.Samples)
	}
	if rows != 100 {
		t.Fatalf("decoded %d rows, want 100", rows)
	}
}
