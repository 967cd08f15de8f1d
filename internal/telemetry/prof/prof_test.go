package prof

import (
	"bytes"
	"compress/gzip"
	"context"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// spin burns CPU in a named function so a short self-capture has a
// symbol to find.
//
//go:noinline
func spin(stop *atomic.Bool, sink *atomic.Uint64) {
	var x uint64 = 88172645463325252
	for !stop.Load() {
		for i := 0; i < 4096; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		sink.Add(x)
	}
}

// selfCapture records a real CPU profile of this process for dur while
// burning CPU, returning the raw pprof bytes.
func selfCapture(t *testing.T, dur time.Duration) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatalf("StartCPUProfile: %v", err)
	}
	var stop atomic.Bool
	var sink atomic.Uint64
	done := make(chan struct{})
	go func() { spin(&stop, &sink); close(done) }()
	time.Sleep(dur)
	stop.Store(true)
	<-done
	pprof.StopCPUProfile()
	return buf.Bytes()
}

func TestParseSelfCPUCapture(t *testing.T) {
	data := selfCapture(t, 300*time.Millisecond)
	p, err := Parse(data)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	idx := p.ValueIndex("cpu")
	if idx < 0 {
		t.Fatalf("no cpu sample type in %+v", p.SampleTypes)
	}
	if len(p.Samples) == 0 {
		t.Fatal("no samples in a 300ms busy capture")
	}
	top, total := p.Top(10, idx)
	if total <= 0 || len(top) == 0 {
		t.Fatalf("empty attribution: total=%d rows=%d", total, len(top))
	}
	var found bool
	for _, hf := range top {
		if strings.Contains(hf.Name, "spin") {
			found = true
			if hf.FlatShare <= 0 || hf.FlatShare > 1 {
				t.Errorf("spin FlatShare out of range: %v", hf.FlatShare)
			}
		}
	}
	if !found {
		names := make([]string, len(top))
		for i, hf := range top {
			names[i] = hf.Name
		}
		t.Fatalf("spin not in top-10: %v", names)
	}
	// Shares must sum to at most 1 (top-N truncation loses some).
	var sum float64
	for _, hf := range top {
		sum += hf.FlatShare
		if hf.Cum < hf.Flat {
			t.Errorf("%s: cum %d < flat %d", hf.Name, hf.Cum, hf.Flat)
		}
	}
	if sum > 1.0001 {
		t.Errorf("flat shares sum to %v > 1", sum)
	}
}

func TestParseAcceptsBareProto(t *testing.T) {
	data := selfCapture(t, 100*time.Millisecond)
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("capture not gzipped: %v", err)
	}
	var raw bytes.Buffer
	if _, err := raw.ReadFrom(zr); err != nil {
		t.Fatalf("gunzip: %v", err)
	}
	p, err := Parse(raw.Bytes())
	if err != nil {
		t.Fatalf("Parse bare proto: %v", err)
	}
	if p.ValueIndex("cpu") < 0 {
		t.Fatal("bare proto lost sample types")
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := Parse([]byte{0x07, 0xff, 0xff, 0xff, 0xff, 0xff}); err == nil {
		t.Error("garbage accepted")
	}
	// Gzip magic with a broken stream.
	if _, err := Parse([]byte{0x1f, 0x8b, 0x00}); err == nil {
		t.Error("broken gzip accepted")
	}
}

func TestParseHeapProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.Lookup("heap").WriteTo(&buf, 0); err != nil {
		t.Fatalf("heap WriteTo: %v", err)
	}
	p, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatalf("Parse heap: %v", err)
	}
	if p.ValueIndex("alloc_space") < 0 {
		t.Fatalf("no alloc_space column in %+v", p.SampleTypes)
	}
	if top, _ := p.Top(1, p.ValueIndex("alloc_space")); len(top) == 0 {
		t.Error("heap profile attributed to zero functions")
	}
}

func TestNilProfilerIsSafe(t *testing.T) {
	var p *Profiler
	if err := p.Cycle(context.Background()); err != nil {
		t.Errorf("nil Cycle: %v", err)
	}
	p.Run(context.Background())
	if err := p.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
	if a := p.Attribution(); a != nil {
		t.Errorf("nil Attribution: %+v", a)
	}
	if st := p.Status(); st.Enabled {
		t.Error("nil Status reports Enabled")
	}
}

func TestProfilerCycleCapturesAndAttributes(t *testing.T) {
	dir := t.TempDir()
	p, err := New(Config{Dir: dir, CPUDuration: 250 * time.Millisecond, TopN: 15})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer p.Close()

	var stop atomic.Bool
	var sink atomic.Uint64
	done := make(chan struct{})
	go func() { spin(&stop, &sink); close(done) }()
	err = p.Cycle(context.Background())
	stop.Store(true)
	<-done
	if err != nil {
		t.Fatalf("Cycle: %v", err)
	}

	for _, kind := range []string{"cpu", "heap", "goroutine", "mutex", "block"} {
		path := filepath.Join(dir, "prof-"+kind+"-000000.pprof")
		if _, err := os.Stat(path); err != nil {
			t.Errorf("missing %s artifact: %v", kind, err)
		}
	}
	attr := p.Attribution()
	if attr == nil {
		t.Fatal("no attribution after a cycle")
	}
	if len(attr.TopFunctions) == 0 || attr.TotalNanos <= 0 {
		t.Fatalf("empty attribution: %+v", attr)
	}
	st := p.Status()
	if !st.Enabled || st.Cycles != 1 || st.Captures != 5 {
		t.Errorf("status: %+v", st)
	}
	if st.LastCPUPath == "" || st.LastErr != "" {
		t.Errorf("status: %+v", st)
	}
	if st.Bytes <= 0 {
		t.Errorf("retained bytes not tracked: %+v", st)
	}
}

func TestProfilerRotationCapsBytes(t *testing.T) {
	dir := t.TempDir()
	p, err := New(Config{Dir: dir, MaxBytes: 4096, CPUDuration: time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer p.Close()
	// Plant oversized fake artifacts older than anything the profiler
	// will write (sequence numbers sort first).
	for i := 0; i < 4; i++ {
		name := filepath.Join(dir, "prof-cpu-00000"+string(rune('0'+i))+".pprof")
		if err := os.WriteFile(name, bytes.Repeat([]byte{0xaa}, 2048), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	p.mu.Lock()
	p.seq = 10 // write new artifacts after the planted ones
	p.mu.Unlock()
	if err := p.Cycle(context.Background()); err != nil {
		t.Fatalf("Cycle: %v", err)
	}
	var total int64
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}
	// Rotation runs before attribution, so the cap may be exceeded only
	// by the final artifact batch of this cycle; the planted 8 KiB of
	// old fakes must be gone.
	for i := 0; i < 4; i++ {
		name := filepath.Join(dir, "prof-cpu-00000"+string(rune('0'+i))+".pprof")
		if _, err := os.Stat(name); err == nil {
			t.Errorf("old artifact %s survived rotation (dir total %d)", name, total)
		}
	}
}

func TestProfilerRunStopsOnCancel(t *testing.T) {
	dir := t.TempDir()
	p, err := New(Config{Dir: dir, Interval: time.Hour, CPUDuration: 50 * time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { p.Run(ctx); close(done) }()
	// Run takes its first cycle immediately; give it time to finish,
	// then cancel and require prompt exit.
	deadline := time.After(10 * time.Second)
	for p.Status().Cycles == 0 {
		select {
		case <-deadline:
			t.Fatal("first cycle never completed")
		case <-time.After(10 * time.Millisecond):
		}
	}
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not stop on cancel")
	}
}

func TestCycleAfterCloseFails(t *testing.T) {
	p, err := New(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := p.Cycle(context.Background()); err == nil {
		t.Error("Cycle after Close succeeded")
	}
}

func TestTopHandlesMissingValueIndex(t *testing.T) {
	p := &Profile{}
	if top, total := p.Top(5, -1); top != nil || total != 0 {
		t.Errorf("Top(-1) = %v, %d", top, total)
	}
}
