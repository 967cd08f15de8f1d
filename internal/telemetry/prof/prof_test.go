package prof

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
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

// pprofTop runs `go tool pprof -top` from the running toolchain on one
// artifact (the last argument, after any extra flags) and returns its
// table: the standard reader is the check that an artifact is a
// well-formed profile.
func pprofTop(t *testing.T, args ...string) string {
	t.Helper()
	goCmd := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(goCmd); err != nil {
		t.Skipf("no go command beside the runtime: %v", err)
	}
	out, err := exec.Command(goCmd, append([]string{"tool", "pprof", "-top"}, args...)...).CombinedOutput()
	if err != nil {
		t.Fatalf("go tool pprof -top %v: %v\n%s", args, err, out)
	}
	return string(out)
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
	if st := p.Status(); st.Enabled {
		t.Error("nil Status reports Enabled")
	}
}

// busyCycle runs one profiler cycle into a fresh directory while spin
// burns CPU, and returns the directory and the (still open) profiler.
func busyCycle(t *testing.T, cpu time.Duration) (string, *Profiler) {
	t.Helper()
	dir := t.TempDir()
	p, err := New(Config{Dir: dir, CPUDuration: cpu})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { p.Close() })

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
	return dir, p
}

// artifact is the path of the first cycle's artifact of one kind.
func artifact(dir, kind string) string {
	return filepath.Join(dir, "prof-"+kind+"-000000.pprof")
}

// flatShare returns the flat% of the first row of a pprof -top table
// whose function name contains fn (any row for ""), or -1 when no row
// names it.
func flatShare(t *testing.T, top, fn string) float64 {
	t.Helper()
	_, rows, ok := strings.Cut(top, "flat%")
	if !ok {
		return -1
	}
	for _, line := range strings.Split(rows, "\n")[1:] {
		f := strings.Fields(line)
		if len(f) < 6 || !strings.Contains(f[len(f)-1], fn) {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			t.Fatalf("flat%% of %q: %v", line, err)
		}
		return v
	}
	return -1
}

// TestParseSelfCPUCapture reads the cycle's CPU capture of this process
// through the standard reader: the spinning function must be in the
// table with a flat share in (0, 100]%.
func TestParseSelfCPUCapture(t *testing.T) {
	dir, _ := busyCycle(t, 300*time.Millisecond)
	top := pprofTop(t, artifact(dir, "cpu"))
	share := flatShare(t, top, "spin")
	if share < 0 {
		t.Fatalf("spin not in the cpu table:\n%s", top)
	}
	if share <= 0 || share > 100 {
		t.Errorf("spin flat share out of range: %v%%\n%s", share, top)
	}
}

// TestParseHeapProfile reads the cycle's heap artifact by its
// alloc_space column, and the goroutine, mutex and block artifacts,
// through the standard reader.
func TestParseHeapProfile(t *testing.T) {
	// Allocate enough that the sampled allocation profile holds rows.
	keep := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		keep = append(keep, make([]byte, 64<<10))
	}
	dir, _ := busyCycle(t, time.Millisecond)
	runtime.KeepAlive(keep)

	heap := pprofTop(t, "-sample_index=alloc_space", artifact(dir, "heap"))
	if !strings.Contains(heap, "flat%") || flatShare(t, heap, "TestParseHeapProfile") <= 0 {
		t.Errorf("heap artifact: no alloc_space row for the test's allocations:\n%s", heap)
	}
	for _, kind := range []string{"goroutine", "mutex", "block"} {
		if top := pprofTop(t, artifact(dir, kind)); !strings.Contains(top, "flat%") {
			t.Errorf("%s artifact: no table from go tool pprof:\n%s", kind, top)
		}
	}
}

// TestProfilerCycleCapturesAndAttributes checks one cycle's artifact
// set and Status, and that its CPU artifact attributes samples to
// functions.
func TestProfilerCycleCapturesAndAttributes(t *testing.T) {
	dir, p := busyCycle(t, 250*time.Millisecond)
	for _, kind := range []string{"cpu", "heap", "goroutine", "mutex", "block"} {
		if _, err := os.Stat(artifact(dir, kind)); err != nil {
			t.Errorf("missing %s artifact: %v", kind, err)
		}
	}
	if top := pprofTop(t, artifact(dir, "cpu")); flatShare(t, top, "") <= 0 {
		t.Errorf("cpu artifact attributes no samples:\n%s", top)
	}
	st := p.Status()
	if !st.Enabled || st.Cycles != 1 || st.Captures != 5 {
		t.Errorf("status: %+v", st)
	}
	if st.LastCPUPath != artifact(dir, "cpu") || st.LastErr != "" {
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
	// The cap may be exceeded only by the final artifact batch of this
	// cycle; the planted 8 KiB of old fakes must be gone.
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
