package main

import (
	"crypto/sha256"
	"encoding/binary"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// hostProbe measures how fast the host runs fixed reference work while a
// run is measured. On a shared machine the CPU's speed drifts by ±20% over
// minutes as other tenants come and go, and every workload's times move
// with it. Every probeEvery one goroutine, locked to its own thread, runs
// probeKernel and records the thread CPU time it took; that excludes time
// spent waiting for a core, so it tracks the core's speed, not the
// benchmark's load. The kernel uses only the standard library and
// allocates nothing, so no change to the system under test changes it,
// and garbage-collector assists never land on it.
type hostProbe struct {
	stop chan struct{}
	done chan struct{}

	mu   sync.Mutex
	at   []stamp
	cost []float64 // thread CPU ns of one kernel pass
}

const (
	probeEvery = 50 * time.Millisecond
	// probeNominalNs is about probeKernel's typical thread CPU time on the
	// 2-vCPU shared Xeon host the bounds were calibrated on, so the
	// reported figures read close to that host's raw ones. A factor of 1
	// means the host ran at that speed.
	probeNominalNs = 100e3
)

func startHostProbe() *hostProbe {
	h := &hostProbe{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		runtime.LockOSThread() // thread CPU time must be this goroutine's alone
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		m := make(map[uint64]uint64, 1024)
		keys := make([]uint64, 0, 1024)
		var x uint64 = 1
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
			c0 := threadCPUNs()
			x = probeKernel(m, keys, x)
			c := threadCPUNs() - c0
			if c0 == 0 || c <= 0 {
				continue // no thread clock: factor falls back to 1
			}
			h.mu.Lock()
			h.at = append(h.at, now())
			h.cost = append(h.cost, float64(c))
			h.mu.Unlock()
		}
	}()
	return h
}

// close stops the probe and waits for it.
func (h *hostProbe) close() {
	close(h.stop)
	<-h.done
}

// factor is the median kernel cost over the samples taken at times keep
// accepts, relative to probeNominalNs: 1.25 means the host ran 25% slower
// than nominal. With no such sample it uses them all, and with none at all
// it is 1.
func (h *hostProbe) factor(keep func(stamp) bool) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	var xs []float64
	for i, t := range h.at {
		if keep(t) {
			xs = append(xs, h.cost[i])
		}
	}
	if len(xs) == 0 {
		xs = h.cost
	}
	if len(xs) == 0 {
		return 1
	}
	return median(xs) / probeNominalNs
}

// over is the factor over the samples taken in [from, to).
func (h *hostProbe) over(from, to stamp) float64 {
	return h.factor(func(t stamp) bool { return t >= from && t < to })
}

// probeKernel is the reference work: hashing and ordering 800 map keys,
// then SHA-256 over 8 KiB. It reuses m and keys, so it allocates nothing.
func probeKernel(m map[uint64]uint64, keys []uint64, x uint64) uint64 {
	clear(m)
	for i := uint64(0); i < 800; i++ {
		m[x+i*7919] = i
	}
	keys = keys[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var buf [1024]byte
	binary.LittleEndian.PutUint64(buf[:], keys[len(keys)/2])
	for i := 0; i < 8; i++ {
		s := sha256.Sum256(buf[:])
		buf[i] ^= s[0]
		x ^= binary.LittleEndian.Uint64(s[:])
	}
	return x
}

// threadCPUNs is the calling thread's CPU time.
func threadCPUNs() int64 {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		return 0
	}
	return ts.Nano()
}
