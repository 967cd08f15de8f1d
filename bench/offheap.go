package main

import (
	"fmt"
	"syscall"
	"unsafe"

	"repro/internal/dot11"
	"repro/internal/sniffer"
)

// offHeap holds the rig's captures in memory mapped outside the Go heap.
// A rig is 70–170 MB of pointer-rich captures. Left on the heap, the
// system's garbage collector would mark it on every cycle, though a
// deployment receives its captures over the wire and holds none of them:
// the collector's work, and its exposure to memory latency, would be the
// rig's rather than the system's. The copies point only into the same
// mapping, which the collector neither scans nor frees, so they stay valid
// until release; nothing on the heap may be referenced from it.
type offHeap struct {
	chunks [][]byte
	cur    []byte // the chunk being filled; len is the fill mark
}

// offHeapChunk is the size of each mapping.
const offHeapChunk = 64 << 20

func (a *offHeap) alloc(size, align uintptr) (unsafe.Pointer, error) {
	off := (uintptr(len(a.cur)) + align - 1) &^ (align - 1) // chunks start page-aligned
	if off+size > uintptr(cap(a.cur)) {
		b, err := syscall.Mmap(-1, 0, max(offHeapChunk, int(size)), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			return nil, fmt.Errorf("mapping rig memory: %w", err)
		}
		a.chunks = append(a.chunks, b)
		a.cur, off = b[:0], 0
	}
	a.cur = a.cur[:off+size]
	return unsafe.Pointer(&a.cur[off]), nil
}

// allocSlice returns n zeroed Ts in the mapping; nil when n is 0.
func allocSlice[T any](a *offHeap, n int) ([]T, error) {
	if n == 0 {
		return nil, nil
	}
	var zero T
	p, err := a.alloc(unsafe.Sizeof(zero)*uintptr(n), unsafe.Alignof(zero))
	if err != nil {
		return nil, err
	}
	return unsafe.Slice((*T)(p), n), nil
}

func (a *offHeap) bytes(b []byte) ([]byte, error) {
	if len(b) == 0 {
		if b == nil {
			return nil, nil
		}
		return []byte{}, nil // a zero-size allocation points at no heap object
	}
	out, err := allocSlice[byte](a, len(b))
	copy(out, b)
	return out, err
}

// captures deep-copies caps, frames and bytes included, into the mapping.
func (a *offHeap) captures(caps []sniffer.Capture) ([]sniffer.Capture, error) {
	out, err := allocSlice[sniffer.Capture](a, len(caps))
	if err != nil {
		return nil, err
	}
	for i, c := range caps {
		if c.Raw, err = a.bytes(c.Raw); err != nil {
			return nil, err
		}
		if c.Frame != nil {
			fr := *c.Frame
			if fr.IEs, err = allocSlice[dot11.IE](a, len(c.Frame.IEs)); err != nil {
				return nil, err
			}
			for j, ie := range c.Frame.IEs {
				if fr.IEs[j].Data, err = a.bytes(ie.Data); err != nil {
					return nil, err
				}
				fr.IEs[j].ID = ie.ID
			}
			f, err := allocSlice[dot11.Frame](a, 1)
			if err != nil {
				return nil, err
			}
			f[0] = fr
			c.Frame = &f[0]
		}
		out[i] = c
	}
	return out, nil
}

// release unmaps everything; no copy may be used afterwards.
func (a *offHeap) release() {
	for _, b := range a.chunks {
		_ = syscall.Munmap(b) // the process keeps running either way
	}
	a.chunks, a.cur = nil, nil
}
