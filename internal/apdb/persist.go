package apdb

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/geom"
)

// Binary snapshot format v1 — the "city loads without CSV re-ingest"
// path. Little-endian throughout, struct-of-arrays like the in-memory
// layout so a load is four bulk reads:
//
//	magic    "MRDRAPDB"                 8 bytes
//	version  u32                        (currently 1)
//	n        u64  entry count
//	ssidLen  u64  total SSID bytes
//	bssids   6·n bytes                  packed, BSSID-ascending
//	ssidLens u32·n                      per-entry SSID byte lengths
//	ssids    ssidLen bytes              concatenated SSID data
//	pos      16·n bytes                 x,y float64 pairs
//	rng      8·n bytes                  float64 max ranges
//	sha256   32 bytes                   over everything above
//
// The checksum trailer makes torn or bit-flipped files loudly rejectable,
// mirroring the PR 5 observation checkpoints.

var snapshotMagic = [8]byte{'M', 'R', 'D', 'R', 'A', 'P', 'D', 'B'}

// SnapshotVersion is the current on-disk snapshot format version.
const SnapshotVersion = 1

// maxSnapshotEntries caps the declared entry count a reader will accept,
// bounding allocation from a hostile header (2^32 APs ≈ 2× the global
// BSSID population).
const maxSnapshotEntries = 1 << 32

// WriteSnapshot serializes the snapshot in binary format v1.
func (s *Snapshot) WriteSnapshot(w io.Writer) error {
	h := sha256.New()
	bw := bufio.NewWriter(io.MultiWriter(w, h))
	n := s.Len()
	var ssidLen uint64
	for _, ss := range s.ssid {
		ssidLen += uint64(len(ss))
	}
	if _, err := bw.Write(snapshotMagic[:]); err != nil {
		return fmt.Errorf("apdb: write snapshot: %w", err)
	}
	var scratch [8]byte
	writeU32 := func(v uint32) error {
		binary.LittleEndian.PutUint32(scratch[:4], v)
		_, err := bw.Write(scratch[:4])
		return err
	}
	writeU64 := func(v uint64) error {
		binary.LittleEndian.PutUint64(scratch[:], v)
		_, err := bw.Write(scratch[:])
		return err
	}
	if err := writeU32(SnapshotVersion); err != nil {
		return fmt.Errorf("apdb: write snapshot: %w", err)
	}
	if err := writeU64(uint64(n)); err != nil {
		return fmt.Errorf("apdb: write snapshot: %w", err)
	}
	if err := writeU64(ssidLen); err != nil {
		return fmt.Errorf("apdb: write snapshot: %w", err)
	}
	if _, err := bw.Write(s.bssid); err != nil {
		return fmt.Errorf("apdb: write snapshot: %w", err)
	}
	for _, ss := range s.ssid {
		if err := writeU32(uint32(len(ss))); err != nil {
			return fmt.Errorf("apdb: write snapshot: %w", err)
		}
	}
	for _, ss := range s.ssid {
		if _, err := bw.WriteString(ss); err != nil {
			return fmt.Errorf("apdb: write snapshot: %w", err)
		}
	}
	for _, p := range s.pos {
		if err := writeU64(math.Float64bits(p.X)); err != nil {
			return fmt.Errorf("apdb: write snapshot: %w", err)
		}
		if err := writeU64(math.Float64bits(p.Y)); err != nil {
			return fmt.Errorf("apdb: write snapshot: %w", err)
		}
	}
	for _, r := range s.rng {
		if err := writeU64(math.Float64bits(r)); err != nil {
			return fmt.Errorf("apdb: write snapshot: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("apdb: write snapshot: %w", err)
	}
	if _, err := w.Write(h.Sum(nil)); err != nil {
		return fmt.Errorf("apdb: write snapshot checksum: %w", err)
	}
	return nil
}

// ReadSnapshot parses a binary snapshot written by WriteSnapshot,
// verifying the magic, version, section lengths, and SHA-256 trailer.
// Corrupt input is rejected with an error, never a panic. The hash covers
// exactly the consumed header and sections, computed as they are read.
// The decoded entries go through FromEntries, so a file with unsorted or
// repeated BSSIDs loads sorted, with the last of each BSSID winning.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	h := sha256.New()
	br := bufio.NewReader(r)
	var head [8 + 4 + 8 + 8]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return nil, fmt.Errorf("apdb: snapshot header: %w", err)
	}
	h.Write(head[:])
	if !bytes.Equal(head[:8], snapshotMagic[:]) {
		return nil, fmt.Errorf("apdb: snapshot magic %q, want %q", head[:8], snapshotMagic[:])
	}
	if v := binary.LittleEndian.Uint32(head[8:12]); v != SnapshotVersion {
		return nil, fmt.Errorf("apdb: snapshot version %d, want %d", v, SnapshotVersion)
	}
	n64 := binary.LittleEndian.Uint64(head[12:20])
	ssidLen := binary.LittleEndian.Uint64(head[20:28])
	if n64 > maxSnapshotEntries {
		return nil, fmt.Errorf("apdb: snapshot declares %d entries (max %d)", n64, maxSnapshotEntries)
	}
	n := int(n64)
	// Sections are read through LimitReaders into growing buffers, so a
	// hostile header cannot force a giant up-front allocation: reading
	// stops at the actual data.
	readSection := func(size uint64) ([]byte, error) {
		var buf bytes.Buffer
		m, err := io.Copy(&buf, io.LimitReader(br, int64(size)))
		if err != nil {
			return nil, err
		}
		if uint64(m) != size {
			return nil, fmt.Errorf("truncated: %d of %d bytes", m, size)
		}
		h.Write(buf.Bytes())
		return buf.Bytes(), nil
	}
	bssid, err := readSection(6 * n64)
	if err != nil {
		return nil, fmt.Errorf("apdb: snapshot bssids: %w", err)
	}
	lensRaw, err := readSection(4 * n64)
	if err != nil {
		return nil, fmt.Errorf("apdb: snapshot ssid lengths: %w", err)
	}
	var sum uint64
	for i := 0; i < n; i++ {
		sum += uint64(binary.LittleEndian.Uint32(lensRaw[i*4:]))
	}
	if sum != ssidLen {
		return nil, fmt.Errorf("apdb: ssid lengths sum to %d, header says %d", sum, ssidLen)
	}
	ssidRaw, err := readSection(ssidLen)
	if err != nil {
		return nil, fmt.Errorf("apdb: snapshot ssids: %w", err)
	}
	posRaw, err := readSection(16 * n64)
	if err != nil {
		return nil, fmt.Errorf("apdb: snapshot positions: %w", err)
	}
	rngRaw, err := readSection(8 * n64)
	if err != nil {
		return nil, fmt.Errorf("apdb: snapshot ranges: %w", err)
	}
	want := h.Sum(nil)
	var got [sha256.Size]byte
	if _, err := io.ReadFull(br, got[:]); err != nil {
		return nil, fmt.Errorf("apdb: snapshot checksum: %w", err)
	}
	if !bytes.Equal(got[:], want) {
		return nil, fmt.Errorf("apdb: snapshot checksum mismatch")
	}

	entries := make([]Entry, n)
	off := 0
	for i := range entries {
		e := &entries[i]
		copy(e.BSSID[:], bssid[i*6:])
		l := int(binary.LittleEndian.Uint32(lensRaw[i*4:]))
		e.SSID = string(ssidRaw[off : off+l])
		off += l
		e.Pos = geom.Point{
			X: math.Float64frombits(binary.LittleEndian.Uint64(posRaw[i*16:])),
			Y: math.Float64frombits(binary.LittleEndian.Uint64(posRaw[i*16+8:])),
		}
		e.MaxRange = math.Float64frombits(binary.LittleEndian.Uint64(rngRaw[i*8:]))
	}
	return FromEntries(entries), nil
}

// LoadSnapshotFile reads a snapshot from a binary snapshot file.
func LoadSnapshotFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("apdb: load snapshot: %w", err)
	}
	defer f.Close()
	return ReadSnapshot(f)
}
