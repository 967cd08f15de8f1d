package obs

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/dot11"
)

func populated(t *testing.T, n int) *Store {
	t.Helper()
	s := NewStore()
	for i := 0; i < n; i++ {
		dev, ap := mac(byte(i)), mac(byte(0xA0+i%16))
		s.Ingest(float64(i), dot11.NewProbeRequest(dev, "net", 1), false)
		s.Ingest(float64(i)+0.5, dot11.NewProbeResponse(ap, dev, "x", 6, 2), true)
	}
	return s
}

func saveBytes(t *testing.T, s *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := populated(t, 10)
	path, err := WriteCheckpoint(dir, 7, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := CheckpointPath(dir, 7); path != want {
		t.Errorf("path = %s, want %s", path, want)
	}
	got, meta, err := ReadCheckpoint(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Generation != 7 || meta.Format != checkpointFormat || meta.Records != s.Len() {
		t.Errorf("meta = %+v", meta)
	}
	if !bytes.Equal(saveBytes(t, got), saveBytes(t, s)) {
		t.Error("recovered store's canonical bytes differ from the original")
	}
}

func TestCheckpointCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	s := populated(t, 5)
	path, err := WriteCheckpoint(dir, 1, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	nl := bytes.IndexByte(good, '\n')

	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantErr string
	}{
		{"empty file", func(b []byte) []byte { return nil }, "no header line"},
		{"no newline", func(b []byte) []byte { return b[:nl] }, "no header line"},
		{"garbage header", func(b []byte) []byte {
			return append([]byte("not json\n"), b[nl+1:]...)
		}, "bad header"},
		{"wrong format version", func(b []byte) []byte {
			h := strings.Replace(string(b[:nl]), `"format":1`, `"format":99`, 1)
			return append([]byte(h), b[nl:]...)
		}, "format 99"},
		{"payload bit flip", func(b []byte) []byte {
			out := append([]byte(nil), b...)
			out[nl+10] ^= 0x01
			return out
		}, "checksum mismatch"},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-20] }, "checksum mismatch"},
		{"appended junk", func(b []byte) []byte { return append(append([]byte(nil), b...), "tail"...) }, "checksum mismatch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := filepath.Join(dir, "mutated.ckpt")
			if err := os.WriteFile(p, tc.mutate(append([]byte(nil), good...)), 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, err := ReadCheckpoint(p, 0)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

func TestCheckpointRecordCountMismatch(t *testing.T) {
	dir := t.TempDir()
	path, err := WriteCheckpoint(dir, 1, populated(t, 4), nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	nl := bytes.IndexByte(raw, '\n')
	// Lie about the record count; the checksum only covers the payload, so
	// just the count check can catch it.
	payload := raw[nl+1:]
	s2, err := LoadShards(bytes.NewReader(payload), 0)
	if err != nil {
		t.Fatal(err)
	}
	h := strings.Replace(string(raw[:nl]), fmt.Sprintf(`"records":%d`, s2.Len()), `"records":9999`, 1)
	if !strings.Contains(h, "9999") {
		t.Fatalf("could not rewrite record count in header %s", raw[:nl])
	}
	p := filepath.Join(dir, "lied.ckpt")
	if err := os.WriteFile(p, append([]byte(h), raw[nl:]...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadCheckpoint(p, 0); err == nil || !strings.Contains(err.Error(), "header says 9999") {
		t.Fatalf("err = %v, want record-count mismatch", err)
	}
}

func TestRecoverPicksNewestValid(t *testing.T) {
	dir := t.TempDir()
	old := populated(t, 3)
	newer := populated(t, 8)
	if _, err := WriteCheckpoint(dir, 1, old, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteCheckpoint(dir, 2, newer, nil); err != nil {
		t.Fatal(err)
	}
	// Generation 3 exists but is corrupt: Recover must skip it, report it,
	// and land on generation 2.
	if err := os.WriteFile(CheckpointPath(dir, 3), []byte("{}\ncorrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, info, err := Recover(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s == nil {
		t.Fatal("no store recovered")
	}
	if info.Meta.Generation != 2 {
		t.Errorf("recovered generation %d, want 2", info.Meta.Generation)
	}
	if len(info.Skipped) != 1 || !strings.Contains(info.Skipped[0].Path, "checkpoint-0000000000000003") {
		t.Errorf("skipped = %+v, want exactly the corrupt generation 3", info.Skipped)
	}
	if !bytes.Equal(saveBytes(t, s), saveBytes(t, newer)) {
		t.Error("recovered store differs from generation 2's source")
	}
}

// TestCheckpointCursorsRoundTrip: the agents' resume cursors ride inside
// the checkpoint, under its checksum. They come back from Recover, a
// flipped cursor byte makes Recover skip the file like a flipped payload
// byte, and a checkpoint written without cursors keeps the cursor-less
// shape and restores with none.
func TestCheckpointCursorsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := populated(t, 6)
	older := map[string]uint64{"persist-agent": 4}
	newer := map[string]uint64{"persist-agent": 4, "lab-2": 1<<63 + 5}
	cursors := older
	c := &Checkpointer{Dir: dir, Source: func() *Store { return s }, Cursors: func() map[string]uint64 { return cursors }}
	if _, err := c.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	cursors = newer
	path, err := c.CheckpointNow()
	if err != nil {
		t.Fatal(err)
	}
	got, info, err := Recover(dir, 0)
	if err != nil || got == nil {
		t.Fatalf("Recover: store %v, err %v", got, err)
	}
	if info.Path != path || !maps.Equal(info.Meta.Cursors, newer) {
		t.Fatalf("recovered %s with cursors %v, want %s with %v", info.Path, info.Meta.Cursors, path, newer)
	}
	if !bytes.Equal(saveBytes(t, got), saveBytes(t, s)) {
		t.Error("recovered store differs from the checkpointed one")
	}

	// Flip one digit of a cursor: the header still parses, the checksum
	// does not match, and Recover falls back to the older generation.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(raw, []byte(`"persist-agent":4`))
	if nl := bytes.IndexByte(raw, '\n'); at < 0 || at > nl {
		t.Fatalf("cursor not in the header line: %s", raw[:nl])
	}
	raw[at+len(`"persist-agent":`)] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadCheckpoint(path, 0); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("flipped cursor byte: err = %v, want checksum mismatch", err)
	}
	_, info, err = Recover(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Skipped) != 1 || info.Skipped[0].Path != path {
		t.Errorf("skipped = %+v, want exactly %s", info.Skipped, path)
	}
	if info.Meta.Generation != 1 || !maps.Equal(info.Meta.Cursors, older) {
		t.Errorf("fell back to generation %d with cursors %v, want 1 with %v", info.Meta.Generation, info.Meta.Cursors, older)
	}

	// No cursors: exactly the header a checkpoint without cursors has
	// always had, and Recover restores none.
	bare := t.TempDir()
	path, err = WriteCheckpoint(bare, 3, s, map[string]uint64{})
	if err != nil {
		t.Fatal(err)
	}
	raw, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	payload := saveBytes(t, s)
	want := fmt.Sprintf("{\"format\":1,\"generation\":3,\"sha256\":\"%x\",\"records\":%d}\n%s",
		sha256.Sum256(payload), s.Len(), payload)
	if string(raw) != want {
		t.Fatalf("cursor-less checkpoint header %q, want %q", raw[:bytes.IndexByte(raw, '\n')], want[:strings.IndexByte(want, '\n')])
	}
	got, info, err = Recover(bare, 0)
	if err != nil || got == nil {
		t.Fatalf("Recover: store %v, err %v", got, err)
	}
	if info.Meta.Cursors != nil {
		t.Errorf("cursor-less checkpoint restored cursors %v", info.Meta.Cursors)
	}
}

func TestRecoverEmptyAndMissingDir(t *testing.T) {
	s, info, err := Recover(filepath.Join(t.TempDir(), "nope"), 0)
	if err != nil || s != nil || info.Path != "" {
		t.Errorf("missing dir: store=%v info=%+v err=%v, want all-zero", s, info, err)
	}
	s, info, err = Recover(t.TempDir(), 0)
	if err != nil || s != nil || info.Path != "" {
		t.Errorf("empty dir: store=%v info=%+v err=%v, want all-zero", s, info, err)
	}
}

func TestCheckpointerPrunesAndNumbers(t *testing.T) {
	dir := t.TempDir()
	s := populated(t, 2)
	c := &Checkpointer{Dir: dir, Source: func() *Store { return s }}
	c.SetGeneration(10)
	for i := 0; i < 5; i++ {
		if _, err := c.CheckpointNow(); err != nil {
			t.Fatal(err)
		}
	}
	if c.Generation() != 15 {
		t.Errorf("generation = %d, want 15", c.Generation())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	want := []string{"checkpoint-0000000000000013.ckpt", "checkpoint-0000000000000014.ckpt", "checkpoint-0000000000000015.ckpt"}
	if !slices.Equal(names, want) {
		t.Errorf("dir holds %v, want %v", names, want)
	}
}

func TestCheckpointerRun(t *testing.T) {
	dir := t.TempDir()
	s := populated(t, 2)
	c := &Checkpointer{Dir: dir, Interval: 5 * time.Millisecond, Source: func() *Store { return s }}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { c.Run(ctx); close(done) }()
	deadline := time.After(2 * time.Second)
	for c.Generation() == 0 {
		select {
		case <-deadline:
			t.Fatal("no checkpoint written within 2s")
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	<-done
	if _, _, err := ReadCheckpoint(CheckpointPath(dir, 1), 0); err != nil {
		t.Fatalf("first periodic checkpoint unreadable: %v", err)
	}
}

func TestWriteFileAtomicReplaces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "obs.json")
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write([]byte("first"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write([]byte("second"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "second" {
		t.Errorf("content = %q, want %q", got, "second")
	}
	// No leftover temp files.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory holds %d entries, want just the target", len(entries))
	}
}

// Regression: WriteCheckpoint used to take the header's record count from
// a Len call after Save, so a record ingested in between made the header
// count records the payload did not hold, and ReadCheckpoint (and so
// Recover) rejected the file. Every checkpoint written during concurrent
// ingest must read back with the count it serialized.
func TestCheckpointDuringIngest(t *testing.T) {
	const (
		batches  = 400
		perBatch = 16
	)
	s := NewStoreShards(4)
	dir := t.TempDir()
	started := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for b := 0; b < batches; b++ {
			recs := make([]Record, perBatch)
			for i := range recs {
				recs[i] = Record{
					TimeSec: float64(b),
					Device:  dot11.MAC{0xDD, 0, 0, 0, byte(i), byte(b % 7)},
					AP:      mac(byte(0xA0 + i)),
					Kind:    KindProbeResponse,
				}
			}
			s.IngestBatch(recs)
			if b == 0 {
				close(started)
			}
		}
	}()
	defer func() { <-done }()
	<-started
	for gen := uint64(1); ; gen++ {
		select {
		case <-done:
			if s.Len() != batches*perBatch {
				t.Fatalf("Len = %d, want %d", s.Len(), batches*perBatch)
			}
			return
		default:
		}
		path, err := WriteCheckpoint(dir, gen, s, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, meta, err := ReadCheckpoint(path, 0)
		if err != nil {
			t.Fatalf("checkpoint %d written during ingest does not read back: %v", gen, err)
		}
		if got.Len() != meta.Records {
			t.Fatalf("checkpoint %d: %d records loaded, header says %d", gen, got.Len(), meta.Records)
		}
	}
}
