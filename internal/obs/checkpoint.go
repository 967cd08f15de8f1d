package obs

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// checkpointFormat is the on-disk checkpoint format version. Readers
// reject files written by a different version instead of guessing.
const checkpointFormat = 1

// checkpointExt names checkpoint files so Recover can find them without a
// manifest.
const checkpointExt = ".ckpt"

// DefaultCheckpointKeep is how many generations a Checkpointer retains:
// the newest plus two fallbacks in case the newest is torn by a crash
// mid-rename (shouldn't happen — rename is atomic — but disks lie).
const DefaultCheckpointKeep = 3

// CheckpointMeta is the header line of a checkpoint file: one line of
// JSON describing the Save payload that follows, so a reader can verify
// integrity before trusting the contents.
type CheckpointMeta struct {
	// Format is the checkpoint format version (checkpointFormat).
	Format int `json:"format"`
	// Generation is the writer's monotonic checkpoint counter.
	Generation uint64 `json:"generation"`
	// SHA256 is the hex digest of the cursors' JSON encoding, when there
	// are any, followed by the payload bytes after this header line.
	SHA256 string `json:"sha256"`
	// Records is how many records the payload holds, a cheap cross-check
	// on top of the digest.
	Records int `json:"records"`
	// Cursors are the capture agents' resume cursors, read before the
	// store was saved, so the payload holds every batch they count.
	// Absent when there were none.
	Cursors map[string]uint64 `json:"cursors,omitempty"`
}

// digest returns the hex SHA-256 that covers the cursors and the payload.
// With no cursors it is the payload's plain digest, so a checkpoint
// written without them reads back unchanged.
func (m *CheckpointMeta) digest(payload []byte) string {
	h := sha256.New()
	if len(m.Cursors) > 0 {
		// A map of uint64 always encodes, with its keys sorted.
		b, _ := json.Marshal(m.Cursors)
		h.Write(b)
	}
	h.Write(payload)
	return hex.EncodeToString(h.Sum(nil))
}

// CheckpointPath returns the canonical file name for a generation. The
// zero-padded decimal makes lexical order equal generation order, so
// Recover can sort directory listings without parsing.
func CheckpointPath(dir string, generation uint64) string {
	return filepath.Join(dir, fmt.Sprintf("checkpoint-%016d%s", generation, checkpointExt))
}

// WriteFileAtomic writes a file via a temporary sibling, fsyncs it, and
// renames it over the target, so readers never observe a torn file: they
// see the old content or the new, nothing in between. The parent
// directory is fsynced after the rename so the new name survives a crash.
func WriteFileAtomic(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("obs: atomic write %s: %w", path, err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	bw := bufio.NewWriter(tmp)
	if err = write(bw); err != nil {
		return fmt.Errorf("obs: atomic write %s: %w", path, err)
	}
	if err = bw.Flush(); err != nil {
		return fmt.Errorf("obs: atomic write %s: %w", path, err)
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("obs: atomic write %s: sync: %w", path, err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("obs: atomic write %s: close: %w", path, err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("obs: atomic write %s: rename: %w", path, err)
	}
	// Persist the rename itself. Directory fsync can fail on exotic
	// filesystems; the data is already safe, so log-worthy but not fatal.
	if d, derr := os.Open(dir); derr == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// WriteCheckpoint atomically writes one generation-numbered, checksummed
// snapshot of the store and the agents' resume cursors (nil for none)
// into dir, returning the file path.
func WriteCheckpoint(dir string, generation uint64, s *Store, cursors map[string]uint64) (string, error) {
	var payload bytes.Buffer
	records, err := s.save(&payload)
	if err != nil {
		return "", fmt.Errorf("obs: checkpoint: %w", err)
	}
	meta := CheckpointMeta{
		Format:     checkpointFormat,
		Generation: generation,
		Records:    records,
		Cursors:    cursors,
	}
	meta.SHA256 = meta.digest(payload.Bytes())
	header, err := json.Marshal(meta)
	if err != nil {
		return "", fmt.Errorf("obs: checkpoint: %w", err)
	}
	path := CheckpointPath(dir, generation)
	err = WriteFileAtomic(path, func(w io.Writer) error {
		if _, err := w.Write(header); err != nil {
			return err
		}
		if _, err := w.Write([]byte{'\n'}); err != nil {
			return err
		}
		_, err := w.Write(payload.Bytes())
		return err
	})
	if err != nil {
		mCkptFailures.Inc()
		return "", err
	}
	mCkptWrites.Inc()
	mCkptGeneration.Set(float64(generation))
	return path, nil
}

// ReadCheckpoint loads one checkpoint file, verifying the format version,
// the checksum over cursors and payload, and the record count before
// handing the bytes to the snapshot loader. The cursors come back in the
// returned meta. shards <= 0 means the default shard count.
func ReadCheckpoint(path string, shards int) (*Store, CheckpointMeta, error) {
	var meta CheckpointMeta
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, meta, fmt.Errorf("obs: checkpoint %s: %w", path, err)
	}
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return nil, meta, fmt.Errorf("obs: checkpoint %s: truncated: no header line", path)
	}
	if err := json.Unmarshal(raw[:nl], &meta); err != nil {
		return nil, meta, fmt.Errorf("obs: checkpoint %s: bad header: %w", path, err)
	}
	if meta.Format != checkpointFormat {
		return nil, meta, fmt.Errorf("obs: checkpoint %s: format %d, want %d", path, meta.Format, checkpointFormat)
	}
	payload := raw[nl+1:]
	if got := meta.digest(payload); got != meta.SHA256 {
		return nil, meta, fmt.Errorf("obs: checkpoint %s: checksum mismatch: computed %s, header %s", path, got, meta.SHA256)
	}
	s, err := LoadShards(bytes.NewReader(payload), shards)
	if err != nil {
		return nil, meta, fmt.Errorf("obs: checkpoint %s: %w", path, err)
	}
	if s.Len() != meta.Records {
		return nil, meta, fmt.Errorf("obs: checkpoint %s: %d records, header says %d", path, s.Len(), meta.Records)
	}
	return s, meta, nil
}

// SkippedCheckpoint records one checkpoint file Recover could not use.
type SkippedCheckpoint struct {
	Path string
	Err  error
}

// RecoverInfo describes the outcome of a Recover call.
type RecoverInfo struct {
	// Path is the checkpoint file that was restored ("" when none was).
	Path string
	// Meta is the restored checkpoint's header, agent cursors included.
	Meta CheckpointMeta
	// Skipped lists newer-but-invalid checkpoints that were passed over,
	// newest first.
	Skipped []SkippedCheckpoint
}

// Recover loads the newest valid checkpoint in dir, skipping (and
// reporting) corrupt or unreadable ones; the agent cursors saved with it
// are in info.Meta.Cursors. A missing or empty directory is not an
// error — there is simply nothing to recover, and the returned store is
// nil.
func Recover(dir string, shards int) (*Store, RecoverInfo, error) {
	var info RecoverInfo
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, info, nil
		}
		return nil, info, fmt.Errorf("obs: recover: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == checkpointExt {
			names = append(names, e.Name())
		}
	}
	// Zero-padded generations: lexical order is generation order.
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	for _, name := range names {
		path := filepath.Join(dir, name)
		s, meta, err := ReadCheckpoint(path, shards)
		if err != nil {
			info.Skipped = append(info.Skipped, SkippedCheckpoint{Path: path, Err: err})
			continue
		}
		info.Path = path
		info.Meta = meta
		return s, info, nil
	}
	return nil, info, nil
}

// Checkpointer periodically snapshots a store into a directory, pruning
// all but the newest DefaultCheckpointKeep generations. It is the
// crash-safety layer for long captures: after a kill, Recover restores
// the last completed snapshot.
type Checkpointer struct {
	// Dir is the checkpoint directory, created on first write.
	Dir string
	// Interval is the period between automatic snapshots in Run; it must
	// be positive.
	Interval time.Duration
	// Source returns the store to snapshot. Called once per checkpoint,
	// so the store can be swapped between runs.
	Source func() *Store
	// Cursors, when set, returns the capture agents' resume cursors. It
	// is called before the store is saved and its result is written into
	// the same checkpoint, so a saved cursor never counts a batch the
	// saved store lacks.
	Cursors func() map[string]uint64

	gen atomic.Uint64
}

// SetGeneration seeds the generation counter, so a process restarted from
// a recovered checkpoint numbers its snapshots after the one it loaded.
func (c *Checkpointer) SetGeneration(g uint64) { c.gen.Store(g) }

// Generation returns the last written (or seeded) generation.
func (c *Checkpointer) Generation() uint64 { return c.gen.Load() }

// CheckpointNow takes one snapshot immediately: reads the cursors, bumps
// the generation, writes cursors and store atomically, and prunes old
// files. A batch acked after the cursor read may land in the saved store
// too; a restart then re-ingests it, and the duplicate records leave Γ,
// a set, unchanged.
func (c *Checkpointer) CheckpointNow() (string, error) {
	var cursors map[string]uint64
	if c.Cursors != nil {
		cursors = c.Cursors()
	}
	s := c.Source()
	if s == nil {
		return "", fmt.Errorf("obs: checkpoint: no store")
	}
	if err := os.MkdirAll(c.Dir, 0o755); err != nil {
		mCkptFailures.Inc()
		return "", fmt.Errorf("obs: checkpoint: %w", err)
	}
	gen := c.gen.Add(1)
	path, err := WriteCheckpoint(c.Dir, gen, s, cursors)
	if err != nil {
		return "", err
	}
	c.prune()
	return path, nil
}

// prune removes all but the newest DefaultCheckpointKeep checkpoint
// files. Best-effort: a failed removal leaves a stale file, never a
// broken checkpoint.
func (c *Checkpointer) prune() {
	entries, err := os.ReadDir(c.Dir)
	if err != nil {
		return
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == checkpointExt {
			names = append(names, e.Name())
		}
	}
	if len(names) <= DefaultCheckpointKeep {
		return
	}
	sort.Strings(names)
	for _, name := range names[:len(names)-DefaultCheckpointKeep] {
		_ = os.Remove(filepath.Join(c.Dir, name))
	}
}

// Run checkpoints every Interval until ctx is cancelled. The caller is
// expected to take a final CheckpointNow on shutdown; Run itself stops
// quietly so cancellation stays fast.
func (c *Checkpointer) Run(ctx context.Context) {
	t := time.NewTicker(c.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if path, err := c.CheckpointNow(); err != nil {
				slog.Warn("checkpoint failed", "dir", c.Dir, "err", err)
			} else {
				slog.Debug("checkpoint written", "path", path)
			}
		}
	}
}
