package obs

import (
	"math"
	"slices"
	"sort"

	"repro/internal/dot11"
)

// The time index lets a map frame localize only the devices its window
// holds. Each shard files its device logs into buckets of BucketSec
// seconds: a device joins bucket ⌊t/BucketSec⌋ with the first record it
// ingests there, whatever the arrival order. Membership is therefore
// append-only, a re-sort after out-of-order ingest moves records but never
// a bucket's members, and the invariant a frame relies on is:
//
//	every device with a record in [start, end) is a candidate of
//	WindowCandidates(start, end).
//
// A record with t in [start, end) lies in a bucket between start's and
// end's, because ⌊t/BucketSec⌋ is monotone in t, and its device joined
// that bucket no later than that record's ingest. Records whose bucket
// number is out of range (NaN, ±Inf, |t| beyond ~272 years) are not
// indexed; by the same monotonicity they can only fall in a window whose
// bounds are out of range too, and such a window lists every device.

// BucketSec is the width of one time-index bucket, in seconds. cmd/marauder's
// 45 s window spans 6–7 buckets. It is a power of two, so t/BucketSec is
// exact.
const BucketSec = 8.0

// maxBucket bounds the bucket numbers the index holds, so every one fits
// an int32 with room for the noBucket sentinel.
const maxBucket = 1 << 30

// noBucket is the bucket of a device log that has joined none yet.
const noBucket = math.MinInt32

// bucketOf returns t's bucket number, or false when t is NaN or its bucket
// lies outside ±maxBucket.
func bucketOf(t float64) (int32, bool) {
	b := math.Floor(t / BucketSec)
	if !(b >= -maxBucket && b <= maxBucket) {
		return 0, false
	}
	return int32(b), true
}

// timeBucket lists the ids of the device logs with a record in bucket n.
type timeBucket struct {
	n    int32
	logs []int32
}

// indexLocked files dl as joining bucket b. Buckets stay sorted by
// number; in-order ingest only ever appends to the last one or opens the
// next. Caller holds the shard write lock.
func (sh *shard) indexLocked(dl *deviceLog, b int32) {
	dl.bucket = b
	bs := sh.buckets
	i := len(bs) - 1
	if i < 0 || bs[i].n != b {
		i = firstBucket(bs, b)
		if i == len(bs) || bs[i].n != b {
			// A bucket holds about as many devices as the one before it, so
			// it starts with that capacity instead of growing to it.
			size := 1
			if i > 0 {
				size = max(size, len(bs[i-1].logs))
			}
			logs := append(make([]int32, 0, size), dl.id)
			sh.buckets = slices.Insert(bs, i, timeBucket{n: b, logs: logs})
			return
		}
	}
	bs[i].logs = append(bs[i].logs, dl.id)
}

// firstBucket returns the index of the first of bs numbered ≥ b.
func firstBucket(bs []timeBucket, b int32) int {
	return sort.Search(len(bs), func(j int) bool { return bs[j].n >= b })
}

// Candidate is one device a map frame localizes: a device log the time
// index lists for the frame's window.
type Candidate struct {
	log *deviceLog
	sh  *shard
}

// Device returns the candidate's device.
func (c *Candidate) Device() dot11.MAC { return c.log.dev }

// WindowCandidates lists the devices a map frame over [start, end) must
// localize. Every device with a record in the window is among them (see
// the time index above); a device whose records all lie outside the
// window's buckets is not. A window with a non-finite bound or a bound out
// of the index's range lists every device with a record instead. The list
// is in no particular order, and it is fixed when the call returns: a
// device first seen later is not on it, but a later record of a listed
// device is seen by its candidate's Sweep.
func (s *Store) WindowCandidates(start, end float64) []Candidate {
	b0, ok0 := bucketOf(start)
	b1, ok1 := bucketOf(end)
	var (
		out []Candidate
		// listed marks, per log id of the shard at hand, the logs already
		// on out.
		listed []bool
	)
	for _, sh := range s.shards {
		sh.mu.RLock()
		if ok0 && ok1 {
			listed = slices.Grow(listed[:0], len(sh.logs))[:len(sh.logs)]
			clear(listed)
			bs := sh.buckets
			for i := firstBucket(bs, b0); i < len(bs) && bs[i].n <= b1; i++ {
				for _, id := range bs[i].logs {
					if !listed[id] {
						listed[id] = true
						out = append(out, Candidate{log: sh.logs[id], sh: sh})
					}
				}
			}
		} else {
			for _, dl := range sh.logs {
				out = append(out, Candidate{log: dl, sh: sh})
			}
		}
		sh.mu.RUnlock()
	}
	return out
}

// Sweep returns a sweep over the candidate's log, as Store.Sweep does
// for its device, without the device lookup.
func (c *Candidate) Sweep() Sweep { return Sweep{sh: c.sh, dev: c.log.dev, dl: c.log} }
