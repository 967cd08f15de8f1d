package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime"
	"testing"

	"repro/internal/geom"
)

// hashF64 folds a float through its exact bit pattern, so the digest is
// byte-identical or not at all — no epsilon smearing.
func hashF64(h hash.Hash, v float64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
	h.Write(buf[:])
}

func hashInt(h hash.Hash, v int) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
	h.Write(buf[:])
}

func hashPoint(h hash.Hash, p geom.Point) {
	hashF64(h, p.X)
	hashF64(h, p.Y)
}

// worldDigest generates a full long-run input — deployment, population,
// mobility samples, three days of diurnal office traffic — from one seed
// and folds every field that reaches the pipeline into a SHA-256. Two
// equal digests mean byte-identical schedules and traffic.
func worldDigest(t *testing.T, seed int64) string {
	t.Helper()
	w := NewWorld(seed)
	min, max := geom.Pt(-350, -350), geom.Pt(350, 350)
	aps, err := UniformDeployment(DeploymentConfig{
		N: 120, Min: min, Max: max, RangeMin: 70, RangeMax: 130,
	}, w.RNG())
	if err != nil {
		t.Fatal(err)
	}
	w.APs = aps
	devs := DefaultPopulation(60, min, max, w.RNG())
	for i, d := range devs {
		if i%8 == 0 {
			d.Mobility = NewRandomWaypoint(min, max, 1.2, 3*86400, seed+int64(i))
		}
		w.AddDevice(d)
	}

	h := sha256.New()
	for _, ap := range aps {
		h.Write(ap.MAC[:])
		h.Write([]byte(ap.ID))
		h.Write([]byte(ap.SSID))
		hashPoint(h, ap.Pos)
		hashInt(h, ap.Channel)
		hashF64(h, ap.MaxRange)
	}
	for _, d := range devs {
		h.Write(d.MAC[:])
		h.Write([]byte(d.Profile.Name))
		hashPoint(h, d.Home)
		// Mobility is part of the schedule: sample the walk on a fixed
		// lattice instead of trusting the type's internals.
		for ts := 0.0; ts < 3*86400; ts += 7200 {
			hashPoint(h, d.PosAt(ts))
		}
	}
	for day := 0; day < 3; day++ {
		weekday := day != 1 // exercise both branches
		for _, ev := range OfficeTraceDay(w, day, weekday, w.RNG()) {
			hashF64(h, ev.TimeSec)
			hashPoint(h, ev.Pos)
			hashInt(h, ev.Channel)
			if ev.FromAP {
				h.Write([]byte{1})
			} else {
				h.Write([]byte{0})
			}
			raw, err := ev.Frame.Encode()
			if err != nil {
				t.Fatalf("day %d: frame encode: %v", day, err)
			}
			h.Write(raw)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenWorldDigest pins seed 42's digest. It asserts more than the
// equality tests below: the generated world is stable across processes,
// machines and Go releases, so benchmark runs of two commits replay the
// same traffic and their figures are comparable. If an intentional
// generator change lands, re-pin this constant in the same commit and say
// so.
const goldenWorldDigest = "e78929b6a860fc7004a018f15e9c7c15d9d8f6615a480ae0a0ee3cafd39ff22e"

func TestWorldDigestGolden(t *testing.T) {
	if got := worldDigest(t, 42); got != goldenWorldDigest {
		t.Fatalf("world digest for seed 42 changed:\n got %s\nwant %s\n(an intentional generator change must re-pin the golden in the same commit)", got, goldenWorldDigest)
	}
}

func TestWorldDigestDeterministicAcrossRuns(t *testing.T) {
	a := worldDigest(t, 7)
	b := worldDigest(t, 7)
	if a != b {
		t.Fatalf("same seed, different traffic:\n%s\n%s", a, b)
	}
	if c := worldDigest(t, 8); c == a {
		t.Fatal("different seeds produced identical traffic")
	}
}

func TestWorldDigestIndependentOfGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	digests := map[string]bool{}
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		digests[worldDigest(t, 7)] = true
	}
	if len(digests) != 1 {
		t.Fatalf("traffic varies with GOMAXPROCS: %d distinct digests", len(digests))
	}
}
