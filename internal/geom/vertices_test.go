package geom

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// appendRegionVerticesRef is the straightforward M-Loc vertex kernel that
// AppendRegionVertices must reproduce bit for bit: every pairwise
// boundary intersection, tested against every disc with the exact
// hypot-based Circle.Contains, in plain index order.
func appendRegionVerticesRef(dst []Point, discs []Circle) []Point {
	switch len(discs) {
	case 0:
		return dst
	case 1:
		return append(dst, discs[0].C)
	}
	base := len(dst)
	for i := 0; i < len(discs); i++ {
		for j := i + 1; j < len(discs); j++ {
			p1, p2, n := discs[i].intersect2(discs[j])
			if n >= 1 && InAllDiscs(p1, discs) {
				dst = append(dst, p1)
			}
			if n == 2 && InAllDiscs(p2, discs) {
				dst = append(dst, p2)
			}
		}
	}
	if len(dst) > base {
		return dst
	}
	smallest := 0
	for i, d := range discs {
		if d.R < discs[smallest].R {
			smallest = i
		}
	}
	if InAllDiscs(discs[smallest].C, discs) {
		return append(dst, discs[smallest].C)
	}
	return dst
}

// sameBits reports whether two vertex lists are identical down to the
// float64 bit patterns (so NaN coordinates compare equal to themselves).
func sameBits(a, b []Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].X) != math.Float64bits(b[i].X) ||
			math.Float64bits(a[i].Y) != math.Float64bits(b[i].Y) {
			return false
		}
	}
	return true
}

// checkVerticesMatchRef compares the kernel against the reference, both
// from an empty dst and appended behind a non-empty prefix.
func checkVerticesMatchRef(t *testing.T, name string, discs []Circle) {
	t.Helper()
	want := appendRegionVerticesRef(nil, discs)
	got := AppendRegionVertices(nil, discs)
	if !sameBits(got, want) {
		t.Fatalf("%s (k=%d): vertices differ\n got %v\nwant %v\ndiscs %v", name, len(discs), got, want, discs)
	}
	prefix := []Point{{X: 7, Y: -7}}
	got = AppendRegionVertices(append([]Point(nil), prefix...), discs)
	want = appendRegionVerticesRef(append([]Point(nil), prefix...), discs)
	if !sameBits(got, want) {
		t.Fatalf("%s (k=%d): vertices behind a prefix differ\n got %v\nwant %v", name, len(discs), got, want)
	}
}

// cityGamma draws a Γ shaped like a located device's: k discs whose
// centres scatter around a true position, each wide enough to cover it,
// so the region is non-empty and most candidates need several checks.
func cityGamma(rng *rand.Rand, k int) []Circle {
	dev := Pt(rng.Float64()*3000, rng.Float64()*3000)
	discs := make([]Circle, k)
	for i := range discs {
		a := rng.Float64() * 2 * math.Pi
		d := rng.Float64() * 90
		c := Pt(dev.X+d*math.Cos(a), dev.Y+d*math.Sin(a))
		discs[i] = Circle{c, d + 5 + rng.Float64()*60}
	}
	return discs
}

func TestRegionVerticesMatchesRef(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	many := make([]Circle, 40)
	for i := range many {
		a := float64(i) * 2 * math.Pi / float64(len(many))
		many[i] = Circle{Pt(3*math.Cos(a), 3*math.Sin(a)), 5}
	}
	cases := map[string][]Circle{
		"empty":             nil,
		"single":            {{Pt(3, 4), 2}},
		"lens":              {{Pt(0, 0), 1}, {Pt(1, 0), 1}},
		"disjoint":          {{Pt(0, 0), 1}, {Pt(10, 0), 1}},
		"nested":            {{Pt(0, 0), 10}, {Pt(1, 1), 1}, {Pt(-1, 0), 2}},
		"tangent external":  {{Pt(0, 0), 1}, {Pt(2, 0), 1}},
		"tangent internal":  {{Pt(0, 0), 2}, {Pt(1, 0), 1}},
		"tangent near Eps":  {{Pt(0, 0), 1}, {Pt(2+Eps/2, 0), 1}},
		"coincident":        {{Pt(1, 1), 3}, {Pt(1, 1), 3}, {Pt(2, 1), 3}},
		"concentric":        {{Pt(1, 1), 3}, {Pt(1, 1), 2}},
		"zero radius":       {{Pt(0, 0), 0}, {Pt(0, 0), 1}},
		"zero radius apart": {{Pt(0, 0), 1}, {Pt(0.5, 0), 0}, {Pt(0.5, 0.5), 1}},
		"negative radius":   {{Pt(0, 0), -1}, {Pt(0.5, 0), 1}, {Pt(0, 0.5), 1}},
		"tiny negative":     {{Pt(0, 0), -Eps / 2}, {Pt(0, 0), 1}},
		"NaN centre":        {{Pt(nan, 0), 1}, {Pt(0, 0), 1}, {Pt(1, 0), 1}},
		"NaN radius":        {{Pt(0, 0), nan}, {Pt(0, 0), 1}, {Pt(1, 0), 1}},
		"+Inf centre":       {{Pt(inf, 0), 1}, {Pt(0, 0), 1}, {Pt(1, 0), 1}},
		"-Inf centre":       {{Pt(0, -inf), 1}, {Pt(0, 0), 1}, {Pt(1, 0), 1}},
		"Inf radius":        {{Pt(0, 0), inf}, {Pt(0, 0), 1}, {Pt(1, 0), 1}},
		"huge coordinates":  {{Pt(1e200, 0), 2e200}, {Pt(-1e200, 0), 2e200}, {Pt(0, 1e200), 2e200}},
		"overflowing d2":    {{Pt(1e160, 0), 1}, {Pt(0, 0), 1}, {Pt(1, 0), 1}},
		"subnormal scale":   {{Pt(0, 0), 1e-170}, {Pt(1e-170, 0), 1e-170}, {Pt(0, 1e-170), 1e-170}},
		"k > 32":            many,
		"k > 32 city":       cityGamma(rand.New(rand.NewSource(3)), 45),
	}
	for name, discs := range cases {
		checkVerticesMatchRef(t, name, discs)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		k := 1 + rng.Intn(24)
		var discs []Circle
		if i%2 == 0 {
			discs = cityGamma(rng, k)
		} else {
			// Quantized centres and radii make exact tangency and
			// coincidence common.
			discs = make([]Circle, k)
			for d := range discs {
				discs[d] = Circle{Pt(float64(rng.Intn(9)), float64(rng.Intn(9))), float64(rng.Intn(12)) / 2}
			}
		}
		checkVerticesMatchRef(t, "random", discs)
	}
}

// FuzzRegionVertices is the differential oracle for the M-Loc vertex
// kernel: AppendRegionVertices must equal appendRegionVerticesRef bit for
// bit on any disc set. Each disc takes 5 bytes — centre (int8/4, int8/4)
// and radius int16/16, so tangency, containment, coincidence and
// non-positive radii are reachable — unless its lead byte has the top bit
// set, in which case it takes 25 bytes and the centre and radius are raw
// float64 bit patterns (NaN, ±Inf, subnormals, extremes).
func FuzzRegionVertices(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 16, 0, 4, 0, 0, 16})                 // lens
	f.Add([]byte{0, 0, 0, 0, 16, 0, 8, 0, 0, 16})                 // external tangency
	f.Add([]byte{0, 0, 0, 0, 32, 0, 4, 0, 0, 16})                 // internal tangency
	f.Add([]byte{0, 4, 4, 0, 48, 0, 4, 4, 0, 48, 0, 8, 4, 0, 48}) // coincident pair
	f.Add([]byte{0, 0, 0, 0xff, 0xf0, 0, 2, 0, 0, 16, 0, 0, 2, 0, 16})
	raw := []byte{0x80}
	raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(math.NaN()))
	raw = binary.LittleEndian.AppendUint64(raw, 0)
	raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(1))
	raw = append(raw, 0, 0, 0, 0, 16, 0, 4, 0, 0, 16)
	f.Add(raw)

	f.Fuzz(func(t *testing.T, data []byte) {
		var discs []Circle
		for len(data) > 0 && len(discs) < 40 {
			if data[0]&0x80 != 0 {
				if len(data) < 25 {
					break
				}
				x := math.Float64frombits(binary.LittleEndian.Uint64(data[1:]))
				y := math.Float64frombits(binary.LittleEndian.Uint64(data[9:]))
				r := math.Float64frombits(binary.LittleEndian.Uint64(data[17:]))
				discs = append(discs, Circle{Pt(x, y), r})
				data = data[25:]
				continue
			}
			if len(data) < 5 {
				break
			}
			discs = append(discs, Circle{
				C: Pt(float64(int8(data[1]))/4, float64(int8(data[2]))/4),
				R: float64(int16(binary.BigEndian.Uint16(data[3:5]))) / 16,
			})
			data = data[5:]
		}
		checkVerticesMatchRef(t, "fuzz", discs)
	})
}

// cityGammas is the paired benchmarks' workload: located-device Γs with
// the city's mean |Γ| of about 16.
func cityGammas() [][]Circle {
	rng := rand.New(rand.NewSource(5))
	out := make([][]Circle, 64)
	for i := range out {
		out[i] = cityGamma(rng, 12+rng.Intn(9))
	}
	return out
}

var sinkVertices []Point

func BenchmarkRegionVerticesRef(b *testing.B) {
	gammas := cityGammas()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkVertices = appendRegionVerticesRef(sinkVertices[:0], gammas[i%len(gammas)])
	}
}

func BenchmarkRegionVerticesFast(b *testing.B) {
	gammas := cityGammas()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkVertices = AppendRegionVertices(sinkVertices[:0], gammas[i%len(gammas)])
	}
}
