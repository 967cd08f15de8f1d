// Package geom implements the planar geometry the Marauder's map
// localization algorithms are built on: circles, disc intersections,
// intersection-region vertex enumeration, and area computation.
//
// All coordinates are in a local Cartesian plane (metres). Conversion from
// geodetic coordinates lives in package geo.
package geom

import (
	"errors"
	"fmt"
	"math"
)

// Eps is the tolerance used for geometric predicates. Distances below Eps
// metres are considered zero.
const Eps = 1e-9

// Point is a location in the local 2D plane, in metres.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Pt is shorthand for constructing a Point.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Add returns p + q componentwise.
func (p Point) Add(q Point) Point { return Point{X: p.X + q.X, Y: p.Y + q.Y} }

// Sub returns p - q componentwise.
func (p Point) Sub(q Point) Point { return Point{X: p.X - q.X, Y: p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{X: p.X * s, Y: p.Y * s} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Dist2 returns the squared Euclidean distance between p and q.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Norm returns the Euclidean norm of p viewed as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.3f, %.3f)", p.X, p.Y) }

// Circle is a circle (and, where context requires, the closed disc it
// bounds) with centre C and radius R, in metres.
type Circle struct {
	C Point   `json:"center"`
	R float64 `json:"radius"`
}

// ErrNoIntersection is returned by operations that require a non-empty
// intersection region when the region is empty.
var ErrNoIntersection = errors.New("geom: empty intersection region")

// Contains reports whether p lies inside the closed disc (within Eps).
func (c Circle) Contains(p Point) bool {
	return c.C.Dist(p) <= c.R+Eps
}

// Area returns the disc area πR².
func (c Circle) Area() float64 { return math.Pi * c.R * c.R }

// Intersect returns the intersection points of the two circle boundaries.
// The result has zero points when the circles are disjoint or one strictly
// contains the other, one point when they are tangent, and two otherwise.
// Coincident circles yield zero points.
func (c Circle) Intersect(o Circle) []Point {
	p1, p2, n := c.intersect2(o)
	switch n {
	case 1:
		return []Point{p1}
	case 2:
		return []Point{p1, p2}
	}
	return nil
}

// intersect2 is the allocation-free core of Intersect: it reports the
// boundary intersection points in p1 (and p2 when n == 2). The numerics are
// bit-identical to the original Intersect.
func (c Circle) intersect2(o Circle) (p1, p2 Point, n int) {
	d := c.C.Dist(o.C)
	switch {
	case d < Eps:
		// Concentric (possibly coincident): boundaries share either no
		// points or infinitely many; report none.
		return Point{}, Point{}, 0
	case d > c.R+o.R+Eps:
		return Point{}, Point{}, 0 // disjoint
	case d < math.Abs(c.R-o.R)-Eps:
		return Point{}, Point{}, 0 // one strictly inside the other
	}
	// a is the distance from c.C to the chord's foot along the centre line.
	a := (d*d + c.R*c.R - o.R*o.R) / (2 * d)
	h2 := c.R*c.R - a*a
	if h2 < 0 {
		h2 = 0
	}
	h := math.Sqrt(h2)
	ux := (o.C.X - c.C.X) / d
	uy := (o.C.Y - c.C.Y) / d
	foot := Point{X: c.C.X + a*ux, Y: c.C.Y + a*uy}
	if h < Eps {
		return foot, Point{}, 1 // tangent
	}
	return Point{X: foot.X + h*uy, Y: foot.Y - h*ux},
		Point{X: foot.X - h*uy, Y: foot.Y + h*ux}, 2
}

// LensArea returns the area of the intersection of the two closed discs
// (the classic "lens" formula). It is 0 for disjoint discs and the area of
// the smaller disc when one contains the other.
func (c Circle) LensArea(o Circle) float64 {
	d := c.C.Dist(o.C)
	if d >= c.R+o.R {
		return 0
	}
	rMin := math.Min(c.R, o.R)
	if d <= math.Abs(c.R-o.R) {
		return math.Pi * rMin * rMin
	}
	r1, r2 := c.R, o.R
	// Clamp acos arguments against floating-point drift.
	a1 := clampUnit((d*d + r1*r1 - r2*r2) / (2 * d * r1))
	a2 := clampUnit((d*d + r2*r2 - r1*r1) / (2 * d * r2))
	term := (-d + r1 + r2) * (d + r1 - r2) * (d - r1 + r2) * (d + r1 + r2)
	if term < 0 {
		term = 0
	}
	return r1*r1*math.Acos(a1) + r2*r2*math.Acos(a2) - 0.5*math.Sqrt(term)
}

func clampUnit(x float64) float64 {
	if x > 1 {
		return 1
	}
	if x < -1 {
		return -1
	}
	return x
}

// Centroid returns the arithmetic mean of the points. It returns an error
// for an empty input.
func Centroid(pts []Point) (Point, error) {
	if len(pts) == 0 {
		return Point{}, errors.New("geom: centroid of empty point set")
	}
	var sx, sy float64
	for _, p := range pts {
		sx += p.X
		sy += p.Y
	}
	n := float64(len(pts))
	return Point{X: sx / n, Y: sy / n}, nil
}

// InAllDiscs reports whether p lies inside every closed disc in discs.
func InAllDiscs(p Point, discs []Circle) bool {
	for _, d := range discs {
		if !d.Contains(p) {
			return false
		}
	}
	return true
}

// RegionVertices enumerates the vertex set Δ the paper's M-Loc algorithm
// uses: all pairwise circle-circle intersection points that lie inside every
// disc. For a single disc — where no pairwise intersections exist — the disc
// centre is returned so that the intersection region degenerates gracefully
// to the nearest-AP estimate, matching the paper's observation that with
// k = 1 disc-intersection reduces to the nearest-AP approach.
func RegionVertices(discs []Circle) []Point {
	return AppendRegionVertices(nil, discs)
}

// AppendRegionVertices is RegionVertices with caller-supplied storage: the
// vertex set is appended to dst and the extended slice returned. An
// unchanged dst means the region is empty. The enumeration order and
// numerics are bit-identical to RegionVertices.
//
// Candidates are screened with hypot-free containment (boundedDisc), and
// each candidate's checks are reordered for early exit: the disc that
// excluded the previous candidate goes first, the candidate's own two
// defining discs — on whose boundaries it lies, so they always need the
// exact predicate — go last. Containment in every disc is a conjunction
// of pure predicates, each answering exactly as Circle.Contains, so
// neither the screen nor the order can change Δ, its order, or anything
// derived from it.
func AppendRegionVertices(dst []Point, discs []Circle) []Point {
	switch len(discs) {
	case 0:
		return dst
	case 1:
		return append(dst, discs[0].C)
	}
	// Γs stay well under 32 discs, so the bounds live on the stack.
	var stack [32]boundedDisc
	bs := stack[:0]
	if len(discs) > len(stack) {
		bs = make([]boundedDisc, 0, len(discs))
	}
	for _, d := range discs {
		bs = append(bs, boundDisc(d))
	}
	base := len(dst)
	last := -1 // the disc that excluded the previous candidate
	for i := 0; i < len(discs); i++ {
		for j := i + 1; j < len(discs); j++ {
			p1, p2, n := discs[i].intersect2(discs[j])
			if n >= 1 && inAllBounded(p1, bs, i, j, &last) {
				dst = append(dst, p1)
			}
			if n == 2 && inAllBounded(p2, bs, i, j, &last) {
				dst = append(dst, p2)
			}
		}
	}
	if len(dst) > base {
		return dst
	}
	// No boundary vertices inside all discs. Either the region is empty, or
	// one disc is contained in all others (region == smallest disc). Detect
	// the latter: the centre of the smallest disc must be inside all discs.
	smallest := 0
	for i, d := range discs {
		if d.R < discs[smallest].R {
			smallest = i
		}
	}
	c := discs[smallest].C
	for k := range bs {
		if !bs[k].contains(c) {
			return dst
		}
	}
	return append(dst, c)
}

// boundedDisc is a disc with Circle.Contains' threshold precomputed in
// squared-distance space: d² below lo is conclusively inside, above hi
// conclusively outside, and only the 1e-9-relative band between them
// pays the exact hypot predicate. Both M-Loc vertex kernels use it:
// AppendRegionVertices and the incremental Region.
type boundedDisc struct {
	c      Circle
	lo, hi float64
}

// boundDisc precomputes c's containment bounds (see containBounds).
func boundDisc(c Circle) boundedDisc {
	lo, hi := containBounds(c.R)
	return boundedDisc{c: c, lo: lo, hi: hi}
}

// containBounds returns the squared-distance bounds (R+Eps)²·(1∓1e-9)
// within which Circle.Contains must be consulted. They are sound only
// when R+Eps is positive and its square a finite normal number: then the
// few-ulp rounding of d² = dx²+dy² (overflow to +Inf and subnormal
// underflow included) and of hypot sit far inside the 1e-9 margin. For
// any other radius — R ≤ −Eps, NaN, huge or tiny — the bounds are
// ±Inf, so every test falls through to the exact predicate.
func containBounds(r float64) (lo, hi float64) {
	thr := r + Eps
	t2 := thr * thr
	if !(thr > 0) || !(t2 >= minNormal) || t2 > math.MaxFloat64 {
		return math.Inf(-1), math.Inf(1)
	}
	return t2 * (1 - 1e-9), t2 * (1 + 1e-9)
}

// minNormal is the smallest positive normal float64.
const minNormal = 0x1p-1022

// contains answers exactly as b.c.Contains(p). NaN distances fail both
// comparisons and reach the exact predicate.
func (b *boundedDisc) contains(p Point) bool {
	dx, dy := p.X-b.c.C.X, p.Y-b.c.C.Y
	d2 := dx*dx + dy*dy
	if d2 < b.lo {
		return true
	}
	if d2 > b.hi {
		return false
	}
	return b.exact(p)
}

// exact is the razor-band fallback. It is rare, so it stays out of line
// and keeps the loops that spell contains out (Region.Add,
// Region.findExcluder) compact.
//
//go:noinline
func (b *boundedDisc) exact(p Point) bool {
	return b.c.Contains(p)
}

// inAllBounded reports whether p, the intersection point of discs i and
// j, lies in every disc. It tests *last first and records any other
// excluder there, then i and j.
func inAllBounded(p Point, bs []boundedDisc, i, j int, last *int) bool {
	l := *last
	if l >= 0 && l != i && l != j && !bs[l].contains(p) {
		return false
	}
	for k := range bs {
		if k == i || k == j || k == l {
			continue
		}
		if !bs[k].contains(p) {
			*last = k
			return false
		}
	}
	return bs[i].contains(p) && bs[j].contains(p)
}

// BoundingBox returns the axis-aligned bounding box of the intersection of
// the discs (the intersection of the per-disc boxes). ok is false when the
// box is empty.
func BoundingBox(discs []Circle) (minP, maxP Point, ok bool) {
	if len(discs) == 0 {
		return Point{}, Point{}, false
	}
	minP = Point{X: math.Inf(-1), Y: math.Inf(-1)}
	maxP = Point{X: math.Inf(1), Y: math.Inf(1)}
	for _, d := range discs {
		minP.X = math.Max(minP.X, d.C.X-d.R)
		minP.Y = math.Max(minP.Y, d.C.Y-d.R)
		maxP.X = math.Min(maxP.X, d.C.X+d.R)
		maxP.Y = math.Min(maxP.Y, d.C.Y+d.R)
	}
	if minP.X > maxP.X || minP.Y > maxP.Y {
		return Point{}, Point{}, false
	}
	return minP, maxP, true
}
