package geom

import "math"

// Region maintains the intersection of a dynamic set of closed discs
// incrementally: Add and Remove reclassify only the pairs involving the
// changed disc instead of rebuilding the O(k²) structure from scratch,
// and the steady state allocates nothing (removed circles' neighbor
// records are recycled). It serves core.MLocTracked: a tracked device's
// communicable set Γ changes by ±1–2 APs per step, so almost all pair
// state survives between fixes.
//
// Every circle carries a caller-assigned uint64 key that fixes a total
// order (core.MLocTracked uses big-endian MAC bytes, so ascending key is
// ascending MAC). The canonical order makes Area and AppendVertices
// reproduce the from-scratch IntersectionArea / RegionVertices answers on
// the same key-sorted disc slice: AppendVertices bit-exactly (same
// Intersect numerics in the same enumeration order, same Contains
// predicate), Area to within floating-point noise (identical pair
// classifications, analytic arc sweep instead of midpoint probes).
//
// Boundary-vertex aliveness (vertex ∈ every live disc) is itself
// maintained incrementally with an exclusion-witness scheme: a dead
// vertex records one live circle that excludes it, so Add re-tests only
// currently-alive vertices against the one new disc, and Remove
// re-adjudicates only vertices whose recorded witness is the removed
// disc. Alive vertices are kept in a list sorted by (lower key, higher
// key, vertex index) — exactly RegionVertices' enumeration order — so a
// steady-state AppendVertices is a straight copy.
//
// Degenerate pair configurations — near-coincident centres, near-tangent
// boundaries — are where an analytic sweep and the probe-based full
// algorithm could disagree, so classification detects them (the cosine of
// the half-angle within degenEps of ±1, matching the full algorithm's
// 1e-7 probe tolerance band) and the Region falls back wholesale to the
// full algorithms until the offending disc leaves. The fallback preserves
// the equivalence contract by construction.
//
// The zero value is an empty, ready-to-use Region. A Region is not safe
// for concurrent use.
type Region struct {
	circles []regionCircle // ascending key

	disjoint int // live pairs with empty pairwise intersection
	degen    int // live pairs classified relDegenerate

	// alive holds the current boundary vertices — pair intersection
	// points contained in every live disc — sorted by (k1, k2, idx).
	alive []aliveVertex

	// gen is bumped per arc sweep; circles touched by an alive vertex are
	// stamped with it (see regionCircle.aliveGen).
	gen uint32

	// Scratch, recycled across calls.
	circScratch []Circle
	spare       [][]neighbor  // neighbor slices of removed circles
	spareEvs    [][]clipEvent // clip-event slices of removed circles
}

// Pair relations. A pair is classified once, from the lower-key circle's
// point of view; the higher-key endpoint stores the flipped relation.
const (
	relCross       = uint8(iota) // boundaries cross: arcs clipped
	relDisjoint                  // d >= a.R+b.R: whole region empty
	relInsideOther               // this disc inside the other: other clips nothing off this circle
	relOtherInside               // other disc inside this one: this circle contributes no arcs
	relDegenerate                // too close to a boundary case: full fallback
)

// Vertex aliveness states, stored per vertex slot on the owning (lower
// key) endpoint of a crossing pair.
const (
	vxDead  = uint8(iota) // outside the disc named by the witness key
	vxAlive               // inside every live disc: on the region boundary
)

type regionCircle struct {
	key uint64
	// boundedDisc is the disc with its hypot-free containment bounds.
	boundedDisc
	inner   int // discs entirely inside this one (each kills this circle's arcs)
	cross   int // crossing neighbors
	nbrs    []neighbor
	contrib float64 // cached Green's-theorem contribution of this circle's arcs
	dirty   bool

	// evs is the sorted clip-event list of this circle's boundary: two
	// events per crossing neighbor, delimiting the arc inside that
	// neighbor's disc, ordered by (angle, delta) with closes before opens.
	// wrap counts the intervals that pass through angle 0 (s >= e); they
	// contribute to the sweep's base coverage depth. The list is
	// materialized lazily (evsOK) on the first sweep that actually needs
	// it — most circles are fully clipped and never pay the per-pair trig
	// — and from then on maintained incrementally: Add inserts the new
	// pair's events, Remove deletes the departing neighbor's by key, so a
	// contributing circle's sweep never sorts and pays trig only for its
	// one changed neighbor per churn step.
	evs   []clipEvent
	wrap  int
	evsOK bool

	// aliveGen marks (against Region.gen) that this circle participates
	// in a currently-alive boundary vertex. A circle with crossing
	// neighbors and no alive vertex contributes no arcs: every
	// positive-length boundary arc of a circle ends in intersection
	// points with other circles, and those endpoints lie in every closed
	// disc, so the witness scheme holds them alive.
	aliveGen uint32

	// invR caches 1/R for normalizing stored boundary vertices into
	// clip-event unit directions (0 for a degenerate zero-radius disc,
	// which can never be a crossing pair's endpoint).
	invR float64
}

// neighbor records one circle's relation to one other live circle, sorted
// ascending by key. d2 caches the squared centre distance (keeping the
// record small keeps the sorted-insert memmoves cheap; arc-sweep state
// lives in the circle's clip-event list). For a crossing pair the boundary
// intersection vertices are stored on the lower-key endpoint only
// (vx[:nv]), computed as lowerCircle.Intersect(higherCircle) so the
// coordinates are bit-identical to RegionVertices' canonical i<j
// enumeration; vstat/vwit track each vertex's aliveness and, when dead,
// the key of one live circle witnessing the exclusion.
type neighbor struct {
	key   uint64
	d2    float64
	vwit  [2]uint64
	vx    [2]Point
	rel   uint8
	nv    uint8
	vstat [2]uint8
}

// aliveVertex is one region boundary vertex: intersection point idx
// (0 or 1) of the crossing pair (k1, k2), k1 < k2.
type aliveVertex struct {
	k1, k2 uint64
	idx    uint8
	p      Point
}

// clipEvent is one endpoint of a crossing neighbor's clip interval on a
// circle's boundary, tagged with the neighbor's key so Remove can delete
// the pair without re-deriving it. The endpoint is kept as a unit
// direction (ux, uy) plus its diamond pseudo-angle tau — a monotone,
// division-only stand-in for the polar angle — so building an event
// costs no transcendentals; the sweep orders and gates by tau and pays
// one atan2 per arc that actually survives onto the region boundary.
type clipEvent struct {
	tau    float64 // diamond pseudo-angle of (ux, uy), in [0, 4)
	ux, uy float64 // unit direction of the endpoint from the circle centre
	key    uint64
	delta  int8 // +1 opens the interval, −1 closes it
}

// diamondTau maps a direction to [0, 4), ordered exactly like the polar
// angle on [0, 2π): quadrant index plus a monotone ratio within the
// quadrant. Two divisions, no trig.
func diamondTau(x, y float64) float64 {
	if y >= 0 {
		if x >= 0 {
			return y / (x + y)
		}
		return 1 - x/(y-x)
	}
	if x < 0 {
		return 2 - y/(-x-y)
	}
	return 3 + x/(x-y)
}

// Len returns the number of live discs.
func (r *Region) Len() int { return len(r.circles) }

// Degenerate reports whether the region is in full-recompute fallback
// because some live pair is too close to a boundary configuration.
func (r *Region) Degenerate() bool { return r.degen > 0 }

// Reset removes all discs, keeping allocated storage for reuse.
func (r *Region) Reset() {
	for i := range r.circles {
		r.recycle(&r.circles[i])
	}
	r.circles = r.circles[:0]
	r.alive = r.alive[:0]
	r.disjoint, r.degen = 0, 0
}

// AppendCircles appends the live discs in key order.
func (r *Region) AppendCircles(dst []Circle) []Circle {
	for i := range r.circles {
		dst = append(dst, r.circles[i].c)
	}
	return dst
}

func (r *Region) recycle(rc *regionCircle) {
	if cap(rc.nbrs) > 0 {
		r.spare = append(r.spare, rc.nbrs[:0])
	}
	rc.nbrs = nil
	if cap(rc.evs) > 0 {
		r.spareEvs = append(r.spareEvs, rc.evs[:0])
	}
	rc.evs = nil
}

func (r *Region) newNbrs() []neighbor {
	if n := len(r.spare); n > 0 {
		s := r.spare[n-1]
		r.spare = r.spare[:n-1]
		return s
	}
	return nil
}

func (r *Region) newEvs() []clipEvent {
	if n := len(r.spareEvs); n > 0 {
		s := r.spareEvs[n-1]
		r.spareEvs = r.spareEvs[:n-1]
		return s
	}
	return nil
}

func (r *Region) find(key uint64) int {
	lo, hi := 0, len(r.circles)
	for lo < hi {
		m := (lo + hi) / 2
		if r.circles[m].key < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// degenEps bounds |cos half-angle| away from ±1: inside this band the
// clipped arc is so short (or so near the full circle) that the full
// algorithm's 1e-7-tolerance midpoint probes could disagree with an exact
// interval sweep, so such pairs force the fallback path. The band matches
// inAllOthers' probe tolerance: penetration depth of near-tangent circles
// is ~R·(1−|cos|), so 1e-7 in cosine space covers the 1e-7·(1+R) probe
// band.
const degenEps = 1e-7

// classPad widens every classification band of classifyPair by a relative
// margin in squared-distance space. classifyPair works on d² = dx²+dy²
// while the reference comparisons (IntersectionArea's branch chain, the
// old hypot-based classifier) work on d = hypot(dx, dy); the two round
// differently by a few ulps, so each decision threshold is smeared into a
// band classified relDegenerate. Inside the band the Region falls back to
// the full algorithms (correct by construction); conclusively outside it,
// the squared and linear comparisons provably agree, so every non-degen
// classification matches the reference chain exactly. 1e-14 relative is
// ~45 ulps — vastly wider than the ~3-ulp rounding gap, and vastly
// narrower than the Eps / degenEps bands it pads.
const classPad = 1e-14

// classifyPair computes the relation of the pair (a, b), from a's point
// of view; a must be the lower-key circle. Outside the padded degenerate
// bands the decisions are exactly the comparison chain IntersectionArea
// uses per circle pair, so both paths agree on which branch every pair
// takes — but computed hypot-free in squared-distance space. d2 is the
// squared centre distance, cached by the caller for the arc sweep.
func classifyPair(a, b Circle) (rel uint8, d2 float64) {
	dx, dy := a.C.X-b.C.X, a.C.Y-b.C.Y
	d2 = dx*dx + dy*dy
	// The disjoint/containment bands are IntersectionArea's, each widened
	// by Eps: within Eps of exact tangency Circle.Intersect still reports
	// the tangent point, so RegionVertices and the area branches disagree
	// about the pair; route that band through the fallback, which uses
	// both full algorithms verbatim.
	if math.IsInf(d2, 0) || math.IsNaN(d2) {
		return relDegenerate, d2
	}
	sum := a.R + b.R
	if slo := sum * sum * (1 - classPad); d2 >= slo {
		shi := (sum + Eps) * (sum + Eps) * (1 + classPad)
		if d2 <= shi {
			return relDegenerate, d2 // external tangency
		}
		return relDisjoint, d2
	}
	if diff := b.R - a.R; diff >= 0 {
		if hi := diff * diff * (1 + classPad); d2 <= hi {
			if lo := diff - Eps; lo > 0 && d2 < lo*lo*(1-classPad) {
				return relInsideOther, d2
			}
			return relDegenerate, d2 // internal tangency
		}
	} else {
		diff = -diff
		if hi := diff * diff * (1 + classPad); d2 <= hi {
			if lo := diff - Eps; lo > 0 && d2 < lo*lo*(1-classPad) {
				return relOtherInside, d2
			}
			return relDegenerate, d2 // internal tangency
		}
	}
	if d2 < Eps*Eps*(1+classPad) {
		return relDegenerate, d2 // near-coincident centres
	}
	// Crossing — unless either circle's half-angle cosine sits in the
	// razor band where probe-based and analytic arc selection may differ.
	// |cos| ≤ 1−degenEps is tested squared (numerator² against the
	// denominator² scaled by the limit), so no square root is needed;
	// both cosines are checked so the classification is symmetric.
	na := d2 + a.R*a.R - b.R*b.R
	nb := d2 + b.R*b.R - a.R*a.R
	ca := 4 * d2 * a.R * a.R
	cb := 4 * d2 * b.R * b.R
	if ca <= 0 || cb <= 0 {
		return relDegenerate, d2
	}
	const lim = (1 - degenEps) * (1 - degenEps) * (1 - classPad)
	if !(na*na <= ca*lim) || !(nb*nb <= cb*lim) {
		return relDegenerate, d2
	}
	return relCross, d2
}

func flip(rel uint8) uint8 {
	switch rel {
	case relInsideOther:
		return relOtherInside
	case relOtherInside:
		return relInsideOther
	}
	return rel
}

// findExcluder returns the index of a live circle that does not contain
// p, or -1 when p is inside every disc; k1 and k2 are the keys of p's
// two defining circles. Against a non-defining circle the conclusive
// squared-distance bounds almost always decide, but p sits exactly on
// the defining circles' boundaries, where every check pays the exact
// hypot fallback — so the defining circles are tested only when nothing
// else excludes (any excluder is a valid witness, so scan order never
// changes the alive/dead answer). The main scan runs from the highest
// key down: under a tracked device's sliding-Γ churn high keys are the most
// recently added discs, so witnesses picked here survive the longest
// before a Remove forces re-adjudication. (A middle-out scan — picking
// witnesses that outlive slides in either direction — measured slower:
// the extra index arithmetic outweighed the rarer re-adjudication.)
func (r *Region) findExcluder(p Point, k1, k2 uint64) int {
	i1, i2 := -1, -1
	for i := len(r.circles) - 1; i >= 0; i-- {
		rc := &r.circles[i]
		if rc.key == k1 {
			i1 = i
			continue
		}
		if rc.key == k2 {
			i2 = i
			continue
		}
		// boundedDisc.contains, spelled out: the function's call
		// overhead is measurable at this innermost loop's call frequency,
		// and the compiler does not inline it.
		dx, dy := p.X-rc.c.C.X, p.Y-rc.c.C.Y
		d2 := dx*dx + dy*dy
		if d2 < rc.lo {
			continue
		}
		if d2 > rc.hi || !rc.exact(p) {
			return i
		}
	}
	if i1 >= 0 && !r.circles[i1].contains(p) {
		return i1
	}
	if i2 >= 0 && !r.circles[i2].contains(p) {
		return i2
	}
	return -1
}

// setVertexDead marks vertex idx of the crossing pair (k1, k2) dead with
// the given exclusion witness. k1 must be the lower key (the endpoint
// that owns the pair's vertex slots).
func (r *Region) setVertexDead(k1, k2 uint64, idx uint8, wit uint64) {
	rc := &r.circles[r.find(k1)]
	nb := &rc.nbrs[rc.findNbr(k2)]
	nb.vstat[idx] = vxDead
	nb.vwit[idx] = wit
}

// aliveInsert inserts a boundary vertex keeping r.alive sorted by
// (k1, k2, idx) — RegionVertices' enumeration order.
func (r *Region) aliveInsert(k1, k2 uint64, idx uint8, p Point) {
	lo, hi := 0, len(r.alive)
	for lo < hi {
		m := (lo + hi) / 2
		av := &r.alive[m]
		if av.k1 < k1 || (av.k1 == k1 && (av.k2 < k2 || (av.k2 == k2 && av.idx < idx))) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	r.alive = append(r.alive, aliveVertex{})
	copy(r.alive[lo+1:], r.alive[lo:])
	r.alive[lo] = aliveVertex{k1: k1, k2: k2, idx: idx, p: p}
}

// Add inserts disc c under key. Keys must be unique; Add panics on a
// duplicate so caller bugs surface instead of corrupting counters.
func (r *Region) Add(key uint64, c Circle) {
	at := r.find(key)
	if at < len(r.circles) && r.circles[at].key == key {
		panic("geom: Region.Add duplicate key")
	}
	r.circles = append(r.circles, regionCircle{})
	copy(r.circles[at+1:], r.circles[at:])
	nc := &r.circles[at]
	*nc = regionCircle{key: key, boundedDisc: boundDisc(c), nbrs: r.newNbrs(),
		evs: r.newEvs(), dirty: true}
	if c.R > 0 {
		nc.invR = 1 / c.R
	}

	// Existing boundary vertices the new disc excludes die now, with the
	// new disc as witness; survivors stay alive without consulting any
	// other circle (they were already inside everything else).
	w := 0
	for i := range r.alive {
		av := r.alive[i]
		// boundedDisc.contains, manually inlined (see findExcluder).
		dx, dy := av.p.X-c.C.X, av.p.Y-c.C.Y
		d2 := dx*dx + dy*dy
		if d2 < nc.lo || (d2 <= nc.hi && nc.exact(av.p)) {
			r.alive[w] = av
			w++
			continue
		}
		r.setVertexDead(av.k1, av.k2, av.idx, key)
	}
	r.alive = r.alive[:w]

	for i := range r.circles {
		if i == at {
			continue
		}
		oc := &r.circles[i]

		// Classify once, canonically lower→higher, so the two endpoints'
		// views can never disagree.
		var relL uint8 // relation from the lower-key circle's view
		var d2 float64
		lowerIsOC := oc.key < key
		if lowerIsOC {
			relL, d2 = classifyPair(oc.c, c)
		} else {
			relL, d2 = classifyPair(c, oc.c)
		}
		relOC, relNC := relL, flip(relL)
		if !lowerIsOC {
			relOC, relNC = relNC, relOC
		}

		// The records are filled through their final slots: oc's backing
		// array cannot move when nc's grows, so the first slot stays valid
		// across the second insert.
		ob := oc.insertNbrSlot(key)
		nb := nc.insertNbrSlot(oc.key)
		ob.key, ob.d2, ob.rel = key, d2, relOC
		nb.key, nb.d2, nb.rel = oc.key, d2, relNC
		var p1, p2 Point
		n := 0
		if relL == relCross {
			// Pair vertices live on the lower-key endpoint, computed
			// lower→higher: bit-identical to RegionVertices. Each new
			// vertex is adjudicated against every live disc exactly once,
			// here; afterwards only the witness scheme keeps it current.
			lo := ob
			loKey, hiKey := oc.key, key
			a, b := oc.c, c
			if !lowerIsOC {
				lo = nb
				loKey, hiKey = key, oc.key
				a, b = c, oc.c
			}
			p1, p2, n = a.intersect2(b)
			lo.vx[0], lo.vx[1] = p1, p2
			lo.nv = uint8(n)
			for v := 0; v < n; v++ {
				if ex := r.findExcluder(lo.vx[v], loKey, hiKey); ex >= 0 {
					lo.vstat[v], lo.vwit[v] = vxDead, r.circles[ex].key
				} else {
					lo.vstat[v] = vxAlive
					r.aliveInsert(loKey, hiKey, uint8(v), lo.vx[v])
				}
			}
		}

		switch relL {
		case relDisjoint:
			r.disjoint++
		case relDegenerate:
			r.degen++
		}
		switch relOC {
		case relCross:
			oc.cross++
			nc.cross++
			oc.dirty = true
			// A partner with a materialized event list absorbs the new
			// pair's clip interval in place, straight from the vertices
			// just computed; un-materialized circles (the new one
			// included) defer all interval work to their first
			// contributing sweep, which most never reach.
			if oc.evsOK {
				var sx, sy, ex, ey float64
				if n == 2 {
					sx, sy, ex, ey = oc.clipEndsVx(p1, p2, lowerIsOC)
				} else {
					sx, sy, ex, ey = oc.clipEndsOf(d2, c)
				}
				oc.addClip(key, sx, sy, ex, ey)
			}
		case relOtherInside: // new disc inside oc: oc's arcs die
			oc.inner++
			oc.dirty = true
		case relInsideOther: // oc inside new disc: nc's arcs die
			nc.inner++
		}
	}
}

// Remove deletes the disc stored under key, returning false if absent.
// All state installed by the matching Add is undone symmetrically, so a
// Remove after an Add restores the prior answers exactly.
func (r *Region) Remove(key uint64) bool {
	at := r.find(key)
	if at >= len(r.circles) || r.circles[at].key != key {
		return false
	}
	// Boundary vertices defined by the removed circle vanish with its
	// pair records.
	if len(r.alive) > 0 {
		w := 0
		for i := range r.alive {
			av := r.alive[i]
			if av.k1 == key || av.k2 == key {
				continue
			}
			r.alive[w] = av
			w++
		}
		r.alive = r.alive[:w]
	}
	for i := range r.circles {
		if i == at {
			continue
		}
		oc := &r.circles[i]
		j := oc.findNbr(key)
		switch oc.nbrs[j].rel {
		case relCross:
			oc.cross--
			oc.dirty = true
			if oc.evsOK {
				oc.removeClip(key)
			}
		case relDisjoint:
			r.disjoint--
		case relOtherInside: // removed disc was inside oc: oc's arcs return
			oc.inner--
			oc.dirty = true
		case relDegenerate:
			r.degen--
		}
		oc.removeNbrAt(j)
	}
	r.recycle(&r.circles[at])
	copy(r.circles[at:], r.circles[at+1:])
	r.circles = r.circles[:len(r.circles)-1]

	// Dead vertices whose exclusion witness was the removed circle are
	// re-adjudicated: a replacement witness, or back onto the boundary.
	// All other vertices are untouched — removing a disc can only ever
	// resurrect, and their witnesses are still live and still exclude.
	// Vertices live on the lower-key endpoint, so only the sorted suffix
	// of each circle's records (keys above its own) needs walking.
	for i := range r.circles {
		rc := &r.circles[i]
		for j := rc.findNbr(rc.key); j < len(rc.nbrs); j++ {
			nb := &rc.nbrs[j]
			if nb.rel != relCross {
				continue
			}
			for v := 0; v < int(nb.nv); v++ {
				if nb.vstat[v] != vxDead || nb.vwit[v] != key {
					continue
				}
				if ex := r.findExcluder(nb.vx[v], rc.key, nb.key); ex >= 0 {
					nb.vwit[v] = r.circles[ex].key
				} else {
					nb.vstat[v] = vxAlive
					r.aliveInsert(rc.key, nb.key, uint8(v), nb.vx[v])
				}
			}
		}
	}
	return true
}

func (rc *regionCircle) findNbr(key uint64) int {
	lo, hi := 0, len(rc.nbrs)
	for lo < hi {
		m := (lo + hi) / 2
		if rc.nbrs[m].key < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// insertNbrSlot opens a zeroed record under key at its sorted position
// and returns it for the caller to fill in place.
func (rc *regionCircle) insertNbrSlot(key uint64) *neighbor {
	at := rc.findNbr(key)
	rc.nbrs = append(rc.nbrs, neighbor{})
	copy(rc.nbrs[at+1:], rc.nbrs[at:])
	rc.nbrs[at] = neighbor{}
	return &rc.nbrs[at]
}

func (rc *regionCircle) removeNbrAt(at int) {
	copy(rc.nbrs[at:], rc.nbrs[at+1:])
	rc.nbrs = rc.nbrs[:len(rc.nbrs)-1]
}

// addClipOf computes and records the clip interval the crossing circle
// (key, other) at squared distance d2 cuts on this circle's boundary:
// [mid−half, mid+half], where mid is the direction towards the other
// centre and cos(half) comes from the law of cosines. The endpoints are
// built by angle addition on unit vectors — sqrt and arithmetic only, no
// acos/atan2 — which agrees with the trig evaluation to a few ulps; the
// arc angles sit degenEps away from tangency, so the area stays within
// the documented floating-point noise.
func (rc *regionCircle) clipEndsOf(d2 float64, other Circle) (sx, sy, ex, ey float64) {
	d := math.Sqrt(d2)
	cm := (other.C.X - rc.c.C.X) / d
	sm := (other.C.Y - rc.c.C.Y) / d
	ch := clampUnit((d2 + rc.c.R*rc.c.R - other.R*other.R) / (2 * d * rc.c.R))
	sh := math.Sqrt(1 - ch*ch)
	return cm*ch + sm*sh, sm*ch - cm*sh, cm*ch - sm*sh, sm*ch + cm*sh
}

// clipEndsVx derives the same clip endpoints from the pair's stored
// boundary vertices instead of recomputing the geometry: the interval's
// endpoints ARE the two intersection points, so their unit directions
// from this centre (a subtract and a multiply each) replace the sqrt
// and divisions of clipEndsOf. intersect2 orders its results so that,
// seen from the lower-key circle, p1 starts the covered arc going ccw
// (cross(p1−c, other−c) = +h) and p2 ends it; from the higher-key
// circle the roles swap. lower says which endpoint this circle is.
func (rc *regionCircle) clipEndsVx(p1, p2 Point, lower bool) (sx, sy, ex, ey float64) {
	if !lower {
		p1, p2 = p2, p1
	}
	return (p1.X - rc.c.C.X) * rc.invR, (p1.Y - rc.c.C.Y) * rc.invR,
		(p2.X - rc.c.C.X) * rc.invR, (p2.Y - rc.c.C.Y) * rc.invR
}

// addClip records the clip interval from direction (sx, sy) ccw to
// (ex, ey), inserting its two events at their sorted positions. The
// order is (tau, delta) ascending, so a closing event (−1) sorts before
// an opening event (+1) at the same angle and a zero-length gap between
// a close and an open never reads as covered.
func (rc *regionCircle) addClip(key uint64, sx, sy, ex, ey float64) {
	ts, te := diamondTau(sx, sy), diamondTau(ex, ey)
	rc.insertClip(clipEvent{tau: ts, ux: sx, uy: sy, key: key, delta: 1})
	rc.insertClip(clipEvent{tau: te, ux: ex, uy: ey, key: key, delta: -1})
	if ts >= te {
		rc.wrap++ // interval wraps through angle 0
	}
}

// appendClip is addClip without the sorted insert, for bulk
// materialization: the caller appends every interval first and restores
// the order with one sortClip pass, instead of paying a search and a
// shift per event.
func (rc *regionCircle) appendClip(key uint64, sx, sy, ex, ey float64) {
	ts, te := diamondTau(sx, sy), diamondTau(ex, ey)
	rc.evs = append(rc.evs,
		clipEvent{tau: ts, ux: sx, uy: sy, key: key, delta: 1},
		clipEvent{tau: te, ux: ex, uy: ey, key: key, delta: -1})
	if ts >= te {
		rc.wrap++
	}
}

// sortClip restores the (tau, delta)-ascending event order after bulk
// appends. Insertion sort: the lists are small (two events per crossing
// neighbor) and the per-element cost beats a library sort's indirection.
func (rc *regionCircle) sortClip() {
	evs := rc.evs
	for i := 1; i < len(evs); i++ {
		ev := evs[i]
		j := i - 1
		for j >= 0 && (evs[j].tau > ev.tau || (evs[j].tau == ev.tau && evs[j].delta > ev.delta)) {
			evs[j+1] = evs[j]
			j--
		}
		evs[j+1] = ev
	}
}

func (rc *regionCircle) insertClip(ev clipEvent) {
	lo, hi := 0, len(rc.evs)
	for lo < hi {
		m := (lo + hi) / 2
		if rc.evs[m].tau < ev.tau || (rc.evs[m].tau == ev.tau && rc.evs[m].delta < ev.delta) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	rc.evs = append(rc.evs, clipEvent{})
	copy(rc.evs[lo+1:], rc.evs[lo:])
	rc.evs[lo] = ev
}

// removeClip deletes the departing crossing neighbor's two events,
// un-counting its wrap exactly as addClip counted it.
func (rc *regionCircle) removeClip(key uint64) {
	var ts, te float64
	w := 0
	for i := range rc.evs {
		ev := rc.evs[i]
		if ev.key == key {
			if ev.delta > 0 {
				ts = ev.tau
			} else {
				te = ev.tau
			}
			continue
		}
		rc.evs[w] = ev
		w++
	}
	rc.evs = rc.evs[:w]
	if ts >= te {
		rc.wrap--
	}
}

// Area returns the intersection area of the live discs. In the
// non-degenerate steady state this resweeps only circles whose clip
// state changed since the last call; under fallback it defers to the full
// IntersectionArea on the key-sorted disc slice.
func (r *Region) Area() float64 {
	switch len(r.circles) {
	case 0:
		return 0
	case 1:
		return r.circles[0].c.Area()
	}
	if r.disjoint > 0 {
		return 0
	}
	if r.degen > 0 {
		r.circScratch = r.AppendCircles(r.circScratch[:0])
		return IntersectionArea(r.circScratch)
	}
	// Stamp the circles that own an alive boundary vertex; resweep zeroes
	// every crossing circle without one (its arcs are fully clipped — see
	// regionCircle.aliveGen) before touching any interval trig.
	r.gen++
	for i := range r.alive {
		av := &r.alive[i]
		r.circles[r.find(av.k1)].aliveGen = r.gen
		r.circles[r.find(av.k2)].aliveGen = r.gen
	}
	total := 0.0
	for i := range r.circles {
		rc := &r.circles[i]
		if rc.dirty {
			rc.contrib = r.resweep(rc)
			rc.dirty = false
		}
		total += rc.contrib
	}
	if total < 0 {
		total = 0
	}
	return total
}

// resweep recomputes circle rc's Green's-theorem contribution: the ccw
// arcs of rc covered by all of its crossing neighbors' clip intervals.
// Each crossing neighbor covers [mid−half, mid+half] of rc's boundary
// (the part inside the neighbor's disc); intervals are normalized to
// [0, 2π) with a wrapping interval contributing to the base depth. With
// no disjoint or degenerate pairs live, an arc lies on the region
// boundary iff its coverage depth equals the crossing-neighbor count:
// discs containing rc never clip it, and a disc inside rc means rc's
// boundary is outside the region everywhere (inner > 0, no arcs).
//
// The event list and wrap count are maintained invariants of the circle
// (see regionCircle.evs), so the sweep is a single pass — no per-call
// assembly, trig, or sort.
func (r *Region) resweep(rc *regionCircle) float64 {
	if rc.inner > 0 {
		return 0
	}
	if rc.cross == 0 {
		// No clipping events: every other disc contains rc, so the whole
		// circle bounds the region.
		return arcGreen(rc.c, 0, 2*math.Pi)
	}
	if rc.aliveGen != r.gen {
		// No alive vertex on this circle: its boundary is nowhere inside
		// all discs, so it contributes no arcs. De-materialize the event
		// list too — a non-contributing circle pays no incremental clip
		// upkeep in Add/Remove, and rebuilding the list costs one pass
		// over the pair records if it ever contributes again.
		if rc.evsOK {
			rc.evsOK = false
			rc.evs = rc.evs[:0]
			rc.wrap = 0
		}
		return 0
	}
	if !rc.evsOK {
		rc.evs = rc.evs[:0]
		rc.wrap = 0
		for i := range rc.nbrs {
			nb := &rc.nbrs[i]
			if nb.rel != relCross {
				continue
			}
			// The pair's stored vertices are the interval endpoints;
			// they live on the lower-key endpoint's record — this
			// circle's own when the neighbor key is higher, otherwise
			// the neighbor's record of this circle.
			if nb.key > rc.key {
				if nb.nv == 2 {
					sx, sy, ex, ey := rc.clipEndsVx(nb.vx[0], nb.vx[1], true)
					rc.appendClip(nb.key, sx, sy, ex, ey)
					continue
				}
			} else {
				oc := &r.circles[r.find(nb.key)]
				if onb := &oc.nbrs[oc.findNbr(rc.key)]; onb.nv == 2 {
					sx, sy, ex, ey := rc.clipEndsVx(onb.vx[0], onb.vx[1], false)
					rc.appendClip(nb.key, sx, sy, ex, ey)
					continue
				}
			}
			sx, sy, ex, ey := rc.clipEndsOf(nb.d2, r.circles[r.find(nb.key)].c)
			rc.appendClip(nb.key, sx, sy, ex, ey)
		}
		rc.sortClip()
		rc.evsOK = true
	}
	total := 0.0
	depth := rc.wrap
	need := rc.cross
	prevTau := 0.0
	prevX, prevY := 1.0, 0.0 // sweep anchor: angle 0
	for i := range rc.evs {
		ev := &rc.evs[i]
		if depth == need && ev.tau > prevTau {
			total += arcGreenU(rc.c, prevX, prevY, ev.ux, ev.uy)
		}
		depth += int(ev.delta)
		prevTau, prevX, prevY = ev.tau, ev.ux, ev.uy
	}
	if depth == need && prevTau < 4 {
		total += arcGreenU(rc.c, prevX, prevY, 1, 0) // close back through 2π
	}
	return total
}

// arcGreenU is arcGreen on unit-vector endpoints: the ccw arc from
// direction (x1, y1) to (x2, y2). The endpoint sines/cosines are the
// vector components themselves; only the swept angle needs an atan2,
// normalized to (0, 2π] so an arc ending where it starts reads as the
// full turn (the caller gates out genuinely empty arcs by tau).
func arcGreenU(c Circle, x1, y1, x2, y2 float64) float64 {
	dt := math.Atan2(x1*y2-y1*x2, x1*x2+y1*y2)
	if dt <= 0 {
		dt += 2 * math.Pi
	}
	return 0.5 * (c.R*c.R*dt +
		c.C.X*c.R*(y2-y1) -
		c.C.Y*c.R*(x2-x1))
}

// AppendVertices appends the region's vertex set in the same order and
// with the same coordinates RegionVertices produces on the key-sorted
// disc slice: bit-exact in the non-degenerate case, identical by
// construction under fallback. An unchanged dst means an empty region.
func (r *Region) AppendVertices(dst []Point) []Point {
	switch len(r.circles) {
	case 0:
		return dst
	case 1:
		return append(dst, r.circles[0].c.C)
	}
	if r.degen > 0 {
		r.circScratch = r.AppendCircles(r.circScratch[:0])
		return AppendRegionVertices(dst, r.circScratch)
	}
	// The alive list is maintained sorted by (lower key, higher key,
	// vertex index); with the circles sorted by key that is exactly
	// RegionVertices' pair enumeration order (i, j) with i < j.
	if len(r.alive) > 0 {
		for i := range r.alive {
			dst = append(dst, r.alive[i].p)
		}
		return dst
	}
	// No boundary vertices inside all discs: either empty, or the
	// smallest disc is contained in all others.
	smallest := 0
	for i := range r.circles {
		if r.circles[i].c.R < r.circles[smallest].c.R {
			smallest = i
		}
	}
	if p := r.circles[smallest].c.C; r.inAllLive(p) {
		return append(dst, p)
	}
	return dst
}

func (r *Region) inAllLive(p Point) bool {
	for i := range r.circles {
		if !r.circles[i].contains(p) {
			return false
		}
	}
	return true
}
