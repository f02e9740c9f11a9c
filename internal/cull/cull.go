// Package cull is the admission-side interior-point pre-filter: before a
// query's points reach batching, hashing, or a backend run, discard the
// points that certainly cannot matter to the hull, so effective-n — not
// raw-n — drives every downstream cost. The filters are allocation-light
// and parallelized over the shared binary-forking token pool
// (internal/fork). 2-d has three:
//
//   - Extreme-point polygons (PolicyQuad, PolicyOctagon): the classic
//     throw-away heuristic of Akl & Toussaint as used by the
//     quadrilateral/octagon pre-pass of Heydari & Khalifeh — find the
//     input's extreme points in 4 (resp. 8) directions, take their convex
//     polygon, and discard everything strictly inside it. One parallel
//     reduction plus one parallel scan; no per-point allocation.
//
//   - Sampled coarse hull (PolicyCoarse): the paper-native variant —
//     Lemma 3.1-style sampling (a seeded ~√n random sample, widened by
//     the 8 directional extremes), an exact convex hull of the sample,
//     then a wedge-binary-search point-in-polygon discard pass. Costs
//     O(√n log n) to build and O(log h) per point; it adapts to the
//     input's shape where the fixed octagon cannot.
//
// 3-d has one, the sampled upper hull, which every policy but PolicyOff
// runs (Resolve3): the same seeded sample, widened by the 6 axis
// extremes, built into a 3-d upper hull (hull3d.Upper); a point is
// discarded when it lies certainly strictly below one of the sample's
// upper faces, inside that face's xy-projection. Every 3-d answer is a
// set of upper caps, so points under the upper hull are dead weight even
// when they are extreme below.
//
// Correctness story, one invariant per dimension (every test in this
// package gates on it):
//
//   - 2-d: conv(survivors) == conv(input). A point is discarded only when
//     it is CERTAINLY strictly inside the convex hull of a candidate set
//     C whose members are themselves input points. Strict interior of
//     conv(C) ⊆ strict interior of conv(input), so no discarded point can
//     be a hull vertex, lie on a hull edge, or change the hull in any
//     way, and the canonical strict upper chain of the survivors is
//     bit-identical to that of the full input.
//   - 3-d: the survivors have the input's upper hull and xy-shadow. A
//     discarded point lies strictly below the upper hull of input points
//     and strictly inside their xy-shadow; the survivors' lower hull may
//     shrink.
//
// "Certainly" means the strict-side tests use conservative
// floating-point error bounds (the same Shewchuk-style filter constants
// as internal/geom): any determinant within its error bound of zero —
// and any comparison poisoned by NaN or ±Inf — KEEPS the point.
// Non-finite points are therefore never discarded, which preserves
// typed-error parity: validation of the culled set fails exactly when
// validation of the full set would.
//
// Degenerate inputs degrade to a no-op, never to wrongness: if the
// candidate polygon has fewer than three vertices (all-collinear,
// all-duplicate, tiny n), or the 3-d sample is flat, the filter keeps
// everything. Adversarial inputs (all points on a circle) simply cull ~0
// points at scan cost.
package cull

import (
	"math"

	"inplacehull/internal/fork"
	"inplacehull/internal/geom"
	"inplacehull/internal/hull3d"
	"inplacehull/internal/rng"
)

// Policy selects the admission filter. The zero value is PolicyAuto so an
// unset serve.Config field means "let the library choose".
type Policy int

const (
	// PolicyAuto lets the library pick per dimension: PolicyOctagon in
	// 2-d (Resolve), the best fixed-cost ratio on the serving workloads
	// E22 measures, and PolicyCoarse in 3-d (Resolve3).
	PolicyAuto Policy = iota
	// PolicyOff disables culling.
	PolicyOff
	// PolicyQuad culls 2-d inputs against the quadrilateral of the 4
	// axis-extreme points (±x, ±y); in 3-d it means PolicyCoarse.
	PolicyQuad
	// PolicyOctagon culls 2-d inputs against the octagon of the 8
	// directional extremes (±x, ±y, ±(x+y), ±(x−y)); in 3-d it means
	// PolicyCoarse.
	PolicyOctagon
	// PolicyCoarse culls against an exact convex hull of a seeded ~√n
	// sample widened by the 8 directional extremes (2-d), or below the
	// upper hull of such a sample widened by the 6 axis extremes (3-d).
	PolicyCoarse
)

// ParsePolicy maps a wire string to a Policy, mirroring
// resilient.ParseBackend: ok is false for unknown strings, and the empty
// string is NOT accepted here — callers decide what an absent field means.
func ParsePolicy(s string) (Policy, bool) {
	switch s {
	case "auto":
		return PolicyAuto, true
	case "off":
		return PolicyOff, true
	case "quad":
		return PolicyQuad, true
	case "octagon":
		return PolicyOctagon, true
	case "coarse":
		return PolicyCoarse, true
	}
	return PolicyAuto, false
}

// String returns the wire spelling ParsePolicy accepts.
func (p Policy) String() string {
	switch p {
	case PolicyOff:
		return "off"
	case PolicyQuad:
		return "quad"
	case PolicyOctagon:
		return "octagon"
	case PolicyCoarse:
		return "coarse"
	default:
		return "auto"
	}
}

// Resolve collapses PolicyAuto to the concrete 2-d policy it currently
// means, so cache keys and response headers always name the filter that
// ran.
func (p Policy) Resolve() Policy {
	if p == PolicyAuto {
		return PolicyOctagon
	}
	return p
}

// Resolve3 is Resolve for 3-d inputs, where the sampled upper-hull
// filter is the only one: every policy but PolicyOff resolves to
// PolicyCoarse, so a 3-d cache key or response names the filter that
// ran whichever wire spelling asked for it.
func (p Policy) Resolve3() Policy {
	if p == PolicyOff {
		return PolicyOff
	}
	return PolicyCoarse
}

// Filter grains: one parallel-scan leaf is a few thousand strict-side
// tests — a handful of microseconds, enough to amortize a fork.
const (
	cullGrain = 2048
	// minN is the input size below which filtering is skipped outright:
	// the extreme-point reduction alone would cost more than the backend
	// saves on inputs this small.
	minN = 32
	// sampleMin/sampleMax clamp the coarse sample size ⌈√n⌉.
	sampleMin = 32
	sampleMax = 1024
)

// Points2 returns the subset of pts that survives the policy's filter, in
// input order, never mutating pts; when nothing is discarded the input
// slice itself is returned. seed drives PolicyCoarse sampling and is
// ignored by the fixed-direction policies. The invariant — checked by this
// package's tests against the hull2d.UpperHull oracle — is that
// conv(survivors) == conv(pts) exactly, so any hull computed from the
// survivors is bit-identical to one computed from the full input.
func Points2(pol Policy, seed uint64, pts []geom.Point) []geom.Point {
	if len(pts) < minN {
		return pts
	}
	var poly []geom.Point
	switch pol.Resolve() {
	case PolicyQuad:
		poly = convexCCW(extremes2(pts, quadDirs[:]))
	case PolicyOctagon:
		poly = convexCCW(extremes2(pts, octDirs[:]))
	case PolicyCoarse:
		poly = convexCCW(coarseSample(pts, seed))
	default: // PolicyOff
		return pts
	}
	if len(poly) < 3 {
		return pts
	}
	inside := func(p geom.Point) bool { return insideStrict(poly, p) }
	if len(poly) > polyScanMax {
		inside = func(p geom.Point) bool { return insideWedge(poly, p) }
	}
	return survivors(pts, inside)
}

// Points3 returns the subset of pts surviving the 3-d filter, in input
// order, never mutating pts; when nothing is discarded the input slice
// itself is returned. Every policy but PolicyOff (see Resolve3) discards
// the points certainly strictly below the upper hull of a sample seeded
// by seed, keeping the upper hull and the xy-shadow of pts (belowSample).
func Points3(pol Policy, seed uint64, pts []geom.Point3) []geom.Point3 {
	if pol.Resolve3() == PolicyOff || len(pts) < minN {
		return pts
	}
	return belowSample(pts, seed)
}

// belowSample is the 3-d PolicyCoarse filter: the upper hull of a coarse
// sample (sampleHull), a walk over its upper faces, and one parallel
// discard pass. A point goes only when it is strictly inside the
// projection of the face above it and certainly strictly below that
// face's plane; the sample's upper hull lies on or under the input's, so
// such a point is under the input's upper hull and inside its xy-shadow.
// A non-finite sample point or a flat sample keeps everything.
func belowSample(pts []geom.Point3, seed uint64) []geom.Point3 {
	h, ok := sampleHull(pts, seed)
	if !ok {
		return pts
	}
	loc := hull3d.NewLocator(h)
	faces := loc.Faces()
	return survivors(pts, func(p geom.Point3) bool {
		fi, inside := loc.Locate(p.X, p.Y) // −1 for NaN x or y: keep
		if !inside {
			return false
		}
		f := faces[fi]
		// UpperFaces orients every face CCW in xy, so a point below the
		// plane has a negative Orientation3.
		return strictSign(geom.Orientation3Det(h.Pts[f.A], h.Pts[f.B], h.Pts[f.C], p)) < 0
	})
}

// sampleHull builds the upper hull of the coarse 3-d sample: sampleSize
// seeded picks of pts widened by the 6 axis extremes. It reports false
// when a sample point is not finite (non-finite inputs must pass through
// untouched for typed-error parity) or the sample is flat.
func sampleHull(pts []geom.Point3, seed uint64) (hull3d.Hull, bool) {
	ex := extremes3(pts)
	m := sampleSize(len(pts))
	r := rng.New(seed ^ sampleSalt)
	sample := make([]geom.Point3, 0, m+len(ex))
	for i := 0; i < m; i++ {
		sample = append(sample, pts[r.Intn(len(pts))])
	}
	sample = append(sample, ex[:]...)
	for _, p := range sample {
		if !p.IsFinite() {
			return hull3d.Hull{}, false
		}
	}
	h, err := hull3d.Upper(sample)
	return h, err == nil
}

// survivors runs discard over pts in one parallel pass and returns the
// points it does not discard, in input order — the input slice itself
// when it discards none.
func survivors[P any](pts []P, discard func(P) bool) []P {
	keep := make([]bool, len(pts))
	fork.For(len(pts), cullGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			keep[i] = !discard(pts[i])
		}
	})
	n := 0
	for _, k := range keep {
		if k {
			n++
		}
	}
	if n == len(pts) {
		return pts
	}
	out := make([]P, 0, n)
	for i, k := range keep {
		if k {
			out = append(out, pts[i])
		}
	}
	return out
}

// polyScanMax is the polygon size above which the per-point test switches
// from the all-edges scan to the wedge binary search. The fixed polygons
// (≤8 edges) always scan; only coarse hulls grow past this.
const polyScanMax = 12

// quadDirs/octDirs are the support directions of the fixed filters.
var quadDirs = [4]geom.Point{{X: 1}, {Y: 1}, {X: -1}, {Y: -1}}
var octDirs = [8]geom.Point{
	{X: 1}, {X: 1, Y: 1}, {Y: 1}, {X: -1, Y: 1},
	{X: -1}, {X: -1, Y: -1}, {Y: -1}, {X: 1, Y: -1},
}

// extremes2 returns, for each direction, an input point maximizing the
// dot product — a parallel reduction over fork.For leaves. NaN
// coordinates can never win a `>` comparison, so a NaN point is selected
// only if it is pts[0] and nothing beats it; convexCCW's finiteness guard
// then disables the filter.
func extremes2(pts []geom.Point, dirs []geom.Point) []geom.Point {
	nLeaf := (len(pts) + cullGrain - 1) / cullGrain
	leaves := make([][]geom.Point, nLeaf)
	// Parallelize over grain-aligned chunk indices (fork.For's own ranges
	// split by halving, so its lo values are not chunk-aligned).
	fork.For(nLeaf, 1, func(cLo, cHi int) {
		for c := cLo; c < cHi; c++ {
			lo, hi := c*cullGrain, (c+1)*cullGrain
			if hi > len(pts) {
				hi = len(pts)
			}
			// dots[d] is best[d]'s dot product with dirs[d]; dirs
			// holds at most len(octDirs) directions.
			best := make([]geom.Point, len(dirs))
			var dots [len(octDirs)]float64
			for d, dir := range dirs {
				best[d], dots[d] = pts[lo], pts[lo].X*dir.X+pts[lo].Y*dir.Y
			}
			for i := lo; i < hi; i++ {
				p := pts[i]
				for d, dir := range dirs {
					if dot := p.X*dir.X + p.Y*dir.Y; dot > dots[d] {
						best[d], dots[d] = p, dot
					}
				}
			}
			leaves[c] = best
		}
	})
	out := make([]geom.Point, len(dirs))
	for d, dir := range dirs {
		out[d] = leaves[0][d]
		for _, lf := range leaves[1:] {
			p := lf[d]
			if p.X*dir.X+p.Y*dir.Y > out[d].X*dir.X+out[d].Y*dir.Y {
				out[d] = p
			}
		}
	}
	return out
}

// sampleSalt decorrelates the coarse samples from backend sampling.
const sampleSalt = 0xC0A85E_CA11

// sampleSize is the number of seeded random picks in a coarse sample of
// n points: ⌊√n⌋ clamped to [sampleMin, sampleMax], and at most n.
func sampleSize(n int) int {
	return min(max(int(math.Sqrt(float64(n))), sampleMin), sampleMax, n)
}

// coarseSample draws the 2-d PolicyCoarse candidate set: sampleSize
// seeded random picks widened by the 8 directional extremes so the coarse
// hull never has less reach than the octagon.
func coarseSample(pts []geom.Point, seed uint64) []geom.Point {
	m := sampleSize(len(pts))
	r := rng.New(seed ^ sampleSalt)
	out := make([]geom.Point, 0, m+len(octDirs))
	for i := 0; i < m; i++ {
		out = append(out, pts[r.Intn(len(pts))])
	}
	out = append(out, extremes2(pts, octDirs[:])...)
	return out
}

// convexCCW computes the exact strict convex hull of the candidates in
// counterclockwise order (Andrew's monotone chain over the robust
// geom.Orientation predicate — the candidate sets are small, so the exact
// path's cost is irrelevant). It returns nil — disabling the filter —
// when any candidate is non-finite or the hull is not a real polygon
// (fewer than 3 vertices: all-collinear or all-duplicate candidates).
func convexCCW(cand []geom.Point) []geom.Point {
	c := append([]geom.Point(nil), cand...)
	for _, p := range c {
		if !p.IsFinite() {
			return nil
		}
	}
	geom.SortLex(c)
	uniq := c[:0]
	for i, p := range c {
		if i == 0 || p != c[i-1] {
			uniq = append(uniq, p)
		}
	}
	c = uniq
	if len(c) < 3 {
		return nil
	}
	var lo []geom.Point
	for _, p := range c {
		for len(lo) >= 2 && geom.Orientation(lo[len(lo)-2], lo[len(lo)-1], p) <= 0 {
			lo = lo[:len(lo)-1]
		}
		lo = append(lo, p)
	}
	var up []geom.Point
	for i := len(c) - 1; i >= 0; i-- {
		p := c[i]
		for len(up) >= 2 && geom.Orientation(up[len(up)-2], up[len(up)-1], p) <= 0 {
			up = up[:len(up)-1]
		}
		up = append(up, p)
	}
	poly := append(lo[:len(lo)-1], up[:len(up)-1]...)
	if len(poly) < 3 {
		return nil
	}
	return poly
}

// strictLeft reports whether p is CERTAINLY strictly left of the directed
// line u→w: geom.Orientation's float determinant must clear its error
// bound. Any NaN/Inf contamination makes the comparison false — keep.
func strictLeft(u, w, p geom.Point) bool {
	det, bound := geom.OrientationDet(u, w, p)
	return det > bound
}

// insideStrict is the all-edges interior test for a CCW convex polygon:
// certainly strictly left of every directed edge. O(|poly|) per point —
// used for the fixed quad/octagon polygons.
func insideStrict(poly []geom.Point, p geom.Point) bool {
	u := poly[len(poly)-1]
	for _, w := range poly {
		// strictLeft, written out: the filter inlines here, not there.
		if det, bound := geom.OrientationDet(u, w, p); !(det > bound) {
			return false
		}
		u = w
	}
	return true
}

// insideWedge is the O(log h) interior test for larger coarse-hull
// polygons: binary-search the fan wedge around poly[0] with cheap raw
// signs (errors here only mis-pick the wedge), then gate the discard on
// the conservative strict test against the wedge triangle. Only the final
// strict test can discard, so the search needs no robustness.
func insideWedge(poly []geom.Point, p geom.Point) bool {
	n := len(poly)
	v0 := poly[0]
	rawLeft := func(u, w geom.Point) bool {
		return (w.X-u.X)*(p.Y-u.Y)-(w.Y-u.Y)*(p.X-u.X) > 0
	}
	if !rawLeft(v0, poly[1]) || rawLeft(v0, poly[n-1]) {
		return false
	}
	lo, hi := 1, n-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if rawLeft(v0, poly[mid]) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return strictLeft(v0, poly[lo], p) &&
		strictLeft(poly[lo], poly[hi], p) &&
		strictLeft(poly[hi], v0, p)
}

// extremes3 returns the 6 axis-extreme points ordered x−, x+, y+, y−, z+,
// z−. NaN coordinates never win a comparison, so a NaN point is selected
// only if nothing beats it; sampleHull's finiteness guard then disables
// the filter.
func extremes3(pts []geom.Point3) (ex [6]geom.Point3) {
	nLeaf := (len(pts) + cullGrain - 1) / cullGrain
	leaves := make([][6]geom.Point3, nLeaf)
	fork.For(nLeaf, 1, func(cLo, cHi int) {
		for c := cLo; c < cHi; c++ {
			lo, hi := c*cullGrain, (c+1)*cullGrain
			if hi > len(pts) {
				hi = len(pts)
			}
			var b [6]geom.Point3
			for d := range b {
				b[d] = pts[lo]
			}
			for i := lo; i < hi; i++ {
				p := pts[i]
				if p.X < b[0].X {
					b[0] = p
				}
				if p.X > b[1].X {
					b[1] = p
				}
				if p.Y > b[2].Y {
					b[2] = p
				}
				if p.Y < b[3].Y {
					b[3] = p
				}
				if p.Z > b[4].Z {
					b[4] = p
				}
				if p.Z < b[5].Z {
					b[5] = p
				}
			}
			leaves[c] = b
		}
	})
	ex = leaves[0]
	for _, lf := range leaves[1:] {
		if lf[0].X < ex[0].X {
			ex[0] = lf[0]
		}
		if lf[1].X > ex[1].X {
			ex[1] = lf[1]
		}
		if lf[2].Y > ex[2].Y {
			ex[2] = lf[2]
		}
		if lf[3].Y < ex[3].Y {
			ex[3] = lf[3]
		}
		if lf[4].Z > ex[4].Z {
			ex[4] = lf[4]
		}
		if lf[5].Z < ex[5].Z {
			ex[5] = lf[5]
		}
	}
	return ex
}

// strictSign returns +1 (certainly positive), −1 (certainly negative) or
// 0 (uncertain, degenerate, or NaN/Inf-poisoned) for a float determinant
// and its error bound from a geom filter — the filter without its exact
// fallback: an uncertain sign keeps the point, which is the conservative
// direction here.
func strictSign(det, bound float64) int {
	switch {
	case det > bound:
		return 1
	case det < -bound:
		return -1
	}
	return 0
}
