// Package approx implements the certified ε-approximate hull tier: a
// coarse sampled hull in the spirit of the paper's Lemma 3.1 (a small
// random/structured sample whose hull already captures most of the input)
// and of Bentley–Faust–Preparata strip approximation, together with an a
// posteriori certificate.
//
// The construction is two-phase. Candidate *selection* — which points
// enter the sampled hull — runs through a geom.NoisyOracle, so under the
// noisy-primitive model the selection may be corrupted and is repaired
// only by the oracle's majority voting. The *certificate* is computed with
// the library's exact predicates (the same trusted-verification licence
// the degradation ladder's oracle gate uses): the returned Eps is the
// measured maximum vertical distance of any input point above the
// returned hull, so the caller holds a proof of quality regardless of how
// noisy the selection was.
//
// For a convex (upper-hull) chain through input points, the certificate
// is a vertical Hausdorff bound against the exact upper hull: the chain
// lies on or below the exact hull (its vertices are input points), and
// every exact hull vertex is an input point, hence at most Eps above the
// chain; by concavity of both chains the gap anywhere in the common span
// is at most Eps. The property tests in this package pin that argument.
//
// Refinement: if the measured excess misses the requested tolerance the
// sample is doubled; the final full-resolution round uses every input
// point, so the loop always terminates with a certified result — possibly
// one whose Eps still exceeds the request (pathologically tight requests
// below float measurement noise). Callers decide with Met().
package approx

import (
	"math"

	"inplacehull/internal/geom"
	"inplacehull/internal/hull2d"
	"inplacehull/internal/hullerr"
)

// maxRounds bounds refinement; the last round always runs at full
// resolution, so the bound never forfeits termination with a certificate.
const maxRounds = 20

// Result2D is a certified approximate upper hull.
type Result2D struct {
	// Chain is the approximate upper-hull vertex sequence in strictly
	// increasing x; every vertex is an input point, so the chain lies on
	// or below the exact upper hull.
	Chain []geom.Point
	// Edges are the consecutive chain edges; EdgeOf maps every input
	// point to the edge covering its abscissa (−1 only when the chain has
	// no edges: empty or single-vertex hulls).
	Edges  []geom.Edge
	EdgeOf []int
	// Eps is the certificate: the measured maximum vertical distance of
	// any input point above the chain. 0 means the chain is an exact
	// upper hull of the input.
	Eps float64
	// Requested is the caller's relative tolerance; Tol is its absolute
	// form (Requested × the bounding-box diagonal).
	Requested, Tol float64
	// Samples is the candidate count of the final round; Rounds the
	// number of refinement rounds executed.
	Samples, Rounds int
}

// Met reports whether the certificate meets the requested tolerance.
func (r Result2D) Met() bool { return r.Eps <= r.Tol }

// Upper2D computes a certified ε-approximate upper hull. eps is relative
// to the bounding-box diagonal and must be positive. Candidate selection
// consults o (nil = exact); the certificate is always exact. The returned
// error is always typed and only reports input-contract violations — the
// construction itself cannot fail.
func Upper2D(pts []geom.Point, eps float64, o *geom.NoisyOracle) (Result2D, error) {
	const op = "approx.Upper2D"
	if err := hullerr.CheckFinite2D(op, pts); err != nil {
		return Result2D{}, err
	}
	if !(eps > 0) {
		return Result2D{}, hullerr.New(hullerr.InvalidInput, op, "epsilon must be positive, got %g", eps)
	}
	n := len(pts)
	res := Result2D{Requested: eps}
	if n == 0 {
		return res, nil
	}
	xmin, xmax := pts[0].X, pts[0].X
	ymin, ymax := pts[0].Y, pts[0].Y
	for _, p := range pts {
		xmin, xmax = math.Min(xmin, p.X), math.Max(xmax, p.X)
		ymin, ymax = math.Min(ymin, p.Y), math.Max(ymax, p.Y)
	}
	res.Tol = eps * math.Hypot(xmax-xmin, ymax-ymin)

	strips := int(math.Ceil(2 / eps))
	if strips < 8 {
		strips = 8
	}
	if strips > n {
		strips = n
	}
	for round := 1; ; round++ {
		full := strips >= n || round >= maxRounds
		cand := pts
		if !full {
			cand = stripMaxima(pts, strips, xmin, xmax, o)
		}
		chain := hull2d.UpperHull(cand)
		edges, edgeOf := edgesFor(pts, chain)
		excess := measure2D(pts, chain, edges, edgeOf)
		res.Rounds, res.Samples = round, len(cand)
		if excess <= res.Tol || full {
			res.Chain, res.Edges, res.EdgeOf, res.Eps = chain, edges, edgeOf, excess
			return res, nil
		}
		strips *= 2
	}
}

// stripMaxima selects the BFP-style candidates: the y-maximum of each of
// k equal-width x-strips, chosen through the (possibly noisy) oracle,
// plus the exact column tops at the extreme abscissae — the anchors that
// keep every input inside the chain's x-span whatever the noise did.
func stripMaxima(pts []geom.Point, k int, xmin, xmax float64, o *geom.NoisyOracle) []geom.Point {
	w := xmax - xmin
	best := make([]int, k)
	for i := range best {
		best[i] = -1
	}
	for i, p := range pts {
		s := 0
		if w > 0 {
			s = int((p.X - xmin) / w * float64(k))
			if s >= k {
				s = k - 1
			}
			if s < 0 {
				s = 0
			}
		}
		if best[s] < 0 || o.YLess(pts[best[s]], p) {
			best[s] = i
		}
	}
	cand := make([]geom.Point, 0, k+2)
	for _, bi := range best {
		if bi >= 0 {
			cand = append(cand, pts[bi])
		}
	}
	left, right := pts[0], pts[0]
	for _, p := range pts {
		if p.X < left.X || (p.X == left.X && p.Y > left.Y) {
			left = p
		}
		if p.X > right.X || (p.X == right.X && p.Y > right.Y) {
			right = p
		}
	}
	return append(cand, left, right)
}

// edgesFor assembles the Result2D edge structure for a chain: consecutive
// chain edges plus the covering-edge pointer per input point.
func edgesFor(pts, chain []geom.Point) ([]geom.Edge, []int) {
	edges := geom.ChainEdges(chain)
	edgeOf := make([]int, len(pts))
	for i, p := range pts {
		edgeOf[i] = geom.CoveringEdge(edges, p.X)
	}
	return edges, edgeOf
}

// measure2D computes the certificate: the maximum vertical distance of
// any input point above the chain. The above/below decision is exact
// (orientation predicate); only the distance of genuinely-above points is
// floating-point. Points not covered by any edge of a multi-edge chain
// report +Inf (cannot happen when the extreme anchors were selected
// exactly, but the measurement must stay sound if they were not).
func measure2D(pts, chain []geom.Point, edges []geom.Edge, edgeOf []int) float64 {
	var worst float64
	for i, p := range pts {
		ei := edgeOf[i]
		switch {
		case ei >= 0:
			e := edges[ei]
			if !geom.AboveLine(p, e.U, e.W) {
				continue
			}
			if d := p.Y - e.Line().Eval(p.X); d > worst {
				worst = d
			}
		case len(chain) == 1 && p.X == chain[0].X:
			if d := p.Y - chain[0].Y; d > worst {
				worst = d
			}
		case len(chain) == 0:
			// no chain (empty input handled by caller); nothing to measure
		default:
			return math.Inf(1)
		}
	}
	return worst
}

// Check2D re-derives the certificate of a Result2D and verifies its
// structural invariants: a strictly convex x-increasing chain of input
// points, consistent edges, and a measured excess within the declared
// Eps. It is the validity oracle for the approximate tier (the exact-tier
// oracle rejects any point above its edge, which is precisely what an
// approximate result is allowed to have).
func Check2D(pts []geom.Point, res Result2D) error {
	const op = "approx.Check2D"
	onInput := make(map[geom.Point]bool, len(pts))
	for _, p := range pts {
		onInput[p] = true
	}
	for i, v := range res.Chain {
		if !onInput[v] {
			return hullerr.New(hullerr.Internal, op, "chain vertex %v is not an input point", v)
		}
		if i > 0 && res.Chain[i-1].X >= v.X {
			return hullerr.New(hullerr.Internal, op, "chain not strictly x-increasing at %d", i)
		}
		if i >= 2 && geom.Orientation(res.Chain[i-2], res.Chain[i-1], v) >= 0 {
			return hullerr.New(hullerr.Internal, op, "chain not strictly convex at %d", i)
		}
	}
	if len(res.Edges) != max(0, len(res.Chain)-1) {
		return hullerr.New(hullerr.Internal, op, "edge count %d for chain of %d", len(res.Edges), len(res.Chain))
	}
	for i, e := range res.Edges {
		if e.U != res.Chain[i] || e.W != res.Chain[i+1] {
			return hullerr.New(hullerr.Internal, op, "edge %d does not match chain", i)
		}
	}
	if len(res.EdgeOf) != len(pts) {
		return hullerr.New(hullerr.Internal, op, "EdgeOf has %d entries for %d points", len(res.EdgeOf), len(pts))
	}
	for i, ei := range res.EdgeOf {
		if ei >= 0 && !res.Edges[ei].Covers(pts[i].X) {
			return hullerr.New(hullerr.Internal, op, "point %v not covered by its edge", pts[i])
		}
	}
	if got := measure2D(pts, res.Chain, res.Edges, res.EdgeOf); got > res.Eps {
		return hullerr.New(hullerr.Internal, op, "measured excess %g exceeds declared eps %g", got, res.Eps)
	}
	return nil
}
