package unsorted

import (
	"math"

	"inplacehull/internal/fault"
	"inplacehull/internal/geom"
	"inplacehull/internal/hull3d"
	"inplacehull/internal/hullerr"
	"inplacehull/internal/lp"
	"inplacehull/internal/obs"
	"inplacehull/internal/pram"
	"inplacehull/internal/rng"
)

// Result3D is the output of the unsorted 3-d hull algorithm (§4.3).
//
// Output contract: every point receives a *cap facet* — a triangle of
// input points of its recursion region with no point of that region above
// its plane, whose xy-projection covers the point. Caps found at the top
// recursion level are facets of the global upper hull; caps found deeper
// are facets of their region's hull, which by convexity lie on or below
// the global envelope (the paper's preliminary version leaves the
// region-boundary bookkeeping to the full version; see DESIGN.md §5 for
// the discussion of this relaxation).
type Result3D struct {
	// Facets are the distinct cap facets found, in discovery order.
	Facets []lp.Solution3D
	// FacetOf maps each point to its cap in Facets (−1 for degenerate
	// single-column inputs).
	FacetOf []int
	// Stats carries instrumentation for experiments E4 and E8.
	Stats Stats3D
}

// Stats3D is the instrumentation record of one 3-d run.
type Stats3D struct {
	Levels         int
	TotalDepth     int // includes the depth of the 2-d subcalls (§4.3 step 3)
	BridgeFailures int
	FellBack       bool
	FallbackLevel  int
	MaxProblemSize []int
	LiveTrace      []int
}

// Options3D tunes the §4.3 constants; zero values select defaults.
type Options3D struct {
	// MaxLevels caps the 3-d recursion depth before the fallback path
	// (the paper's i ≥ (log n)/64 with asymptotic constants). Default
	// ⌈2·log₂ n⌉ + 8.
	MaxLevels int
	// FallbackThreshold plays the role of the paper's l ≥ n^(1/32)
	// switch. Default: never.
	FallbackThreshold int
	// BudgetScale multiplies every surrender budget — MaxLevels and the
	// vote's retry rounds — the knob the resilient supervisor escalates
	// across reseeded attempts. Default 1.
	BudgetScale float64
}

// maxK3D caps the §4.3 base-problem parameter k = s^(1/4).
const maxK3D = 10

func (o *Options3D) fill(n int) {
	if o.MaxLevels <= 0 {
		o.MaxLevels = 2*int(math.Ceil(math.Log2(float64(n+1)))) + 8
	}
	if o.FallbackThreshold <= 0 {
		o.FallbackThreshold = n + 1
	}
	if o.BudgetScale < 1 {
		o.BudgetScale = 1
	}
}

// Hull3D computes the upper-hull cap structure of unsorted 3-d points with
// default options.
func Hull3D(m *pram.Machine, rnd *rng.Stream, pts []geom.Point3) (Result3D, error) {
	return Hull3DOpts(m, rnd, pts, Options3D{})
}

// Hull3DOpts runs the §4.3 recursion: random-vote splitter, 3-d in-place
// facet finding, failure sweeping, then division of each subproblem into
// four parts by the two silhouette ridges obtained from 2-d hull calls on
// the facet-sheared xz and yz projections.
func Hull3DOpts(m *pram.Machine, rnd *rng.Stream, pts []geom.Point3, opt Options3D) (Result3D, error) {
	n := len(pts)
	opt.fill(n)
	res := Result3D{FacetOf: make([]int, n)}
	for i := range res.FacetOf {
		res.FacetOf[i] = -1
	}
	if err := hullerr.CheckFinite3D("Hull3D", pts); err != nil {
		return res, err
	}
	if n == 0 {
		return res, nil
	}

	probNum := make([]int64, n)
	capOf := make([]lp.Solution3D, n)
	hasCap := make([]bool, n)
	resolved := make([]bool, n) // tiny-problem points capped in the current step
	m.StepAll(n, func(p int) { probNum[p] = 1 })

	problems := []problem{{num: 1, live: n}}
	facetsFound := 0

	maxLevels := scaleBudget(opt.MaxLevels, opt.BudgetScale)
	rounds := scaleBudget(voteRounds, opt.BudgetScale)
	spec := levelSpec[geom.Point3, lp.Problem3D, lp.Solution3D]{
		root: func(s float64) float64 { return math.Sqrt(math.Sqrt(s)) },
		maxK: maxK3D, span: "facet-lp", stride: 5,
		problem: func(s geom.Point3, k, live int) lp.Problem3D {
			return lp.Problem3D{Splitter: s, K: k, MLive: live}
		},
		batch: lp.BatchBridge3D,
		brute: func(level, i int, num int64, splitter geom.Point3) lp.Solution3D {
			return bruteFacet(rnd.Split(uint64(level)*7+uint64(i)), pts, probNum, num, splitter)
		},
	}
	for level := 0; len(problems) > 0; level++ {
		res.Stats.Levels++
		res.Stats.TotalDepth++
		probID := startLevel(probNum, problems, &res.Stats.MaxProblemSize, &res.Stats.LiveTrace)

		// Fallback (§4.3 step 4): depth cap or l over threshold →
		// Reif–Sen substitute (see DESIGN.md): sequential randomized
		// incremental hull per remaining problem, composed concurrently.
		l := facetsFound + len(problems)
		if level >= maxLevels || l >= opt.FallbackThreshold || fault.On(rnd).ForceFallbackAt(level) {
			res.Stats.FellBack = true
			res.Stats.FallbackLevel = level
			endFB := obs.Span(m, "fallback-seq")
			fallback3D(m, rnd.Split(0x3FB), pts, probNum, problems, capOf, hasCap)
			endFB()
			break
		}

		// Steps 1–2: splitter vote, 3-d in-place facet finding and failure
		// sweeping for every problem.
		splitters, results, failures, err := solveLevel(m, rnd, level, pts, probID, problems, rounds, spec)
		if err != nil {
			return res, err
		}
		res.Stats.BridgeFailures += failures

		// Step 3: division. For every problem concurrently: shear by the
		// facet plane, run the 2-d algorithm on the xz' and yz'
		// projections, and classify every live point by the vertical
		// planes of its covering silhouette edges.
		type div struct {
			err   error
			depth int
		}
		divs := make([]div, len(problems))
		var fns []func(*pram.Machine)
		for i := range problems {
			fns = append(fns, func(sub *pram.Machine) {
				sol := results[i].Sol
				if sol.Degenerate() {
					return // vertical column: everything dies below its top
				}
				_, local := members(pts, probNum, problems[i].num)
				pl := geom.PlaneThrough(sol.A, sol.B, sol.C)
				px := make([]geom.Point, len(local))
				py := make([]geom.Point, len(local))
				sub.StepAll(len(local), func(q int) {
					z := local[q].Z - pl.Eval(local[q].X, local[q].Y)
					px[q] = geom.Point{X: local[q].X, Y: z}
					py[q] = geom.Point{X: local[q].Y, Y: z}
				})
				rx, err := Hull2DOpts(sub, rnd.Split(uint64(level)*11+uint64(i)*2), px, Options{})
				if err != nil {
					divs[i].err = err
					return
				}
				ry, err := Hull2DOpts(sub, rnd.Split(uint64(level)*11+uint64(i)*2+1), py, Options{})
				if err != nil {
					divs[i].err = err
					return
				}
				divs[i].depth = max(rx.Stats.Levels, ry.Stats.Levels)
			})
		}
		endDiv := obs.Span(m, "divide")
		m.Concurrent(fns...)
		endDiv()
		maxDepth := 0
		for i := range divs {
			if divs[i].err != nil {
				return res, divs[i].err
			}
			maxDepth = max(maxDepth, divs[i].depth)
		}
		res.Stats.TotalDepth += maxDepth

		// Step 5: kill and renumber (one step over the array).
		endRenum := obs.Span(m, "renumber")
		m.Step(n, func(p int) bool {
			i := probID(p)
			if i < 0 {
				return false
			}
			sol := results[i].Sol
			if sol.Degenerate() {
				capOf[p], hasCap[p] = sol, true
				probNum[p] = 0
				return true
			}
			if underFacet(sol, pts[p]) {
				capOf[p], hasCap[p] = sol, true
				probNum[p] = 0
				return true
			}
			// Quadrant classification (§4.3 step 5): the full version of
			// the paper classifies against the silhouette ridges computed
			// above; Lemma 6.1's progress analysis, however, is stated for
			// the coordinate quadrants of the xz- and yz-planes through
			// the *splitter*, which is what this preliminary-version
			// reproduction uses (the ridge subcalls still contribute the
			// work/depth profile and their own caps). See DESIGN.md §5.
			sx, sy := pts[splitters[i]].X, pts[splitters[i]].Y
			child := int64(0)
			if pts[p].X >= sx {
				child |= 1
			}
			if pts[p].Y >= sy {
				child |= 2
			}
			probNum[p] = problems[i].num*4 - 3 + child
			return true
		})

		// Rebuild the problem list; problems of at most three points
		// resolve to caps directly (their points are hull vertices of
		// their column).
		for i := range results {
			if !results[i].Sol.Degenerate() {
				facetsFound++
			}
		}
		var counts map[int64]int
		problems, counts = regroup(m, probNum, problems, 3)
		// Tiny problems (≤3 live points): their top structure is the cap.
		// tinyCap reads the peers' probNum, so within the step each
		// processor only marks its own point resolved; the probNum entries
		// are cleared after the step, keeping every read of the step
		// before any write.
		m.Step(n, func(p int) bool {
			if probNum[p] == 0 {
				return false
			}
			if counts[probNum[p]] <= 3 {
				// The points of a ≤3-point problem cap each other: use the
				// degenerate-or-triangle cap of the set.
				capOf[p] = tinyCap(pts, probNum, p)
				hasCap[p] = true
				resolved[p] = true
			}
			return true
		})
		for p, r := range resolved {
			if r {
				probNum[p] = 0
				resolved[p] = false
			}
		}
		endRenum()
	}

	return assemble3D(pts, capOf, hasCap, res)
}

// underFacet reports whether p's xy lies inside (or on) the facet's
// xy-triangle. Points below the supporting plane inside the triangle are
// exactly the points "under the solution facet" (§4.3 step 5).
func underFacet(sol lp.Solution3D, p geom.Point3) bool {
	a, b, c := pxy3(sol.A), pxy3(sol.B), pxy3(sol.C)
	if geom.Orientation(a, b, c) < 0 {
		b, c = c, b
	}
	q := pxy3(p)
	return geom.Orientation(a, b, q) >= 0 &&
		geom.Orientation(b, c, q) >= 0 &&
		geom.Orientation(c, a, q) >= 0
}

func pxy3(p geom.Point3) geom.Point { return geom.Point{X: p.X, Y: p.Y} }

// tinyCap returns the cap of a ≤3-point problem containing point p: the
// triangle of its members (or the degenerate top for 1–2 members).
func tinyCap(pts []geom.Point3, probNum []int64, p int) lp.Solution3D {
	_, mem := members(pts, probNum, probNum[p])
	switch len(mem) {
	case 1:
		return lp.Solution3D{A: mem[0], B: mem[0], C: mem[0]}
	case 2:
		top := mem[0]
		if mem[1].Z > top.Z {
			top = mem[1]
		}
		return lp.Solution3D{A: mem[0], B: mem[1], C: top}
	default:
		return lp.Solution3D{A: mem[0], B: mem[1], C: mem[2]}
	}
}

// bruteFacet is the failure-sweeping brute force: the exact upper facet
// above the splitter, from the incremental hull of problem num's live
// points.
func bruteFacet(rnd *rng.Stream, pts []geom.Point3, probNum []int64, num int64, splitter geom.Point3) lp.Solution3D {
	_, mem := members(pts, probNum, num)
	return hullCaps(rnd, mem)(splitter.X, splitter.Y)
}

// hullCaps returns the cap lookup over a problem's points mem: the face of
// their incremental upper hull above (x, y), or TopCap(mem) where there is
// none — fewer than four points, a coplanar set, or an (x, y) outside the
// hull's shadow.
func hullCaps(rnd *rng.Stream, mem []geom.Point3) func(x, y float64) lp.Solution3D {
	h, err := hull3d.Incremental(rnd, mem)
	if err != nil {
		return func(float64, float64) lp.Solution3D { return TopCap(mem) }
	}
	up := h.UpperFaces()
	return func(x, y float64) lp.Solution3D {
		i := hull3d.FaceAbove(mem, up, x, y)
		if i < 0 {
			return TopCap(mem)
		}
		f := up[i]
		return lp.Solution3D{A: mem[f.A], B: mem[f.B], C: mem[f.C]}
	}
}

// TopCap is the degenerate cap through the point of maximum z (the first
// among ties): no point of mem lies above it.
func TopCap(mem []geom.Point3) lp.Solution3D {
	top := mem[0]
	for _, p := range mem {
		if p.Z > top.Z {
			top = p
		}
	}
	return lp.Solution3D{A: top, B: top, C: top}
}

// fallback3D resolves every remaining problem with the sequential
// incremental hull (the Reif–Sen substitute; see DESIGN.md): each problem
// is charged w = O(s log s) work and its facets cap its own points.
func fallback3D(m *pram.Machine, rnd *rng.Stream, pts []geom.Point3, probNum []int64, problems []problem, capOf []lp.Solution3D, hasCap []bool) {
	var fns []func(*pram.Machine)
	for _, pr := range problems {
		fns = append(fns, func(sub *pram.Machine) {
			local, lpts := members(pts, probNum, pr.num)
			s := float64(len(local))
			sub.Charge(int64(math.Ceil(math.Log2(s+2))), int64(math.Ceil(s*math.Log2(s+2))))
			capAt := hullCaps(rnd.Split(uint64(pr.num)), lpts)
			for q, p := range local {
				capOf[p], hasCap[p] = capAt(lpts[q].X, lpts[q].Y), true
				probNum[p] = 0
			}
		})
	}
	m.Concurrent(fns...)
}

// assemble3D deduplicates the caps into the facet list.
func assemble3D(pts []geom.Point3, capOf []lp.Solution3D, hasCap []bool, res Result3D) (Result3D, error) {
	idx := map[lp.Solution3D]int{}
	for p := range pts {
		if !hasCap[p] {
			return res, hullerr.New(hullerr.Internal, "unsorted3d",
				"point %d (%v) has no cap", p, pts[p])
		}
		c := capOf[p]
		i, ok := idx[c]
		if !ok {
			i = len(res.Facets)
			idx[c] = i
			res.Facets = append(res.Facets, c)
		}
		res.FacetOf[p] = i
	}
	return res, nil
}
