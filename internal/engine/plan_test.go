package engine_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"inplacehull/internal/chain"
	"inplacehull/internal/cull"
	"inplacehull/internal/engine"
	"inplacehull/internal/geom"
	"inplacehull/internal/hull2d"
	"inplacehull/internal/hullerr"
	"inplacehull/internal/pram"
	"inplacehull/internal/resilient"
	"inplacehull/internal/rng"
	"inplacehull/internal/unsorted"
	"inplacehull/internal/workload"
)

var (
	backends = []resilient.Backend{resilient.BackendCounted, resilient.BackendNative}
	policies = []cull.Policy{cull.PolicyOff, cull.PolicyQuad, cull.PolicyOctagon, cull.PolicyCoarse}
	algos    = map[engine.Algo]string{engine.AlgoHull2D: "hull2d", engine.AlgoPresorted: "presorted", engine.AlgoLogStar: "logstar"}
)

// plan builds the plan of one table cell. Counted cells get a fresh
// single-worker machine and the same seeded stream every time, so a
// culled and an unculled run differ only by the filter.
func plan(t *testing.T, be resilient.Backend, algo engine.Algo, pol cull.Policy) engine.Plan {
	p := engine.Plan{Backend: be, Algo: algo, Cull: pol, CullSeed: 11}
	if be == resilient.BackendCounted {
		m := pram.New(pram.WithWorkers(1))
		t.Cleanup(m.Close)
		p.Machine, p.Rand = m, rng.New(7)
	}
	return p
}

func run2D(t *testing.T, p engine.Plan, pts []geom.Point) (engine.Input2D, bool, engine.Result2D, resilient.Report) {
	t.Helper()
	in, ran := p.Filter2(pts)
	res, rep, err := p.Run2D(context.Background(), in)
	if err != nil {
		t.Fatalf("Run2D: %v", err)
	}
	return in, ran, res, rep
}

// strictX keeps the top point of every x-column, sorted by x: the input
// contract of the presorted algorithms.
func strictX(pts []geom.Point) []geom.Point {
	s := append([]geom.Point(nil), pts...)
	sort.Slice(s, func(i, j int) bool { return geom.LexLess(s[i], s[j]) })
	var out []geom.Point
	for i, p := range s {
		if i+1 < len(s) && s[i+1].X == p.X {
			continue
		}
		out = append(out, p)
	}
	return out
}

// dupHeavy repeats each of a few disk points many times.
func dupHeavy(n int) []geom.Point {
	base := workload.Disk(5, 64)
	out := make([]geom.Point, n)
	for i := range out {
		out[i] = base[(i*7)%len(base)]
	}
	return out
}

func TestPlan2D(t *testing.T) {
	const n = 1024
	inputs := []struct {
		name string
		pts  []geom.Point
	}{
		{"disk", workload.Disk(1, n)},
		{"circle", workload.Circle(2, n)},
		{"grid", workload.Grid(3, n)},
		{"collinear", workload.Collinear(4, n)},
		{"dups", dupHeavy(n)},
	}
	lifted := 0
	for _, input := range inputs {
		for _, be := range backends {
			for algo, aname := range algos {
				pts := input.pts
				if algo != engine.AlgoHull2D {
					pts = strictX(pts)
				}
				sorted := append([]geom.Point(nil), pts...)
				sort.Slice(sorted, func(i, j int) bool { return geom.LexLess(sorted[i], sorted[j]) })
				_, _, base, baseRep := run2D(t, plan(t, be, algo, cull.PolicyOff), pts)
				for _, pol := range policies {
					t.Run(fmt.Sprintf("%s/%s/%s/%s", input.name, be, aname, pol), func(t *testing.T) {
						in, ran, res, rep := run2D(t, plan(t, be, algo, pol), pts)
						if want := pol != cull.PolicyOff && algo == engine.AlgoHull2D; ran != want {
							t.Fatalf("filter ran=%v, want %v", ran, want)
						}
						if !ran && in.Culled() != 0 {
							t.Fatalf("culled %d points without filtering", in.Culled())
						}
						if len(in.Full) != len(pts) || in.Culled() != len(pts)-len(in.Work) {
							t.Fatalf("input covers %d of %d points, culled %d of work %d", len(in.Full), len(pts), in.Culled(), len(in.Work))
						}
						if len(res.EdgeOf) != len(pts) {
							t.Fatalf("EdgeOf covers %d of %d points", len(res.EdgeOf), len(pts))
						}
						if err := unsorted.CheckAgainstReference(pts, unsorted.Result2D{Edges: res.Edges, Chain: res.Chain, EdgeOf: res.EdgeOf}); err != nil {
							t.Fatalf("answer fails the oracle over the full input: %v", err)
						}
						if be == resilient.BackendNative {
							if !reflect.DeepEqual(res.Chain, hull2d.UpperHull(pts)) {
								t.Fatal("native chain differs from hull2d.UpperHull")
							}
							if !reflect.DeepEqual(res, base) || !reflect.DeepEqual(rep, baseRep) {
								t.Fatal("culled native answer differs from the unculled one")
							}
							return
						}
						if in.Culled() == 0 {
							if !reflect.DeepEqual(res, base) {
								t.Fatal("unculled counted answer differs between runs")
							}
							return
						}
						lifted++
						if want := chain.Canonical(sorted, base.Chain); !reflect.DeepEqual(res.Chain, want) {
							t.Fatalf("culled counted chain %v, want canonical %v", res.Chain, want)
						}
						if !reflect.DeepEqual(res.Unsorted.Chain, res.Chain) || !reflect.DeepEqual(res.Unsorted.EdgeOf, res.EdgeOf) {
							t.Fatal("algorithm record not lifted with the answer")
						}
					})
				}
			}
		}
	}
	if lifted < 6 {
		t.Fatalf("only %d culled counted cells exercised the lift", lifted)
	}
}

// TestPlanUnsortedStaysTyped: culling never applies to the sorted-input
// algorithms, so an unsorted input fails typed instead of being culled
// into a sorted one.
func TestPlanUnsortedStaysTyped(t *testing.T) {
	pts := workload.Disk(6, 512)
	for _, be := range backends {
		for _, algo := range []engine.Algo{engine.AlgoPresorted, engine.AlgoLogStar} {
			for _, pol := range policies[1:] {
				p := plan(t, be, algo, pol)
				in, ran := p.Filter2(pts)
				_, _, err := p.Run2D(context.Background(), in)
				if ran || !errors.Is(err, hullerr.ErrUnsorted) {
					t.Fatalf("%s/%s/%s: filter ran=%v, err=%v; want no filter and UnsortedInput", be, algos[algo], pol, ran, err)
				}
			}
		}
	}
}

// degenerate reports whether any point of res sits under the degenerate
// top cap rather than a real facet.
func degenerate(res unsorted.Result3D) bool {
	for _, c := range res.Facets {
		if c.Degenerate() {
			return true
		}
	}
	return false
}

func TestPlan3D(t *testing.T) {
	const n = 400
	ball := workload.Ball(8, n)
	dups := make([]geom.Point3, n)
	for i := range dups {
		dups[i] = ball[(i*7)%50]
	}
	inputs := []struct {
		name string
		pts  []geom.Point3
	}{
		{"ball", ball},
		{"sphere", workload.Sphere(9, n)},
		{"dups", dups},
	}
	for _, input := range inputs {
		for _, be := range backends {
			for _, pol := range policies {
				t.Run(fmt.Sprintf("%s/%s/%s", input.name, be, pol), func(t *testing.T) {
					pts := input.pts
					p := plan(t, be, engine.AlgoHull2D, pol)
					in, ran := p.Filter3(pts)
					if want := pol != cull.PolicyOff && be == resilient.BackendNative; ran != want {
						t.Fatalf("filter ran=%v, want %v", ran, want)
					}
					if len(in.Full) != len(pts) || in.Culled() != len(pts)-len(in.Work) {
						t.Fatalf("input covers %d of %d points, culled %d of work %d", len(in.Full), len(pts), in.Culled(), len(in.Work))
					}
					if ran && input.name == "ball" && in.Culled() == 0 {
						t.Fatal("filter culled nothing from a ball")
					}
					// The upper filter also drops the lower half of a
					// sphere, all of whose points are hull vertices.
					if ran && pol == cull.PolicyCoarse && input.name == "sphere" && in.Culled() < n/4 {
						t.Fatalf("upper filter culled %d of %d sphere points, want the lower half", in.Culled(), n)
					}
					res, _, err := p.Run3D(context.Background(), in)
					if err != nil {
						t.Fatalf("Run3D: %v", err)
					}
					if err := unsorted.CheckCaps3D(pts, res); err != nil {
						t.Fatalf("caps fail over the full input: %v", err)
					}
					unculled := plan(t, be, engine.AlgoHull2D, cull.PolicyOff)
					base, _, err := unculled.Run3D(context.Background(), engine.Input3D{Full: pts, Work: pts})
					if err != nil {
						t.Fatalf("unculled Run3D: %v", err)
					}
					if degenerate(res) && !degenerate(base) {
						t.Fatalf("culled run fell to the degenerate cap; the unculled run has %d real facets", len(base.Facets))
					}
				})
			}
		}
	}
}
