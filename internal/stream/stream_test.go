package stream

import (
	"context"
	"sort"
	"testing"

	"inplacehull/internal/fault"
	"inplacehull/internal/geom"
	"inplacehull/internal/hull2d"
	"inplacehull/internal/obs"
	"inplacehull/internal/rng"
	"inplacehull/internal/unsorted"
	"inplacehull/internal/workload"
)

// chainsEqual is bit-identical chain comparison.
func chainsEqual(a, b []geom.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkParity2 asserts the maintained chain is bit-identical to the
// reference oracle over the live multiset.
func checkParity2(t *testing.T, d *Dataset, ctx string) {
	t.Helper()
	snap, err := d.Snapshot2()
	if err != nil {
		t.Fatalf("%s: snapshot: %v", ctx, err)
	}
	want := hull2d.UpperHull(snap.Points)
	if !chainsEqual(snap.Chain, want) {
		t.Fatalf("%s: chain diverged from oracle\n got: %v\nwant: %v\nlive: %d points",
			ctx, snap.Chain, want, len(snap.Points))
	}
}

// mutator drives a deterministic append/delete mix over a dataset while
// mirroring the surviving multiset.
type mirror2 struct {
	live []geom.Point
	s    *rng.Stream
}

func (m *mirror2) pick() (geom.Point, int) {
	i := m.s.Intn(len(m.live))
	return m.live[i], i
}

func (m *mirror2) drop(i int) {
	m.live[i] = m.live[len(m.live)-1]
	m.live = m.live[:len(m.live)-1]
}

func TestIncrementalParity2D(t *testing.T) {
	gens := []workload.Gen2D{
		{Name: "disk", Gen: workload.Disk},
		{Name: "circle", Gen: workload.Circle},
		{Name: "grid", Gen: workload.Grid},
		{Name: "collinear", Gen: workload.Collinear},
		{Name: "gaussian", Gen: workload.Gaussian},
	}
	ctx := context.Background()
	for _, g := range gens {
		g := g
		t.Run(g.Name, func(t *testing.T) {
			pts := g.Gen(7, 256)
			// Low churn thresholds so the fallback path also exercises.
			st := NewStore(Config{MinChurn: 8, ChurnFrac: 0.05})
			d, delta, err := st.Register2(g.Name, pts)
			if err != nil {
				t.Fatalf("register: %v", err)
			}
			if delta.Version != 1 || len(delta.Added) == 0 {
				t.Fatalf("registration delta: %+v", delta)
			}
			checkParity2(t, d, "after register")

			m := &mirror2{live: append([]geom.Point(nil), pts...), s: rng.New(11)}
			fresh := g.Gen(99, 512)
			fi := 0
			prevV := uint64(1)
			for step := 0; step < 400; step++ {
				var err error
				var delta Delta
				switch {
				case len(m.live) == 0 || (m.s.Intn(2) == 0 && fi < len(fresh)):
					p := fresh[fi]
					fi++
					m.live = append(m.live, p)
					delta, err = d.Append2(ctx, []geom.Point{p})
				default:
					p, i := m.pick()
					m.drop(i)
					delta, err = d.Delete2(ctx, []geom.Point{p})
				}
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if delta.Version != prevV+1 {
					t.Fatalf("step %d: version %d, want %d", step, delta.Version, prevV+1)
				}
				prevV = delta.Version
				checkParity2(t, d, g.Name)
			}
			if fi == 0 {
				t.Fatal("mutator never appended")
			}
		})
	}
}

// TestDuplicatesAndRevival pins the multiset edge cases: duplicate
// appends leave the hull alone, deleting one of two copies of a hull
// vertex keeps it, and a deleted point can be re-appended.
func TestDuplicatesAndRevival(t *testing.T) {
	ctx := context.Background()
	st := NewStore(Config{})
	sq := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 2}, {X: 2, Y: 0}}
	d, _, err := st.Register2("sq", sq)
	if err != nil {
		t.Fatal(err)
	}
	top := geom.Point{X: 1, Y: 2}
	if _, err := d.Append2(ctx, []geom.Point{top}); err != nil { // now count 2
		t.Fatal(err)
	}
	checkParity2(t, d, "dup append")
	if _, err := d.Delete2(ctx, []geom.Point{top}); err != nil { // count 1: still a vertex
		t.Fatal(err)
	}
	snap, _ := d.Snapshot2()
	if len(snap.Chain) != 3 {
		t.Fatalf("vertex with remaining multiplicity dropped: chain %v", snap.Chain)
	}
	delta, err := d.Delete2(ctx, []geom.Point{top}) // count 0: vertex leaves
	if err != nil {
		t.Fatal(err)
	}
	if len(delta.Removed) != 1 || delta.Removed[0] != top {
		t.Fatalf("delete delta: %+v", delta)
	}
	checkParity2(t, d, "vertex delete")
	if _, err := d.Append2(ctx, []geom.Point{top}); err != nil { // revival
		t.Fatal(err)
	}
	checkParity2(t, d, "revival")
	// Deleting an absent point fails typed with no state change.
	v0, h0 := d.Version()
	if _, err := d.Delete2(ctx, []geom.Point{{X: 99, Y: 99}}); err == nil {
		t.Fatal("deleting an absent point succeeded")
	}
	if v1, h1 := d.Version(); v1 != v0 || h1 != h0 {
		t.Fatal("failed delete changed state")
	}
}

// TestEndpointDeletes drains a dataset vertex-first down to empty — the
// half-open-strip and empty-chain edge cases.
func TestEndpointDeletes(t *testing.T) {
	ctx := context.Background()
	st := NewStore(Config{})
	pts := workload.Circle(3, 24)
	d, _, err := st.Register2("c", pts)
	if err != nil {
		t.Fatal(err)
	}
	for len(pts) > 0 {
		snap, _ := d.Snapshot2()
		// Always delete the current leftmost chain vertex.
		p := snap.Chain[0]
		if _, err := d.Delete2(ctx, []geom.Point{p}); err != nil {
			t.Fatal(err)
		}
		for i, q := range pts {
			if q == p {
				pts = append(pts[:i], pts[i+1:]...)
				break
			}
		}
		checkParity2(t, d, "endpoint delete")
	}
	snap, _ := d.Snapshot2()
	if len(snap.Chain) != 0 || len(snap.Points) != 0 {
		t.Fatalf("drained dataset not empty: %v", snap)
	}
}

// TestChaosSoak2D is the mutation-path chaos soak: with StreamSplice and
// StreamRebuild firing, every mutation must either commit a chain
// bit-identical to the oracle or fail typed with version, hash, and chain
// unchanged — never silently wrong.
func TestChaosSoak2D(t *testing.T) {
	ctx := context.Background()
	met := obs.NewMetrics()
	var plan fault.Plan
	plan.Seed = 0xfeed
	plan.Rates[fault.StreamSplice] = 0.3
	plan.Rates[fault.StreamRebuild] = 0.4
	inj := fault.NewInjector(plan)
	st := NewStore(Config{Injector: inj, Metrics: met, MinChurn: 8, ChurnFrac: 0.02})
	d, _, err := st.Register2("soak", workload.Disk(21, 512))
	if err != nil {
		t.Fatal(err)
	}
	s := rng.New(5)
	fresh := workload.Disk(77, 2048)
	fi := 0
	m := &mirror2{live: append([]geom.Point(nil), workload.Disk(21, 512)...), s: rng.New(13)}
	violations := 0
	typed := 0
	for step := 0; step < 600; step++ {
		v0, h0 := d.Version()
		snap0, _ := d.Snapshot2()
		var err error
		if len(m.live) == 0 || (s.Intn(2) == 0 && fi < len(fresh)) {
			p := fresh[fi]
			fi++
			if _, err = d.Append2(ctx, []geom.Point{p}); err == nil {
				m.live = append(m.live, p)
			}
		} else {
			p, i := m.pick()
			if _, err = d.Delete2(ctx, []geom.Point{p}); err == nil {
				m.drop(i)
			}
		}
		if err != nil {
			typed++
			// Typed failure: state must be exactly the previous version.
			if v1, h1 := d.Version(); v1 != v0 || h1 != h0 {
				t.Errorf("step %d: failed mutation moved state v%d→v%d", step, v0, v1)
				violations++
			}
			snap1, _ := d.Snapshot2()
			if !chainsEqual(snap0.Chain, snap1.Chain) {
				t.Errorf("step %d: failed mutation changed chain", step)
				violations++
			}
			continue
		}
		checkParity2(t, d, "soak commit")
	}
	if typed == 0 {
		t.Fatal("soak never exercised the typed-failure path; raise rates")
	}
	if met.StreamCounter("rollbacks_total") == 0 {
		t.Fatal("no rollbacks counted")
	}
	if met.StreamCounter("fallbacks_total") == 0 {
		t.Fatal("no fallbacks counted")
	}
	if violations != 0 {
		t.Fatalf("%d contract violations", violations)
	}
}

// sortedPoints3 returns a lex-sorted copy, for multiset comparison.
func sortedPoints3(pts []geom.Point3) []geom.Point3 {
	out := append([]geom.Point3(nil), pts...)
	sort.Slice(out, func(i, k int) bool { return geom.LexLess3(out[i], out[k]) })
	return out
}

// samePoints3 is exact slice equality.
func samePoints3(a, b []geom.Point3) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestChaosSoak3D is TestChaosSoak2D on a 3-d dataset: with StreamSplice
// and StreamRebuild firing, and a tape of fresh appends, duplicate
// appends, tombstone revivals, deletes and deletes of absent points,
// every mutation either commits caps that pass CheckCaps3D over exactly
// the mirrored live multiset, or fails typed with version, hash,
// snapshot and hull vertex set unchanged.
func TestChaosSoak3D(t *testing.T) {
	ctx := context.Background()
	met := obs.NewMetrics()
	var plan fault.Plan
	plan.Seed = 0xbeef
	plan.Rates[fault.StreamSplice] = 0.3
	plan.Rates[fault.StreamRebuild] = 0.4
	inj := fault.NewInjector(plan)
	st := NewStore(Config{Injector: inj, Metrics: met})
	init := workload.Ball(23, 192)
	d, _, err := st.Register3("soak3", init)
	if err != nil {
		t.Fatal(err)
	}
	live := append([]geom.Point3(nil), init...)
	var gone []geom.Point3 // deleted points, candidates for revival
	fresh := workload.Sphere(79, 1024)
	fi := 0
	s := rng.New(29)
	absent := geom.Point3{X: 99, Y: 99, Z: 99}
	typed, dups, revivals := 0, 0, 0
	for step := 0; step < 400; step++ {
		v0, h0 := d.Version()
		snap0, _ := d.Snapshot3()
		verts0, _, _, _ := d.Hull3()
		var batch []geom.Point3
		appending := true
		switch r := s.Intn(10); {
		case len(live) == 0 || (r < 3 && fi < len(fresh)):
			batch = []geom.Point3{fresh[fi]}
			fi++
		case r < 4:
			batch = []geom.Point3{live[s.Intn(len(live))]}
			dups++
		case r < 5 && len(gone) > 0:
			batch = []geom.Point3{gone[s.Intn(len(gone))]}
			revivals++
		case r < 6:
			appending = false
			batch = []geom.Point3{live[s.Intn(len(live))], absent}
		default:
			appending = false
			i := s.Intn(len(live))
			batch = []geom.Point3{live[i]}
			if k := s.Intn(len(live)); k != i && s.Intn(2) == 0 {
				batch = append(batch, live[k])
			}
		}
		if appending {
			_, err = d.Append3(ctx, batch)
		} else {
			_, err = d.Delete3(ctx, batch)
		}
		if err != nil {
			typed++
			v1, h1 := d.Version()
			snap1, _ := d.Snapshot3()
			verts1, _, _, _ := d.Hull3()
			if v1 != v0 || h1 != h0 {
				t.Fatalf("step %d: failed mutation moved state v%d→v%d", step, v0, v1)
			}
			if !samePoints3(snap0.Points, snap1.Points) || len(snap0.Res.Facets) != len(snap1.Res.Facets) {
				t.Fatalf("step %d: failed mutation changed the snapshot", step)
			}
			if !samePoints3(verts0, verts1) {
				t.Fatalf("step %d: failed mutation changed the vertex set", step)
			}
			continue
		}
		if appending {
			live = append(live, batch...)
		} else {
			for _, p := range batch {
				for i, q := range live {
					if q == p {
						live[i] = live[len(live)-1]
						live = live[:len(live)-1]
						break
					}
				}
				gone = append(gone, p)
			}
		}
		snap, err := d.Snapshot3()
		if err != nil {
			t.Fatal(err)
		}
		if !samePoints3(sortedPoints3(snap.Points), sortedPoints3(live)) {
			t.Fatalf("step %d: snapshot holds %d points, mirror %d, or different ones", step, len(snap.Points), len(live))
		}
		if len(snap.Points) > 0 {
			if err := unsorted.CheckCaps3D(snap.Points, snap.Res); err != nil {
				t.Fatalf("step %d: committed caps failed oracle: %v", step, err)
			}
		}
	}
	if typed == 0 || dups == 0 || revivals == 0 {
		t.Fatalf("soak coverage: %d typed failures, %d duplicate appends, %d revivals", typed, dups, revivals)
	}
	if met.StreamCounter("rollbacks_total") == 0 {
		t.Fatal("no rollbacks counted")
	}
	if met.StreamCounter("fallbacks_total") == 0 {
		t.Fatal("no fallbacks counted")
	}
}

// TestIncrementalParity3D oracle-gates the maintained 3-d caps after
// every mutation: CheckCaps3D must hold over the live multiset. (3-d
// facet decomposition is seed/order-dependent repo-wide, so the oracle —
// not bit-identity — is the 3-d parity contract.)
func TestIncrementalParity3D(t *testing.T) {
	ctx := context.Background()
	st := NewStore(Config{})
	pts := workload.Ball(9, 128)
	d, delta, err := st.Register3("ball", pts)
	if err != nil {
		t.Fatal(err)
	}
	if delta.Version != 1 || len(delta.Added3) == 0 {
		t.Fatalf("registration delta: %+v", delta)
	}
	live := append([]geom.Point3(nil), pts...)
	fresh := workload.Sphere(31, 256)
	fi := 0
	s := rng.New(17)
	for step := 0; step < 120; step++ {
		if len(live) == 0 || (s.Intn(2) == 0 && fi < len(fresh)) {
			p := fresh[fi]
			fi++
			live = append(live, p)
			if _, err := d.Append3(ctx, []geom.Point3{p}); err != nil {
				t.Fatalf("step %d append: %v", step, err)
			}
		} else {
			i := s.Intn(len(live))
			p := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			if _, err := d.Delete3(ctx, []geom.Point3{p}); err != nil {
				t.Fatalf("step %d delete: %v", step, err)
			}
		}
		snap, err := d.Snapshot3()
		if err != nil {
			t.Fatal(err)
		}
		if len(snap.Points) != len(live) {
			t.Fatalf("step %d: snapshot %d points, mirror %d", step, len(snap.Points), len(live))
		}
		if len(snap.Points) > 0 {
			if err := unsorted.CheckCaps3D(snap.Points, snap.Res); err != nil {
				t.Fatalf("step %d: maintained caps failed oracle: %v", step, err)
			}
		}
	}
}

// TestFlatCandidateReplay3D: a coplanar dataset commits the degenerate
// top cap, so its retained vertex set is the top point alone. Appending
// points off the plane replays a candidate set too small for a 3-d hull;
// native.Hull3DFrom then rebuilds from the full live multiset, so the
// commit is a real cap structure without any stream-side retry or
// fallback.
func TestFlatCandidateReplay3D(t *testing.T) {
	st := NewStore(Config{})
	var flat []geom.Point3
	for i := range 8 {
		for j := range 8 {
			x, y := float64(i), float64(j)
			flat = append(flat, geom.Point3{X: x, Y: y, Z: 1 + 0.5*x + 0.25*y})
		}
	}
	d, _, err := st.Register3("flat", flat)
	if err != nil {
		t.Fatal(err)
	}
	if snap, err := d.Snapshot3(); err != nil || len(snap.Res.Facets) != 1 || !snap.Res.Facets[0].Degenerate() {
		t.Fatalf("coplanar registration: %d facets (%v), want the degenerate top cap", len(snap.Res.Facets), err)
	}
	if len(d.verts3) != 1 {
		t.Fatalf("coplanar registration keeps %d candidates, want the top point only", len(d.verts3))
	}
	delta, err := d.Append3(context.Background(), []geom.Point3{{X: 2, Y: 3, Z: 9}, {X: 5, Y: 4, Z: 11}})
	if err != nil {
		t.Fatal(err)
	}
	if delta.Fallback != "" {
		t.Fatalf("append fell back: %q", delta.Fallback)
	}
	snap, err := d.Snapshot3()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range snap.Res.Facets {
		if f.Degenerate() {
			t.Fatalf("append committed a degenerate cap among %d facets", len(snap.Res.Facets))
		}
	}
	if err := unsorted.CheckCaps3D(snap.Points, snap.Res); err != nil {
		t.Fatalf("append commit fails the cap oracle over the live set: %v", err)
	}
}

// TestSubscriptions pins delta fan-out: version order, hash continuity,
// and channel close on dataset delete.
func TestSubscriptions(t *testing.T) {
	ctx := context.Background()
	st := NewStore(Config{})
	d, reg, err := st.Register2("sub", workload.Disk(1, 64))
	if err != nil {
		t.Fatal(err)
	}
	sub := d.Subscribe()
	p := geom.Point{X: 50, Y: 50} // far outside: certainly a new hull vertex
	delta, err := d.Append2(ctx, []geom.Point{p})
	if err != nil {
		t.Fatal(err)
	}
	got := <-sub.C
	if got.Version != reg.Version+1 || got.Hash != delta.Hash || got.PrevHash != reg.Hash {
		t.Fatalf("subscriber delta %+v, want version %d hash %v", got, reg.Version+1, delta.Hash)
	}
	found := false
	for _, q := range got.Added {
		if q == p {
			found = true
		}
	}
	if !found {
		t.Fatalf("outlier append not in Added: %+v", got)
	}
	// Since() replays the same delta.
	ds, ok := d.Since(reg.Version)
	if !ok || len(ds) != 1 || ds[0].Version != got.Version {
		t.Fatalf("Since: %v %v", ds, ok)
	}
	if _, ok := st.Delete("sub"); !ok {
		t.Fatal("delete failed")
	}
	if _, open := <-sub.C; open {
		t.Fatal("subscription channel not closed on dataset delete")
	}
	// Deleted dataset: mutations fail typed; re-registration works.
	if _, err := d.Append2(ctx, []geom.Point{p}); err == nil {
		t.Fatal("mutation on deleted dataset succeeded")
	}
	if _, _, err := st.Register2("sub", []geom.Point{{X: 1, Y: 1}}); err != nil {
		t.Fatalf("re-registration after delete: %v", err)
	}
}

// TestRegisterIdempotent pins registration semantics: identical content
// is a no-op, different content a typed error.
func TestRegisterIdempotent(t *testing.T) {
	st := NewStore(Config{})
	pts := workload.Disk(4, 32)
	d1, _, err := st.Register2("x", pts)
	if err != nil {
		t.Fatal(err)
	}
	d2, _, err := st.Register2("x", pts)
	if err != nil || d2 != d1 {
		t.Fatalf("idempotent re-register: %v (same=%v)", err, d2 == d1)
	}
	if _, _, err := st.Register2("x", workload.Disk(5, 32)); err == nil {
		t.Fatal("conflicting re-register succeeded")
	}
}

// TestMultisetHashIncremental pins that the incrementally maintained hash
// equals a from-scratch multiset hash of the surviving points.
func TestMultisetHashIncremental(t *testing.T) {
	ctx := context.Background()
	st := NewStore(Config{})
	pts := workload.Grid(8, 64)
	d, _, err := st.Register2("h", pts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Append2(ctx, pts[:4]); err != nil { // duplicates
		t.Fatal(err)
	}
	if _, err := d.Delete2(ctx, pts[8:12]); err != nil {
		t.Fatal(err)
	}
	snap, _ := d.Snapshot2()
	fromScratch := NewStore(Config{})
	d2, _, err := fromScratch.Register2("h2", snap.Points)
	if err != nil {
		t.Fatal(err)
	}
	_, h2 := d2.Version()
	if snap.Hash != h2 {
		t.Fatalf("incremental hash %v != from-scratch %v", snap.Hash, h2)
	}
}
