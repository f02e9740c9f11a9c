package inplacehull

import (
	"context"
	"encoding/binary"
	"sort"
	"testing"

	"inplacehull/internal/rng"
	"inplacehull/internal/stream"
	"inplacehull/internal/workload"
)

// Metamorphic contract of the streaming subsystem, checked through the
// public entry points: after ANY interleaving of appends and deletes the
// maintained hull is the hull a from-scratch run computes on the
// surviving multiset. 2-d is bit-identical (the maintained chain and the
// native RunAuto2D chain are both canonical); 3-d compares the hull
// vertex set (facet decomposition is seed/order-dependent repo-wide, so
// vertex-set equality against RunAuto3D is the parity contract).

// rebuildChain2 is the from-scratch oracle: the canonical chain of the
// surviving multiset via the public RunAuto2D.
func rebuildChain2(t *testing.T, live []Point) []Point {
	t.Helper()
	if len(live) == 0 {
		return nil
	}
	res, _, err := RunAuto2D(context.Background(), rng.New(99), live, RunConfig{})
	if err != nil {
		t.Fatalf("from-scratch rebuild (%d pts): %v", len(live), err)
	}
	return res.Chain
}

func sameChain2(a, b []Point) bool {
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

func TestStreamMetamorphic2D(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []uint64{3, 41, 271} {
		st := stream.NewStore(stream.Config{})
		init := workload.Disk(seed, 300)
		d, _, err := st.Register2("meta", init)
		if err != nil {
			t.Fatal(err)
		}
		live := append([]Point(nil), init...)
		fresh := workload.Grid(seed+1, 400) // grid: duplicates of hull abscissae, collinear runs
		fi := 0
		s := rng.New(seed)
		for step := 0; step < 160; step++ {
			switch {
			case len(live) == 0 || (s.Intn(3) != 0 && fi < len(fresh)):
				p := fresh[fi]
				fi++
				live = append(live, p)
				if _, err := d.Append2(ctx, []Point{p}); err != nil {
					t.Fatalf("seed %d step %d append: %v", seed, step, err)
				}
			case s.Intn(4) == 0: // duplicate an existing point, then delete one copy
				p := live[s.Intn(len(live))]
				live = append(live, p)
				if _, err := d.Append2(ctx, []Point{p}); err != nil {
					t.Fatalf("seed %d step %d dup append: %v", seed, step, err)
				}
			default:
				i := s.Intn(len(live))
				p := live[i]
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				if _, err := d.Delete2(ctx, []Point{p}); err != nil {
					t.Fatalf("seed %d step %d delete: %v", seed, step, err)
				}
			}
			chain, _, _, err := d.Hull2()
			if err != nil {
				t.Fatal(err)
			}
			if want := rebuildChain2(t, live); !sameChain2(chain, want) {
				t.Fatalf("seed %d step %d: maintained chain diverged from RunAuto2D\n got: %v\nwant: %v",
					seed, step, chain, want)
			}
		}
	}
}

func TestStreamMetamorphic3D(t *testing.T) {
	ctx := context.Background()
	st := stream.NewStore(stream.Config{})
	init := workload.Ball(7, 160)
	d, _, err := st.Register3("meta3", init)
	if err != nil {
		t.Fatal(err)
	}
	live := append([]Point3(nil), init...)
	fresh := workload.Sphere(8, 200)
	fi := 0
	s := rng.New(7)
	for step := 0; step < 100; step++ {
		if len(live) < 8 || (s.Intn(2) == 0 && fi < len(fresh)) {
			p := fresh[fi]
			fi++
			live = append(live, p)
			if _, err := d.Append3(ctx, []Point3{p}); err != nil {
				t.Fatalf("step %d append: %v", step, err)
			}
		} else {
			i := s.Intn(len(live))
			p := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			if _, err := d.Delete3(ctx, []Point3{p}); err != nil {
				t.Fatalf("step %d delete: %v", step, err)
			}
		}
		if step%10 != 9 { // full 3-d rebuilds are costly; spot-check every 10th commit
			continue
		}
		verts, _, _, err := d.Hull3()
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := RunAuto3D(ctx, rng.New(99), live, RunConfig{})
		if err != nil {
			t.Fatalf("step %d from-scratch 3-d rebuild: %v", step, err)
		}
		want := facetVerts3(live, res)
		if !sameVerts3(verts, want) {
			t.Fatalf("step %d: maintained 3-d vertex set diverged from RunAuto3D\n got: %v\nwant: %v",
				step, verts, want)
		}
	}
}

// facetVerts3 extracts the lex-sorted hull vertex set the stream layer
// maintains from a from-scratch Result3D, restricted to live points (a
// degenerate cap can reference the synthetic global top).
func facetVerts3(live []Point3, res Hull3DResult) []Point3 {
	in := map[Point3]bool{}
	for _, p := range live {
		in[p] = true
	}
	set := map[Point3]bool{}
	for _, f := range res.Facets {
		for _, p := range []Point3{f.A, f.B, f.C} {
			if in[p] {
				set[p] = true
			}
		}
	}
	out := make([]Point3, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Slice(out, func(i, k int) bool {
		a, b := out[i], out[k]
		if a.X != b.X {
			return a.X < b.X
		}
		if a.Y != b.Y {
			return a.Y < b.Y
		}
		return a.Z < b.Z
	})
	return out
}

func sameVerts3(a, b []Point3) bool {
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

// FuzzStreamParity2D decodes fuzz bytes into an append/delete op tape
// and replays it against a dataset, checking the maintained chain stays
// bit-identical to the from-scratch canonical hull of the surviving
// multiset. Ops use the int16-eighth grid of the other fuzz harnesses so
// the fuzzer explores combinatorial degeneracies, not float extremes.
func FuzzStreamParity2D(f *testing.F) {
	f.Add(encodeOps([]Point{{X: 0, Y: 0}, {X: 4, Y: 4}, {X: 8, Y: 0}, {X: 4, Y: 1}}))
	f.Add(encodeOps(workload.Grid(3, 40)))
	f.Add([]byte{0, 1, 0, 0, 0, 0, 3, 255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		ctx := context.Background()
		st := stream.NewStore(stream.Config{MinChurn: 4}) // tiny threshold: exercise the rebuild fallback too
		d, _, err := st.Register2("fuzz", nil)
		if err != nil {
			t.Fatal(err)
		}
		var live []Point
		for len(data) >= 5 {
			op, rec := data[0], data[1:5]
			data = data[5:]
			if op&1 == 0 || len(live) == 0 { // append
				p := Point{
					X: float64(int16(binary.LittleEndian.Uint16(rec[0:]))) / 8,
					Y: float64(int16(binary.LittleEndian.Uint16(rec[2:]))) / 8,
				}
				live = append(live, p)
				if _, err := d.Append2(ctx, []Point{p}); err != nil {
					t.Fatalf("append %v: %v", p, err)
				}
			} else { // delete a surviving point picked by the record
				i := int(binary.LittleEndian.Uint32(rec)) % len(live)
				p := live[i]
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				if _, err := d.Delete2(ctx, []Point{p}); err != nil {
					t.Fatalf("delete %v: %v", p, err)
				}
			}
			chain, _, _, err := d.Hull2()
			if err != nil {
				t.Fatal(err)
			}
			want := fuzzOracle2(t, live)
			if !sameChain2(chain, want) {
				t.Fatalf("maintained chain diverged (%d live)\n got: %v\nwant: %v", len(live), chain, want)
			}
		}
	})
}

// fuzzOracle2 is rebuildChain2 without the testing.T fatal indirection
// cost on hot fuzz paths — same public-entry oracle.
func fuzzOracle2(t *testing.T, live []Point) []Point {
	if len(live) == 0 {
		return nil
	}
	res, _, err := RunAuto2D(context.Background(), rng.New(99), live, RunConfig{})
	if err != nil {
		t.Fatalf("oracle rebuild: %v", err)
	}
	return res.Chain
}

// encodeOps builds an all-append op tape from a point set.
func encodeOps(pts []Point) []byte {
	var out []byte
	for _, p := range pts {
		var b [5]byte
		b[0] = 0
		binary.LittleEndian.PutUint16(b[1:], uint16(int16(p.X*8)))
		binary.LittleEndian.PutUint16(b[3:], uint16(int16(p.Y*8)))
		out = append(out, b[:]...)
	}
	return out
}
