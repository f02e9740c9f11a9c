package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"

	"inplacehull/internal/geom"
	"inplacehull/internal/hull2d"
	"inplacehull/internal/hull3d"
	"inplacehull/internal/rng"
	gen "inplacehull/internal/workload"
)

// Workload shapes. Inline queries cycle through a pool of point sets; the
// per-request seed is distinct, so every (points, seed) pair — and with it
// every cache key — is new.
const (
	inline2N  = 4096
	inline3N  = 2048
	poolSets  = 16
	streamN   = 65536
	writeSize = 16
	// Every vertexEvery-th delete batch leads with a point taken from the
	// upper-hull peeling layers of the initial set, so some deletes hit
	// hull vertices and exercise the strip repair and its fallback.
	vertexEvery = 4
	streamName  = "disk-65536-stream"
	// warmBase offsets warm-up request indices away from the timed tape,
	// so warm-up seeds never collide with timed ones.
	warmBase = 1 << 40
)

var workloadNames = []string{"miss2d-interior", "miss2d-extreme", "miss3d-ball", "stream-churn"}

type opKind int

const (
	opHull2D       opKind = iota // POST /v1/hull2d, inline points
	opHull3D                     // POST /v1/hull3d, inline points
	opStreamQuery                // POST /v1/hull2d {"dataset": streamName}
	opStreamHull                 // GET /v1/datasets/{name}/hull
	opStreamAppend               // POST /v1/datasets/{name}/append
	opStreamDelete               // POST /v1/datasets/{name}/delete
)

func (k opKind) write() bool { return k == opStreamAppend || k == opStreamDelete }

// op is one request of a workload: what goes on the wire plus what the
// oracle and the traced replay need to know about it.
type op struct {
	kind   opKind
	method string
	path   string
	body   []byte
	set    int    // inline kinds: index into the point-set pool
	seed   uint64 // inline kinds: the request seed
	shards int    // inline 2-d: the "shards" field (0 = unscattered)
	pts    []geom.Point
}

// workload is one generated traffic mix: its inputs and the references
// every answer is checked against, all derived from the workload seed
// before any request is sent.
type workload struct {
	name   string
	salt   uint64
	shards int // hullserve -shards (local scatter workers); 0 = none

	// Inline workloads: point-set pool, its JSON encodings, and the
	// expected answers.
	n      int
	sets2  [][]geom.Point
	sets3  [][]geom.Point3
	coords [][]byte // JSON array of the set's points
	chains [][]byte // 2-d: `"chain":[…],` exactly as the server encodes it
	facets [][2]int // 3-d: inclusive bounds on the served facet count

	// stream-churn: the registered set, its PUT body, and the order in
	// which its points are deleted.
	initial  []geom.Point
	register []byte
	delOrder []geom.Point
}

// mix64 is the splitmix64 finalizer: a bijection on uint64, so distinct
// inputs give distinct request seeds.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func newWorkload(name string, seed uint64) (*workload, error) {
	w := &workload{name: name, salt: mix64(seed ^ 0x5e7ebe9c)}
	switch name {
	case "miss2d-interior":
		w.n = inline2N
		cluster8 := gen.Clusters(8)
		for j := 0; j < poolSets; j++ {
			if j%2 == 0 {
				w.sets2 = append(w.sets2, gen.Disk(w.setSeed(j), w.n))
			} else {
				w.sets2 = append(w.sets2, cluster8(w.setSeed(j), w.n))
			}
		}
	case "miss2d-extreme":
		w.n, w.shards = inline2N, 2
		for j := 0; j < poolSets; j++ {
			w.sets2 = append(w.sets2, gen.Circle(w.setSeed(j), w.n))
		}
	case "miss3d-ball":
		w.n = inline3N
		for j := 0; j < poolSets; j++ {
			w.sets3 = append(w.sets3, gen.Ball(w.setSeed(j), w.n))
		}
	case "stream-churn":
		w.n = streamN
		w.initial = gen.Disk(w.setSeed(-1), streamN)
		w.register = mustJSON(map[string]any{"points": coords2(w.initial)})
		w.delOrder = deleteOrder(w.initial, w.salt)
		return w, nil
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	for _, s := range w.sets2 {
		w.coords = append(w.coords, mustJSON(coords2(s)))
		w.chains = append(w.chains, chainField(hull2d.UpperHull(s)))
	}
	for _, s := range w.sets3 {
		w.coords = append(w.coords, mustJSON(coords3(s)))
		lo, hi, err := facetBounds(s)
		if err != nil {
			return nil, err
		}
		w.facets = append(w.facets, [2]int{lo, hi})
	}
	return w, nil
}

func (w *workload) setSeed(j int) uint64 { return mix64(w.salt + uint64(j+1)*0x632be59bd9b4e019) }

// reqSeed is the seed of request i: a bijection of i, so no two requests
// of a run share a seed (and no two share a cache key).
func (w *workload) reqSeed(i int) uint64 { return mix64(w.salt ^ uint64(i)) }

// op returns timed request i. ok is false when the stream tape has no
// deletable points left — the timed phase then ends early.
func (w *workload) op(i int) (op, bool) {
	switch w.name {
	case "miss2d-interior", "miss2d-extreme":
		o := op{kind: opHull2D, method: "POST", path: "/v1/hull2d", set: i % poolSets, seed: w.reqSeed(i)}
		if w.shards > 0 && i%4 == 3 {
			o.shards = w.shards
		}
		o.pts = w.sets2[o.set]
		o.body = w.inlineBody(o)
		return o, true
	case "miss3d-ball":
		o := op{kind: opHull3D, method: "POST", path: "/v1/hull3d", set: i % poolSets, seed: w.reqSeed(i)}
		o.body = w.inlineBody(o)
		return o, true
	}
	return w.streamOp(i)
}

// warmOp returns warm-up request i: the same shapes as the timed tape,
// never a mutation, never a timed request's seed.
func (w *workload) warmOp(i int) op {
	if w.name != "stream-churn" {
		o, _ := w.op(warmBase + i)
		return o
	}
	return streamRead(i)
}

func (w *workload) inlineBody(o op) []byte {
	b := make([]byte, 0, len(w.coords[o.set])+64)
	b = append(b, `{"points":`...)
	b = append(b, w.coords[o.set]...)
	b = append(b, `,"seed":`...)
	b = strconv.AppendUint(b, o.seed, 10)
	if o.shards > 0 {
		b = append(b, `,"shards":`...)
		b = strconv.AppendInt(b, int64(o.shards), 10)
	}
	return append(b, '}')
}

// streamOp is position i of the stream-churn tape: every fourth op is a
// write, alternating 16-point appends and deletes; the other three are
// reads, POST /v1/hull2d, GET …/hull, POST /v1/hull2d. The positions are
// fixed, so the mix cannot drift with speed or with the seed.
func (w *workload) streamOp(i int) (op, bool) {
	if i%4 != 3 {
		return streamRead(i), true
	}
	wi := i / 4
	if wi%2 == 0 {
		pts := appendPoints(w.salt, wi)
		return op{kind: opStreamAppend, method: "POST", path: "/v1/datasets/" + streamName + "/append",
			body: mustJSON(map[string]any{"points": coords2(pts)}), pts: pts}, true
	}
	d := wi / 2
	if (d+1)*writeSize > len(w.delOrder) {
		return op{}, false
	}
	pts := w.delOrder[d*writeSize : (d+1)*writeSize]
	return op{kind: opStreamDelete, method: "POST", path: "/v1/datasets/" + streamName + "/delete",
		body: mustJSON(map[string]any{"points": coords2(pts)}), pts: pts}, true
}

func streamRead(i int) op {
	if i%4 != 1 {
		return op{kind: opStreamQuery, method: "POST", path: "/v1/hull2d",
			body: []byte(`{"dataset":"` + streamName + `"}`)}
	}
	return op{kind: opStreamHull, method: "GET", path: "/v1/datasets/" + streamName + "/hull"}
}

// appendPoints is the fresh batch of append number wi: uniform in the
// disk like the registered set, so most land inside the hull.
func appendPoints(salt uint64, wi int) []geom.Point {
	return gen.Disk(mix64(salt^0xadd^uint64(wi)<<8), writeSize)
}

// deleteOrder fixes which registered points the tape deletes, each at
// most once — so every delete is valid in any interleaving of concurrent
// clients. Every vertexEvery-th batch leads with a vertex of the
// initial set's upper-hull peeling layers, in peeling order; the rest are
// the remaining points in a seeded shuffle.
func deleteOrder(initial []geom.Point, salt uint64) []geom.Point {
	sorted := sortedUnique(initial)
	var layers []geom.Point
	const maxLayers = 24
	for l := 0; l < maxLayers && len(layers) < len(sorted)/(vertexEvery*writeSize); l++ {
		up := upperOfSorted(sorted)
		layers = append(layers, up...)
		sorted = without(sorted, up)
	}
	rest := append([]geom.Point(nil), sorted...)
	rng.Shuffle(rng.New(salt^0xde1e7e), rest)
	var out []geom.Point
	vertices := 0
	for d := 0; len(rest) > 0; d++ {
		take := writeSize
		if d%vertexEvery == 0 && vertices < len(layers) {
			out = append(out, layers[vertices])
			vertices++
			take--
		}
		if take > len(rest) {
			take = len(rest)
		}
		out = append(out, rest[:take]...)
		rest = rest[take:]
	}
	return out
}

// facetBounds brackets the facet count a correct 3-d answer may report.
// The served count is the number of distinct upper faces the points'
// caps use, and which face a hull vertex picks depends on the insertion
// order (the query seed). Every non-vertex point lies strictly inside the
// xy-shadow of exactly one upper face, so the faces those points use are
// a lower bound; all upper faces plus the degenerate top cap are an upper
// bound.
func facetBounds(pts []geom.Point3) (int, int, error) {
	h, err := hull3d.Incremental(rng.New(1), pts)
	if err != nil {
		return 0, 0, fmt.Errorf("3-d reference hull: %w", err)
	}
	upper := h.UpperFaces()
	isVertex := map[int]bool{}
	for _, v := range h.Vertices() {
		isVertex[v] = true
	}
	used := map[int]bool{}
	for i, p := range h.Pts {
		if isVertex[i] {
			continue
		}
		if f := hull3d.FaceAbove(h.Pts, upper, p.X, p.Y); f >= 0 {
			used[f] = true
		}
	}
	return len(used), len(upper) + 1, nil
}

// upperOfSorted is the monotone-chain upper hull of lexicographically
// sorted, duplicate-free points, with the vertical-end collapse — the
// same scan and pop rule as hull2d.UpperHull without its sort, so the
// stream oracle can rebuild a 65 536-point hull from scratch per version
// without re-sorting (servebench_test.go pins it to hull2d.UpperHull).
func upperOfSorted(s []geom.Point) []geom.Point {
	if len(s) <= 1 {
		return append([]geom.Point(nil), s...)
	}
	var h []geom.Point
	for _, p := range s {
		for len(h) >= 2 && geom.Orientation(h[len(h)-2], h[len(h)-1], p) >= 0 {
			h = h[:len(h)-1]
		}
		h = append(h, p)
	}
	for len(h) >= 2 && h[0].X == h[1].X {
		if h[0].Y < h[1].Y {
			h = h[1:]
		} else {
			h = append(h[:1], h[2:]...)
		}
	}
	for len(h) >= 2 && h[len(h)-1].X == h[len(h)-2].X {
		if h[len(h)-1].Y < h[len(h)-2].Y {
			h = h[:len(h)-1]
		} else {
			h = append(h[:len(h)-2], h[len(h)-1])
		}
	}
	return h
}

func sortedUnique(pts []geom.Point) []geom.Point {
	s := append([]geom.Point(nil), pts...)
	sort.Slice(s, func(i, j int) bool { return geom.LexLess(s[i], s[j]) })
	out := s[:0]
	for i, p := range s {
		if i == 0 || p != s[i-1] {
			out = append(out, p)
		}
	}
	return out
}

// without returns the sorted slice s minus the members of drop.
func without(s, drop []geom.Point) []geom.Point {
	gone := make(map[geom.Point]bool, len(drop))
	for _, p := range drop {
		gone[p] = true
	}
	out := s[:0:0]
	for _, p := range s {
		if !gone[p] {
			out = append(out, p)
		}
	}
	return out
}

func coords2(pts []geom.Point) [][]float64 {
	out := make([][]float64, len(pts))
	for i, p := range pts {
		out[i] = []float64{p.X, p.Y}
	}
	return out
}

func coords3(pts []geom.Point3) [][]float64 {
	out := make([][]float64, len(pts))
	for i, p := range pts {
		out[i] = []float64{p.X, p.Y, p.Z}
	}
	return out
}

// chainField is the `"chain":[…],` fragment of a 2-d answer whose chain
// is c, byte for byte as the server's encoding/json writes it (Go formats
// a float64 as the shortest string that round-trips, so equal bytes mean
// bit-identical coordinates).
func chainField(c []geom.Point) []byte {
	b := append([]byte(`"chain":`), mustJSON(coords2(c))...)
	return append(b, ',')
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only finite coordinates and plain maps are encoded here
	}
	return b
}
