package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"inplacehull/internal/geom"
	"inplacehull/internal/hull2d"
	"inplacehull/internal/stream"
	"inplacehull/internal/workload"
)

// referenceHullQuery is the reflective decode of a hull request body the
// wire codec must agree with: json.Decoder into httpQuery, the algorithm
// check, then the per-point arity loop.
func referenceHullQuery(body []byte, dim int) (Query, int, error) {
	var hq httpQuery
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&hq); err != nil {
		return Query{}, 0, errors.New("bad JSON: " + err.Error())
	}
	q := Query{Dataset: hq.Dataset, Seed: hq.Seed, NoCache: hq.NoCache,
		RequireExact: hq.RequireExact, ApproxEps: hq.ApproxEps, Shards: hq.Shards,
		Backend: hq.Backend, Cull: hq.Cull}
	switch hq.Algorithm {
	case "", "hull2d":
		q.Algo = AlgoHull2D
	case "presorted":
		q.Algo = AlgoPresorted
	case "logstar":
		q.Algo = AlgoLogStar
	default:
		return Query{}, 0, errors.New("unknown algorithm " + hq.Algorithm)
	}
	for i, c := range hq.Points {
		if len(c) != dim {
			return Query{}, 0, fmt.Errorf("point %d has %d coordinates, want %d", i, len(c), dim)
		}
		if dim == 3 {
			q.Points3 = append(q.Points3, geom.Point3{X: c[0], Y: c[1], Z: c[2]})
		} else {
			q.Points2 = append(q.Points2, geom.Point{X: c[0], Y: c[1]})
		}
	}
	return q, hq.DeadlineMS, nil
}

// referencePoints is the reflective decode of a stream body: want is the
// dataset's dimension, or 0 for registration.
func referencePoints(body []byte, want int) ([]geom.Point, []geom.Point3, int, error) {
	var hp httpPoints
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&hp); err != nil {
		return nil, nil, 0, errors.New("bad JSON: " + err.Error())
	}
	dim := want
	if dim == 0 {
		dim = hp.Dim
		if dim == 0 {
			dim = 2
			if len(hp.Points) > 0 {
				dim = len(hp.Points[0])
			}
		}
		if dim != 2 && dim != 3 {
			return nil, nil, 0, errors.New("dim must be 2 or 3")
		}
	}
	var p2 []geom.Point
	var p3 []geom.Point3
	for i, c := range hp.Points {
		if len(c) != dim {
			return nil, nil, 0, fmt.Errorf("point %d has %d coordinates, want %d", i, len(c), dim)
		}
		if dim == 3 {
			p3 = append(p3, geom.Point3{X: c[0], Y: c[1], Z: c[2]})
		} else {
			p2 = append(p2, geom.Point{X: c[0], Y: c[1]})
		}
	}
	return p2, p3, dim, nil
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// diffPoints reports the first difference between two point lists,
// comparing coordinates bit for bit (so -0 and subnormals count).
func diffPoints(p2, r2 []geom.Point, p3, r3 []geom.Point3) string {
	bits := math.Float64bits
	if (p2 == nil) != (r2 == nil) || len(p2) != len(r2) || (p3 == nil) != (r3 == nil) || len(p3) != len(r3) {
		return fmt.Sprintf("point counts %d/%d (2-d), %d/%d (3-d)", len(p2), len(r2), len(p3), len(r3))
	}
	for i := range p2 {
		if bits(p2[i].X) != bits(r2[i].X) || bits(p2[i].Y) != bits(r2[i].Y) {
			return fmt.Sprintf("point %d: %v, want %v", i, p2[i], r2[i])
		}
	}
	for i := range p3 {
		a, b := p3[i], r3[i]
		if bits(a.X) != bits(b.X) || bits(a.Y) != bits(b.Y) || bits(a.Z) != bits(b.Z) {
			return fmt.Sprintf("point %d: %v, want %v", i, a, b)
		}
	}
	return ""
}

// diffQuery reports the first field on which two decoded queries differ.
func diffQuery(q, r Query) string {
	if d := diffPoints(q.Points2, r.Points2, q.Points3, r.Points3); d != "" {
		return d
	}
	type scalars struct {
		Dataset, Backend, Cull string
		Algo                   Algo
		Seed, ApproxEps        uint64
		NoCache, RequireExact  bool
		Shards                 int
	}
	of := func(q Query) scalars {
		return scalars{q.Dataset, q.Backend, q.Cull, q.Algo, q.Seed, math.Float64bits(q.ApproxEps),
			q.NoCache, q.RequireExact, q.Shards}
	}
	if a, b := of(q), of(r); a != b {
		return fmt.Sprintf("%+v, want %+v", a, b)
	}
	return ""
}

// wireBody renders a points body the way the serving benchmark does:
// encoding/json of the coordinates, then extra fields.
func wireBody(coords [][]float64, extra string) []byte {
	b, err := json.Marshal(coords)
	if err != nil {
		panic(err)
	}
	return []byte(`{"points":` + string(b) + extra + `}`)
}

// wireSeeds are the FuzzHTTPQuery corpus seeds: the benchmark's body
// shapes, then every corner of the fast subset's boundary.
func wireSeeds() []string {
	seeds := []string{
		string(wireBody(coords2(workload.Disk(1, 8)), `,"seed":1234567890123`)),
		string(wireBody(coords2(workload.Circle(2, 8)), `,"seed":7,"shards":2`)),
		string(wireBody(coords3(workload.Ball(3, 6)), `,"seed":9`)),
		`{"dataset":"disk-65536-stream"}`,
		`{"points":[[0,0],[1,3],[2,1],[3,4],[4,0]],"seed":7}`,
		`{"points":[[0,0,0],[1,0,1],[0,1,2],[1,1,1],[0.5,0.5,3]]}`,
		`{"points":[[0,0]],"algorithm":"presorted","no_cache":true,"require_exact":false,` +
			`"approx_eps":0.01,"backend":"native","cull":"off","shards":-1,"deadline_ms":50}`,
		`{"algorithm":"logstar"}`, `{"algorithm":"quickhull","points":[[1,2,3]]}`,
		`{"Points":[[1,2]]}`, `{"SEED":3}`, `{"dataset":"abc"}`, `{"dataset":"a\"b"}`,
		`{"dataset":"caf` + "\xc3\xa9" + `"}`, `{"dataset":"bad` + "\xff" + `"}`, `{"x":1}`,
		`{"points":[[1e400,0]]}`, `{"points":[[-1e400,0]]}`, `{"points":[[1e-400,0]]}`,
		`{"points":[[01,2]]}`, `{"points":[[+1,2]]}`, `{"points":[[NaN,1]]}`,
		`{"points":[[Infinity,1]]}`, `{"points":[[-Infinity,1]]}`, `{"points":[[0x1p-2,1]]}`,
		`{"points":[[1_0,1]]}`, `{"points":[[1.,2]]}`, `{"points":[[.5,2]]}`, `{"points":[[1e,2]]}`,
		`{"points":[[1,2,3]]}`, `{"points":[[1]]}`, `{"points":[[]]}`, `{"points":[]}`,
		`{"points":[[-0,0.0],[5e-324,-5e-324],[2.2250738585072011e-308,1.7976931348623157e308]]}`,
		`{"points":[[1,2]]}garbage`, `{"points":[[1,2]]} {"points":[[3,4]]}`, `{"points":[[1,2]]`,
		` {"points" : [ [ 1 , 2 ] , [3,4] ] , "seed" : 1 } `, "{\t\"points\":\n[[1,\r2]]}",
		`null`, `{"points":null}`, `{"seed":null}`, ``, `[]`, `{}`, `"x"`, `{"points":{}}`,
		`{"seed":-1}`, `{"seed":1.5}`, `{"seed":18446744073709551616}`, `{"deadline_ms":1e3}`,
		`{"shards":9223372036854775808}`, `{"no_cache":1}`, `{"no_cache":truex}`,
		`{"points":[[1,2]],"points":[[3,4]]}`, `{"seed":1,"seed":2}`, `{"points":[[1,2,3]],"points":[[1,2]]}`,
		`{"points":[[1,2,3]],"dim":2,"points":[[1,2]]}`, `{"dim":3,"dim":0,"points":[[1,2]]}`,
		`{"points":[[1,2,3]],"dim":3}`, `{"dim":3,"points":[[1,2,3]]}`, `{"dim":3,"points":[]}`,
		`{"points":[[1,2]],"dim":3}`, `{"dim":4}`, `{"dim":-2,"points":[[1,2]]}`,
		`{"points":[[1,2,3,4]]}`, `{"points":[[1,2],[1,2,3]]}`, `{"dim":2.5}`,
	}
	return append(seeds, handoffSeeds()...)
}

// handoffSeeds are bodies that change shape at their eighth point:
// whitespace, a mantissa past 19 digits, an out-of-range number or a
// wrong arity hand it from the fused loop to the general one in the
// middle of the array, and exponents and 20-digit zero tails stay in the
// fused loop. A cut can fall before, on or after that point.
func handoffSeeds() []string {
	var seeds []string
	for _, odd := range []string{"[ 0.25,0.5]", "[0.25,0.5] ", "[0.25,\n0.5]", "[2.5e-1,0.5]",
		"[0.25,5E-1]", "[0.12345678901234567891,0.5]", "[0.12345678901234567890,0.5]",
		"[12345678901234567891234,-0.5]", "[-0,0.5]", "[1e400,0]", "[0.5]", "[0.5,0.25,1,2]"} {
		for dim, pts := range map[int][][]float64{2: coords2(workload.Disk(7, 12)), 3: coords3(workload.Ball(8, 12))} {
			elems := make([]string, len(pts))
			for i, p := range pts {
				b, _ := json.Marshal(p)
				elems[i] = string(b)
			}
			elems[7] = odd
			if dim == 3 {
				elems[7] = strings.Replace(odd, "]", ",0.75]", 1)
			}
			seeds = append(seeds, `{"points":[`+strings.Join(elems, ",")+`],"seed":5}`)
		}
	}
	return seeds
}

// FuzzHTTPQuery differentially checks the wire decoders against the
// reflective references: accept/reject, error message, and every decoded
// field bit for bit, for the hull bodies (dim 2 and 3) and the stream
// bodies (registration and mutation).
func FuzzHTTPQuery(f *testing.F) {
	for _, s := range wireSeeds() {
		f.Add([]byte(s), uint8(2), uint16(len(s)/2))
		f.Add([]byte(s), uint8(3), uint16(len(s)/3))
	}
	f.Fuzz(func(t *testing.T, body []byte, d uint8, cut uint16) {
		dim := 2 + int(d%2)
		q, dl, err := decodeHullQuery(body, dim)
		rq, rdl, rerr := referenceHullQuery(body, dim)
		if !sameErr(err, rerr) {
			t.Fatalf("hull%dd %q: error %v, reference %v", dim, body, err, rerr)
		}
		if err == nil {
			if d := diffQuery(q, rq); d != "" || dl != rdl {
				t.Fatalf("hull%dd %q: %s (deadline_ms %d, want %d)", dim, body, d, dl, rdl)
			}
		}
		for _, want := range []int{0, dim} {
			p2, p3, pd, err := decodePoints(body, want)
			r2, r3, rd, rerr := referencePoints(body, want)
			if !sameErr(err, rerr) {
				t.Fatalf("stream dim %d %q: error %v, reference %v", want, body, err, rerr)
			}
			if err == nil {
				if d := diffPoints(p2, r2, p3, r3); d != "" || pd != rd {
					t.Fatalf("stream dim %d %q: %s (dim %d, want %d)", want, body, d, pd, rd)
				}
			}
		}
		checkTwoPart(t, body, dim, 1+int(cut)%(len(body)+1))
	})
}

// checkTwoPart fails unless the two-part scan, cut at the first '[' from
// offset from on, gives the one-part scan's verdict and values bit for
// bit, on the hull body at dim and the stream body at want 0 and dim.
// FuzzHTTPQuery holds the one-part results to encoding/json's, so the
// two-part ones are held to them too. The forked side may see any bytes:
// a cut can land outside the points array, or in a string after it.
func checkTwoPart(t *testing.T, body []byte, dim, from int) {
	t.Helper()
	var hq, hq2 httpQuery
	var q, q2 Query
	one := scanner{b: body, from: -1}
	two := scanner{b: body, from: from}
	ok, ok2 := one.hullQuery(dim, &hq, &q), two.hullQuery(dim, &hq2, &q2)
	if ok != ok2 || ok && (!reflect.DeepEqual(hq, hq2) || diffQuery(q2, q) != "") {
		t.Fatalf("hull%dd %q cut from %d: accepted %v (%s), one-part %v", dim, body, from, ok2, diffQuery(q2, q), ok)
	}
	for _, want := range []int{0, dim} {
		one, two := scanner{b: body, from: -1}, scanner{b: body, from: from}
		p2, p3, pd, ok := one.pointsBody(want)
		r2, r3, rd, ok2 := two.pointsBody(want)
		if ok != ok2 || ok && (pd != rd || diffPoints(r2, p2, r3, p3) != "") {
			t.Fatalf("stream dim %d %q cut from %d: accepted %v (%s, dim %d), one-part %v (dim %d)",
				want, body, from, ok2, diffPoints(r2, p2, r3, p3), rd, ok, pd)
		}
	}
}

// TestWireSplitEveryCut runs the two-part scan of every corpus seed at
// every cut offset; under go test -cpu 1,2 the second part runs both
// inline and forked.
func TestWireSplitEveryCut(t *testing.T) {
	for _, body := range wireSeeds() {
		for from := 1; from <= len(body); from++ {
			checkTwoPart(t, []byte(body), 2, from)
			checkTwoPart(t, []byte(body), 3, from)
		}
	}
}

// TestWireFastPathCovers: the bodies clients send in practice take the
// single-pass path, not the encoding/json fallback.
func TestWireFastPathCovers(t *testing.T) {
	for _, body := range []string{
		string(wireBody(coords2(workload.Disk(1, 64)), `,"seed":1234567890123`)),
		string(wireBody(coords2(workload.Circle(2, 64)), `,"seed":7,"shards":2`)),
		`{"dataset":"disk-65536-stream"}`,
		`{"points":[[0,0]],"algorithm":"presorted","no_cache":true,"require_exact":false,` +
			`"approx_eps":0.01,"backend":"native","cull":"off","shards":-1,"deadline_ms":50}`,
	} {
		var hq httpQuery
		var q Query
		if !scanHullQuery([]byte(body), 2, &hq, &q) {
			t.Errorf("hull2d body fell back: %.80s", body)
		}
	}
	var hq httpQuery
	var q Query
	if !scanHullQuery(wireBody(coords3(workload.Ball(3, 64)), `,"seed":9`), 3, &hq, &q) {
		t.Error("hull3d body fell back")
	}
	for _, c := range []struct {
		body string
		want int
	}{
		{string(wireBody(coords2(workload.Disk(4, 64)), "")), 0},
		{string(wireBody(coords3(workload.Ball(5, 64)), "")), 0},
		{string(wireBody(coords2(workload.Disk(6, 16)), "")), 2},
		{`{"points":[],"dim":3}`, 0},
	} {
		if _, _, _, ok := scanPoints([]byte(c.body), c.want); !ok {
			t.Errorf("stream body (dim %d) fell back: %.80s", c.want, c.body)
		}
	}
	// The served workloads' bodies take the fused loop for every point.
	for _, c := range []struct {
		dim int
		pts [][]float64
	}{{2, coords2(workload.Disk(1, 4096))}, {3, coords3(workload.Ball(2, 2048))}} {
		arr, err := json.Marshal(c.pts)
		if err != nil {
			t.Fatal(err)
		}
		s := scanner{b: arr, i: 1}
		pb := makePointBuf(c.dim, len(c.pts))
		if !s.fused(c.dim, &pb, -1) || pb.len() != len(c.pts) || s.i != len(arr) {
			t.Errorf("%d-d body of %d points: the fused loop took %d points, stopping at byte %d of %d",
				c.dim, len(c.pts), pb.len(), s.i, len(arr))
		}
	}
}

// TestChainEncodingMatchesJSON: the append encoder writes a chain byte
// for byte as encoding/json writes the [][]float64 it replaces, across
// the 'f'/'e' switch points and the extremes of float64.
func TestChainEncodingMatchesJSON(t *testing.T) {
	circle := workload.Circle(11, 4096)
	cases := map[string][]geom.Point{
		"cutoffs": {{X: 1e-7, Y: 1e-6}, {X: 9.999999999999999e-7, Y: -1e-7}, {X: 1e20, Y: 1e21},
			{X: 9.999999999999999e20, Y: -1e21}, {X: 1.5e-10, Y: 1e-100}},
		"zeros":    {{X: 0, Y: math.Copysign(0, -1)}},
		"extremes": {{X: math.SmallestNonzeroFloat64, Y: -math.SmallestNonzeroFloat64}, {X: math.MaxFloat64, Y: -math.MaxFloat64}},
		"integers": {{X: 1, Y: -2}, {X: 123456789, Y: 1 << 53}, {X: 1e15, Y: 1e16}},
		"circle":   circle,
		"hull":     hull2d.UpperHull(circle),
	}
	for name, pts := range cases {
		want, err := json.Marshal(coords2(pts))
		if err != nil {
			t.Fatal(err)
		}
		if got := appendCoords2(nil, pts); !bytes.Equal(got, want) {
			t.Errorf("%s: encoded chain differs\n got %.200s\nwant %.200s", name, got, want)
		}
	}
}

// TestHullResultBytes: writeHullResult's whole answer — status, content
// type and body — equals writeJSON of the httpResult with Chain built the
// reflective way.
func TestHullResultBytes(t *testing.T) {
	chain := hull2d.UpperHull(workload.Circle(12, 4096))
	base := httpResult{N: 4096, HullSize: len(chain), Tier: "randomized", Backend: "native",
		Attempts: 1, Elapsed: 812, Shards: 2, MissingShards: []int{1}, Culled: 3,
		RequestID: `hull-<&>"id`}
	for name, c := range map[string][]geom.Point{"chain": chain, "empty": nil, "one": chain[:1]} {
		for _, status := range []int{http.StatusOK, http.StatusPartialContent} {
			out := base
			out.HullSize = len(c)
			got := httptest.NewRecorder()
			writeHullResult(got, status, out, c)
			if len(c) > 0 {
				out.Chain = coords2(c)
			}
			want := httptest.NewRecorder()
			writeJSON(want, status, out)
			if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
				t.Errorf("%s/%d: status %d %q, want %d %q", name, status, got.Code,
					got.Header().Get("Content-Type"), want.Code, want.Header().Get("Content-Type"))
			}
			if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
				t.Errorf("%s/%d: body differs\n got %.300s\nwant %.300s", name, status, got.Body.Bytes(), want.Body.Bytes())
			}
		}
	}
}

// TestWireErrorsHTTP: bodies outside the fast subset keep their answers
// and messages through the fallback, end to end.
func TestWireErrorsHTTP(t *testing.T) {
	s := small(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, c := range []struct {
		path, body string
		code       int
		msg        string
	}{
		{"/v1/hull2d", ``, 400, "bad JSON: EOF"},
		{"/v1/hull2d", `{"points":[[1,2,3]]}`, 400, "point 0 has 3 coordinates, want 2"},
		{"/v1/hull3d", `{"points":[[1,2,3],[4,5]]}`, 400, "point 1 has 2 coordinates, want 3"},
		{"/v1/hull2d", `{"points":[[1,2]],"algorithm":"quickhull"}`, 400, "unknown algorithm quickhull"},
		{"/v1/hull2d", `{"points":[[1e400,2]]}`, 400,
			"bad JSON: json: cannot unmarshal number 1e400 into Go struct field httpQuery.points of type float64"},
		{"/v1/hull2d", `{"POINTS":[[0,0],[1,1]]} trailing`, 200, ""},
	} {
		resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var e httpError
		_ = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != c.code || e.Error != c.msg {
			t.Errorf("%s %q: %d %q, want %d %q", c.path, c.body, resp.StatusCode, e.Error, c.code, c.msg)
		}
	}
}

// TestBodyCap: a body over maxBodyBytes is refused 413 with a typed
// invalid-input error carrying the request ID, on the hull, stream and
// scatter endpoints, whether its length is declared or not; a body of
// exactly maxBodyBytes is served.
func TestBodyCap(t *testing.T) {
	h := small(t, Config{Streams: stream.NewStore(stream.Config{})}).Handler()
	do := func(method, path string, body []byte, declared bool) (int, httpError) {
		t.Helper()
		var r io.Reader = bytes.NewReader(body)
		if !declared {
			r = io.MultiReader(r) // httptest leaves the length unknown (-1)
		}
		req := httptest.NewRequest(method, path, r)
		req.Header.Set("X-Request-ID", "cap-test")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		var e httpError
		_ = json.Unmarshal(rec.Body.Bytes(), &e)
		return rec.Code, e
	}
	// Leading whitespace pads a small body to an exact size.
	padded := func(n int) []byte {
		obj := `{"points":[[0,0],[1,2],[2,0]]}`
		return append(bytes.Repeat([]byte{' '}, n-len(obj)), obj...)
	}
	fits, big := padded(maxBodyBytes), padded(maxBodyBytes+1)

	if code, e := do("PUT", "/v1/datasets/live", fits, true); code != http.StatusOK {
		t.Fatalf("register at the cap: %d %+v", code, e)
	}
	for _, ep := range []struct{ method, path string }{
		{"POST", "/v1/hull2d"}, {"PUT", "/v1/datasets/big"}, {"POST", "/v1/datasets/live/append"},
		{"POST", "/v1/scatter2d"},
	} {
		for _, declared := range []bool{true, false} {
			if code, e := do(ep.method, ep.path, fits, declared); code != http.StatusOK {
				t.Errorf("%s %s (length declared %v) at the cap: %d %+v", ep.method, ep.path, declared, code, e)
			}
			code, e := do(ep.method, ep.path, big, declared)
			if code != http.StatusRequestEntityTooLarge || e.Kind != "invalid input" || e.RequestID != "cap-test" ||
				e.Error != "request body exceeds "+strconv.Itoa(maxBodyBytes)+" bytes" {
				t.Errorf("%s %s (length declared %v) over the cap: %d %+v", ep.method, ep.path, declared, code, e)
			}
		}
	}
}

// TestWireConcurrent: concurrent requests share the pooled body and
// response buffers without seeing each other's bytes (run under -race).
func TestWireConcurrent(t *testing.T) {
	h := small(t, Config{}).Handler()
	const clients, rounds = 4, 8
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				pts := workload.Circle(uint64(c*rounds+r), 64+16*c)
				chain, _ := json.Marshal(coords2(hull2d.UpperHull(pts)))
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/hull2d",
					bytes.NewReader(wireBody(coords2(pts), `,"no_cache":true`))))
				if rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), append([]byte(`"chain":`), chain...)) {
					t.Errorf("client %d round %d: %d %.200s", c, r, rec.Code, rec.Body.Bytes())
				}
			}
		}(c)
	}
	wg.Wait()
}

// discardWriter is a ResponseWriter that drops the body, for the encoder
// benchmarks.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardWriter) WriteHeader(int)             {}

var sinkQuery Query

// benchDecode runs the wire decoder against the reflective reference on
// one body.
func benchDecode(b *testing.B, body []byte, wire, reflect func([]byte) Query) {
	for _, c := range []struct {
		name string
		fn   func([]byte) Query
	}{{"wire", wire}, {"reflect", reflect}} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkQuery = c.fn(body)
			}
		})
	}
}

func hullDecoder(dim int, decode func([]byte, int) (Query, int, error)) func([]byte) Query {
	return func(body []byte) Query {
		q, _, err := decode(body, dim)
		if err != nil {
			panic(err)
		}
		return q
	}
}

func pointsDecoder(decode func([]byte, int) ([]geom.Point, []geom.Point3, int, error)) func([]byte) Query {
	return func(body []byte) Query {
		p2, p3, _, err := decode(body, 0)
		if err != nil {
			panic(err)
		}
		return Query{Points2: p2, Points3: p3}
	}
}

// BenchmarkDecodeHull2D: a 4096-point disk body, as miss2d-interior sends.
func BenchmarkDecodeHull2D(b *testing.B) {
	body := wireBody(coords2(workload.Disk(1, 4096)), `,"seed":1234567890123`)
	benchDecode(b, body, hullDecoder(2, decodeHullQuery), hullDecoder(2, referenceHullQuery))
}

// BenchmarkDecodeHull3D: a 2048-point ball body, as miss3d-ball sends.
func BenchmarkDecodeHull3D(b *testing.B) {
	body := wireBody(coords3(workload.Ball(2, 2048)), `,"seed":1234567890123`)
	benchDecode(b, body, hullDecoder(3, decodeHullQuery), hullDecoder(3, referenceHullQuery))
}

// BenchmarkDecodeStreamPUT: registration of a 65 536-point disk.
func BenchmarkDecodeStreamPUT(b *testing.B) {
	body := wireBody(coords2(workload.Disk(3, 65536)), "")
	benchDecode(b, body, pointsDecoder(decodePoints), pointsDecoder(referencePoints))
}

// BenchmarkDecodeSplit prices the two-part scan of a disk body's points
// against the one-part scan, at sizes around splitBytes: the crossover
// behind it. Run it at -cpu 1,2; with one processor the forked side waits
// for the caller's.
func BenchmarkDecodeSplit(b *testing.B) {
	for _, n := range []int{512, 1024, 1280, 1536, 2048, 4096} {
		body := wireBody(coords2(workload.Disk(1, n)), "")
		for _, c := range []struct {
			name string
			from int
		}{{"one", -1}, {"two", len(body) / 2}} {
			b.Run(fmt.Sprintf("%dKB/%s", len(body)>>10, c.name), func(b *testing.B) {
				b.SetBytes(int64(len(body)))
				for range b.N {
					s := scanner{b: body, from: c.from}
					if _, _, _, ok := s.pointsBody(2); !ok {
						b.Fatal("body fell back")
					}
				}
			})
		}
	}
}

// BenchmarkEncodeChain: the answer to a 4096-point circle query (its
// upper hull, about half the points) through writeHullResult, against
// building the [][]float64 and writeJSON.
func BenchmarkEncodeChain(b *testing.B) {
	chain := hull2d.UpperHull(workload.Circle(4, 4096))
	out := httpResult{N: 4096, HullSize: len(chain), Tier: "randomized", Backend: "native",
		Attempts: 1, Elapsed: 812, RequestID: "hull-18f2a-1"}
	w := &discardWriter{h: http.Header{}}
	b.Run("wire", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			writeHullResult(w, http.StatusOK, out, chain)
		}
	})
	b.Run("reflect", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			o := out
			o.Chain = coords2(chain)
			writeJSON(w, http.StatusOK, o)
		}
	})
}
