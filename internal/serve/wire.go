package serve

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"

	"inplacehull/internal/fork"
	"inplacehull/internal/geom"
)

// The wire codec of the point-carrying bodies (POST /v1/hull2d|3d, PUT
// /v1/datasets/{name}, POST …/append|/delete) and of the 2-d chain in
// hull answers. A request body is read once into a pooled buffer; a
// single-pass scanner then parses the common shape — exact-case known
// keys, plain strings, JSON numbers (converted as they are scanned,
// atof.go), points of the right arity — straight into pre-sized geom
// slices. Anything else (escapes, other key casing, null, unknown keys,
// out-of-range numbers, malformed input, anything that would be
// rejected) is decoded again from the same bytes by encoding/json, which
// stays the definition of the accept set and of every error message. The scanner only ever answers "accepted, with
// these values" or "not mine"; FuzzHTTPQuery checks it against the
// reflective decoder. Points in the shape clients send go through a
// fused loop, and the points array of a large body is scanned in two
// parts, the second on the fork pool (DESIGN §8.1).

// maxBodyBytes caps the request body of the hull and stream endpoints:
// 8 MiB, 128 bytes per point of a 65 536-point 3-d PUT (17-digit
// coordinates take about 65).
const maxBodyBytes = 8 << 20

// maxPooledBuf bounds the buffers bufPool keeps: a rare multi-megabyte
// dataset upload is not worth pinning.
const maxPooledBuf = 1 << 20

var bufPool sync.Pool // of *[]byte

func getBuf(n int) *[]byte {
	bp, _ := bufPool.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	if cap(*bp) < n {
		*bp = make([]byte, 0, n)
	}
	*bp = (*bp)[:0]
	return bp
}

func putBuf(bp *[]byte) {
	if cap(*bp) <= maxPooledBuf {
		bufPool.Put(bp)
	}
}

// readBody reads the whole request body, at most maxBodyBytes, into a
// pooled buffer sized from Content-Length. A larger body fails with
// *http.MaxBytesError, before any of it is read when its length is
// declared. The caller hands the buffer back with putBuf once nothing
// references its bytes.
func readBody(w http.ResponseWriter, req *http.Request) (*[]byte, error) {
	if req.ContentLength > maxBodyBytes {
		return nil, &http.MaxBytesError{Limit: maxBodyBytes}
	}
	// One spare byte, so the Read that reports EOF needs no growth.
	bp := getBuf(int(req.ContentLength) + 1)
	b := *bp
	r := http.MaxBytesReader(w, req.Body, maxBodyBytes)
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			*bp = b
			putBuf(bp)
			return nil, err
		}
	}
	*bp = b
	return bp, nil
}

// writeBodyErr answers a body that could not be read: 413 for one over
// the cap, 400 for a broken transfer.
func writeBodyErr(w http.ResponseWriter, req *http.Request, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, req, http.StatusRequestEntityTooLarge, "invalid input",
			fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
		return
	}
	writeBadRequest(w, req, "bad JSON: "+err.Error())
}

// decodeHullQuery decodes a POST /v1/hull2d|3d body for dimension dim
// into a Query and its deadline_ms. A non-nil error is the message of
// the 400 answer.
func decodeHullQuery(body []byte, dim int) (Query, int, error) {
	var hq httpQuery
	var q Query
	fast := scanHullQuery(body, dim, &hq, &q)
	if !fast {
		hq, q = httpQuery{}, Query{}
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&hq); err != nil {
			return q, 0, errors.New("bad JSON: " + err.Error())
		}
	}
	q.Dataset, q.Seed, q.NoCache = hq.Dataset, hq.Seed, hq.NoCache
	q.RequireExact, q.ApproxEps, q.Shards = hq.RequireExact, hq.ApproxEps, hq.Shards
	q.Backend, q.Cull = hq.Backend, hq.Cull
	switch hq.Algorithm {
	case "", "hull2d":
		q.Algo = AlgoHull2D
	case "presorted":
		q.Algo = AlgoPresorted
	case "logstar":
		q.Algo = AlgoLogStar
	default:
		return q, 0, errors.New("unknown algorithm " + hq.Algorithm)
	}
	if !fast {
		var err error
		if q.Points2, q.Points3, err = parseCoords(hq.Points, dim); err != nil {
			return q, 0, err
		}
	}
	return q, hq.DeadlineMS, nil
}

// decodePoints decodes a stream body ({"points":[…],"dim":d}) into points
// of dimension want, or — want 0, registration — of the body's "dim",
// else the first point's arity, else 2. It returns the dimension used. A
// non-nil error is the message of the 400 answer.
func decodePoints(body []byte, want int) ([]geom.Point, []geom.Point3, int, error) {
	if p2, p3, dim, ok := scanPoints(body, want); ok {
		return p2, p3, dim, nil
	}
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
	p2, p3, err := parseCoords(hp.Points, dim)
	return p2, p3, dim, err
}

// scanHullQuery is the single-pass path of decodeHullQuery: on success
// the scalar fields are in hq and the points in q.
func scanHullQuery(body []byte, dim int, hq *httpQuery, q *Query) bool {
	s := scanner{b: body}
	return s.hullQuery(dim, hq, q)
}

func (s *scanner) hullQuery(dim int, hq *httpQuery, q *Query) bool {
	// A repeated key overwrites, as encoding/json's last one wins.
	return s.object(func(key []byte) bool {
		ok := false
		switch string(key) {
		case "points":
			q.Points2, q.Points3, ok = s.points(dim)
		case "dataset":
			hq.Dataset, ok = s.str()
		case "algorithm":
			hq.Algorithm, ok = s.str()
		case "seed":
			hq.Seed, ok = s.uint()
		case "deadline_ms":
			hq.DeadlineMS, ok = s.int()
		case "no_cache":
			hq.NoCache, ok = s.bool()
		case "require_exact":
			hq.RequireExact, ok = s.bool()
		case "approx_eps":
			hq.ApproxEps, ok = s.float()
		case "shards":
			hq.Shards, ok = s.int()
		case "backend":
			hq.Backend, ok = s.str()
		case "cull":
			hq.Cull, ok = s.str()
		}
		return ok
	})
}

// scanPoints is the single-pass path of decodePoints. It succeeds only
// when encoding/json would decode the body and every point has the
// arity the dimension rule picks. Repeated keys overwrite, as with
// encoding/json; the final check sees the last "dim".
func scanPoints(body []byte, want int) ([]geom.Point, []geom.Point3, int, bool) {
	s := scanner{b: body}
	return s.pointsBody(want)
}

func (s *scanner) pointsBody(want int) ([]geom.Point, []geom.Point3, int, bool) {
	var p2 []geom.Point
	var p3 []geom.Point3
	dimField, arity := 0, 0
	ok := s.object(func(key []byte) bool {
		ok := false
		switch string(key) {
		case "points":
			// An empty array parses at any arity.
			arity = cmp.Or(want, dimField, s.peekArity(), 2)
			if arity != 2 && arity != 3 {
				return false
			}
			p2, p3, ok = s.points(arity)
		case "dim":
			dimField, ok = s.int()
		}
		return ok
	})
	if !ok {
		return nil, nil, 0, false
	}
	if want != 0 {
		return p2, p3, want, true
	}
	dim := dimField
	if dim == 0 {
		dim = 2
		if len(p2)+len(p3) > 0 {
			dim = arity
		}
	}
	if dim != 2 && dim != 3 || len(p2)+len(p3) > 0 && dim != arity {
		return nil, nil, 0, false
	}
	return p2, p3, dim, true
}

// scanner walks a JSON body for the fast paths. Every method reports
// false for input outside the fast subset, which sends the body to
// encoding/json.
type scanner struct {
	b    []byte
	i    int
	from int         // where cutFor looks for a cut: 0 picks by body size, -1 never cuts
	pow  *pow10Table // loaded on the first number that needs it
}

func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// eat consumes c, after optional whitespace.
func (s *scanner) eat(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// object scans one top-level object, calling field with each key once
// the scanner sits before its value; field parses the value. Bytes after
// the closing brace are ignored, as json.Decoder ignores them.
func (s *scanner) object(field func(key []byte) bool) bool {
	if !s.eat('{') {
		return false
	}
	if s.eat('}') {
		return true
	}
	for {
		s.ws()
		key, ok := s.strBytes()
		if !ok || !s.eat(':') || !field(key) {
			return false
		}
		if s.eat('}') {
			return true
		}
		if !s.eat(',') {
			return false
		}
	}
}

// strBytes scans a string without escapes, control characters or
// non-ASCII bytes (so its bytes are its value) and returns its contents.
func (s *scanner) strBytes() ([]byte, bool) {
	if s.i >= len(s.b) || s.b[s.i] != '"' {
		return nil, false
	}
	for j := s.i + 1; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			v := s.b[s.i+1 : j]
			s.i = j + 1
			return v, true
		case c == '\\' || c < 0x20 || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

func (s *scanner) str() (string, bool) {
	s.ws()
	v, ok := s.strBytes()
	return string(v), ok
}

// float, int and uint read a number in one pass (scanner.number). int
// and uint take a plain number of at most 19 digits straight from the
// scan; anything else goes to the strconv call encoding/json makes for
// the Go type, on the same bytes, and is refused where that fails (out
// of range, a fraction for an integer).

func (s *scanner) float() (float64, bool) {
	s.ws()
	t := s.i
	d, ok := s.number()
	if !ok {
		return 0, false
	}
	if f, ok := d.float64(&s.pow); ok {
		return f, true
	}
	f, err := strconv.ParseFloat(string(s.b[t:s.i]), 64)
	return f, err == nil
}

func (s *scanner) int() (int, bool) {
	s.ws()
	t := s.i
	d, ok := s.number()
	if !ok {
		return 0, false
	}
	if d.plain && d.exp == 0 && d.mant <= math.MaxInt {
		n := int(d.mant)
		if d.neg {
			n = -n
		}
		return n, true
	}
	n, err := strconv.ParseInt(string(s.b[t:s.i]), 10, 64)
	return int(n), err == nil && int64(int(n)) == n
}

func (s *scanner) uint() (uint64, bool) {
	s.ws()
	t := s.i
	d, ok := s.number()
	if !ok {
		return 0, false
	}
	if d.plain && d.exp == 0 && !d.neg {
		return d.mant, true
	}
	n, err := strconv.ParseUint(string(s.b[t:s.i]), 10, 64)
	return n, err == nil
}

func (s *scanner) bool() (bool, bool) {
	s.ws()
	switch {
	case bytes.HasPrefix(s.b[s.i:], []byte("true")):
		s.i += 4
		return true, true
	case bytes.HasPrefix(s.b[s.i:], []byte("false")):
		s.i += 5
		return false, true
	}
	return false, false
}

// points scans an array of dim-coordinate points into a slice sized from
// a count of the brackets ahead (bounded by the bytes a point needs, so
// a body of brackets cannot inflate it). An empty array yields nil, as
// the reflective path's appends do. A body over splitBytes is scanned in
// two parts, the second on the fork pool (split).
func (s *scanner) points(dim int) ([]geom.Point, []geom.Point3, bool) {
	if !s.eat('[') {
		return nil, nil, false
	}
	if s.eat(']') {
		return nil, nil, true
	}
	start := s.i
	bound := (len(s.b)-start)/(2*dim) + 1
	cut, head := s.cutFor(start), 0
	var n int
	if cut > start {
		head = bytes.Count(s.b[start:cut], []byte{'['})
		n = min(head+bytes.Count(s.b[cut:], []byte{'['}), bound)
	} else {
		n = min(bytes.Count(s.b[start:], []byte{'['}), bound)
	}
	pb := makePointBuf(dim, n)
	var ok bool
	if cut > start && head < n {
		ok = s.split(dim, &pb, cut, head)
	} else {
		_, ok = s.run(dim, &pb, -1)
	}
	if !ok {
		return nil, nil, false
	}
	return pb.p2, pb.p3, true
}

// splitBytes is the body size above which points scans the second half
// of its array on the fork pool. Below it, the wait for the forked side
// to start (BenchmarkParallel2) costs more than the half-scan it takes
// off the caller: the crossover measured at GOMAXPROCS=2 is in DESIGN
// §8.1. A 4 096-point 2-d body (~170 KB) is over it, a 1 024-point one
// under it.
const splitBytes = 64 << 10

// cutFor returns where points cuts the array that starts at start: the
// first '[' after the body's midpoint, or after s.from when that is set;
// -1 for no cut, when s.from is negative or the body is at most
// splitBytes.
func (s *scanner) cutFor(start int) int {
	from := s.from
	switch {
	case from < 0:
		return -1
	case from == 0:
		if len(s.b) <= splitBytes {
			return -1
		}
		from = len(s.b) / 2
	}
	from = max(from, start+1)
	if from >= len(s.b) {
		return -1
	}
	if j := bytes.IndexByte(s.b[from:], '['); j >= 0 {
		return from + j
	}
	return -1
}

// split scans the array from s.i into pb, the part from cut on on a
// forked side: the caller scans up to cut into pb's first head slots, a
// second scanner from cut to the array's end into the rest. head is the
// count of '[' before cut, one per point when the cut sits on a point
// boundary, so each side appends into its own slots, and an append past
// them reallocates instead of reaching the other side's. The forked part
// counts only when the caller's scan stops exactly on the cut, before a
// point; otherwise the caller scanned on past it, or met the array's end
// first, and its sequential result stands. When the forked side did not
// take the rest of the array, the caller scans it again from the cut.
func (s *scanner) split(dim int, pb *pointBuf, cut, head int) bool {
	first, second := pb.part(0, head), pb.part(head, pb.cap())
	t := scanner{b: s.b, i: cut}
	var closed, ok, tClosed, tOK bool
	fork.Parallel2(func() {
		closed, ok = s.run(dim, &first, cut)
	}, func() {
		tClosed, tOK = t.run(dim, &second, -1)
	})
	switch {
	case !ok:
		return false
	case closed:
		*pb = first
		return true
	case first.len() == head && tOK && tClosed && second.len() <= pb.cap()-head:
		s.i = t.i
		pb.resize(head + second.len())
		return true
	}
	_, ok = s.run(dim, &first, -1)
	*pb = first
	return ok
}

// run scans points from s.i, which sits before a point, into pb: the
// fused loop, and the general one for each point the fused loop stops
// short of. It returns closed after the array's closing ']', or not
// closed when it reaches a point that starts at offset stop (-1 for
// none). ok false is input outside the fast subset.
func (s *scanner) run(dim int, pb *pointBuf, stop int) (closed, ok bool) {
	var c [3]float64
	for {
		if s.fused(dim, pb, stop) {
			return true, true
		}
		if s.i == stop {
			return false, true
		}
		if !s.eat('[') {
			return false, false
		}
		for k := 0; k < dim; k++ {
			if k > 0 && !s.eat(',') {
				return false, false
			}
			var ok bool
			if c[k], ok = s.float(); !ok {
				return false, false
			}
		}
		if !s.eat(']') {
			return false, false
		}
		pb.add(dim, &c)
		if s.eat(']') {
			return true, true
		}
		if !s.eat(',') {
			return false, false
		}
	}
}

// fused is the scan-speed loop for the body shape clients send: points
// "[x,y]" or "[x,y,z]", each followed at once by ',' or the array's
// closing ']', with no whitespace, and numbers with no nonzero
// significant digit past the 19th, converted where they lie (coord). It
// consumes whole points and returns true after the closing ']', or false
// on the '[' of the first point it cannot take or of a point at offset
// stop.
func (s *scanner) fused(dim int, pb *pointBuf, stop int) bool {
	b, i, pow, out := s.b, s.i, s.pow, *pb
	var c [3]float64
	closed := false
loop:
	for i != stop && i < len(b) && b[i] == '[' {
		j := i + 1
		for k := 0; k < dim; k++ {
			sep := byte(',')
			if k == dim-1 {
				sep = ']'
			}
			f, e, ok := coord(b, j, &pow)
			if !ok || e >= len(b) || b[e] != sep {
				break loop
			}
			c[k] = f
			j = e + 1
		}
		if j >= len(b) || b[j] != ',' && b[j] != ']' {
			break
		}
		out.add(dim, &c)
		i = j + 1
		if b[j] == ']' {
			closed = true
			break
		}
	}
	s.i, s.pow, *pb = i, pow, out
	return closed
}

// coord converts the number at b[i:] for the fused loop, when it has no
// nonzero significant digit past the 19th, by Clinger's fast path or
// Eisel–Lemire, loading the table into *pow on first need; it returns
// the offset past the number. ok false leaves the number to the general
// loop, which also takes the ones those two steps cannot decide.
func coord(b []byte, i int, pow **pow10Table) (float64, int, bool) {
	mant, exp, neg, trunc, _, i, ok := scanNumber(b, i)
	if !ok || trunc {
		return 0, i, false
	}
	if f, ok := clinger(mant, exp, neg); ok {
		return f, i, true
	}
	if *pow == nil {
		*pow = pow10s()
	}
	f, ok := eiselLemire(*pow, mant, exp, neg)
	return f, i, ok
}

// pointBuf holds the points of one array, or of one part of it: p2 or
// p3, by the dimension.
type pointBuf struct {
	p2 []geom.Point
	p3 []geom.Point3
}

func makePointBuf(dim, n int) pointBuf {
	if dim == 3 {
		return pointBuf{p3: make([]geom.Point3, 0, n)}
	}
	return pointBuf{p2: make([]geom.Point, 0, n)}
}

func (pb *pointBuf) len() int { return len(pb.p2) + len(pb.p3) }
func (pb *pointBuf) cap() int { return cap(pb.p2) + cap(pb.p3) }

func (pb *pointBuf) add(dim int, c *[3]float64) {
	if dim == 3 {
		pb.p3 = append(pb.p3, geom.Point3{X: c[0], Y: c[1], Z: c[2]})
	} else {
		pb.p2 = append(pb.p2, geom.Point{X: c[0], Y: c[1]})
	}
}

// part returns an empty buffer over pb's slots [lo, hi).
func (pb *pointBuf) part(lo, hi int) pointBuf {
	if pb.p3 != nil {
		return pointBuf{p3: pb.p3[lo:lo:hi]}
	}
	return pointBuf{p2: pb.p2[lo:lo:hi]}
}

// resize sets pb's length to n, within its capacity.
func (pb *pointBuf) resize(n int) {
	if pb.p3 != nil {
		pb.p3 = pb.p3[:n]
	} else {
		pb.p2 = pb.p2[:n]
	}
}

// peekArity returns the coordinate count of the first point of the
// points array ahead, without consuming it; 0 when the array is empty or
// does not start with a flat array of numbers.
func (s *scanner) peekArity() int {
	t := *s
	if !t.eat('[') || !t.eat('[') {
		return 0
	}
	for n := 1; ; n++ {
		if _, ok := t.float(); !ok {
			return 0
		}
		if t.eat(']') {
			return n
		}
		if !t.eat(',') {
			return 0
		}
	}
}

// writeHullResult writes out exactly as writeJSON would with out.Chain
// set to chain's [x,y] pairs, but appends the chain's numbers straight
// into a pooled buffer instead of building and reflect-encoding a
// [][]float64. The chain is spliced into encoding/json's rendering of
// the other fields, right after hull_size, where the struct order puts
// it. Coordinates are finite: inputs are validated before any hull runs.
func writeHullResult(w http.ResponseWriter, status int, out httpResult, chain []geom.Point) {
	if len(chain) == 0 {
		writeJSON(w, status, out) // omitempty drops an empty chain
		return
	}
	rest, err := json.Marshal(out)
	if err != nil {
		writeJSON(w, status, out) // fails the same way, as before
		return
	}
	var pre [64]byte
	head := strconv.AppendInt(append(pre[:0], `{"n":`...), int64(out.N), 10)
	head = strconv.AppendInt(append(head, `,"hull_size":`...), int64(out.HullSize), 10)
	bp := getBuf(len(rest) + 48*len(chain) + 16)
	b := append(*bp, rest[:len(head)]...)
	b = append(b, `,"chain":`...)
	b = appendCoords2(b, chain)
	b = append(append(b, rest[len(head):]...), '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(b)
	*bp = b
	putBuf(bp)
}

// appendCoords2 appends pts as a JSON array of [x,y] pairs, byte for byte
// as encoding/json encodes the equivalent [][]float64.
func appendCoords2(b []byte, pts []geom.Point) []byte {
	pow := pow10s()
	b = append(b, '[')
	for i, p := range pts {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendFloatPow(append(b, '['), p.X, pow)
		b = appendFloatPow(append(b, ','), p.Y, pow)
		b = append(b, ']')
	}
	return append(b, ']')
}
