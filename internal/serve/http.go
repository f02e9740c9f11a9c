package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"inplacehull/internal/hullerr"
	"inplacehull/internal/shard"
)

// httpQuery is the JSON request body of POST /v1/hull2d and /v1/hull3d.
type httpQuery struct {
	// Points: [[x,y],…] for 2-d, [[x,y,z],…] for 3-d. Mutually exclusive
	// with Dataset.
	Points [][]float64 `json:"points,omitempty"`
	// Dataset names a preloaded point set (GET /v1/datasets lists them).
	Dataset string `json:"dataset,omitempty"`
	// Algorithm: "hull2d" (default), "presorted", "logstar" (2-d only).
	Algorithm string `json:"algorithm,omitempty"`
	Seed      uint64 `json:"seed,omitempty"`
	// DeadlineMS bounds the query's service time; 0 means the request's
	// own context only.
	DeadlineMS int  `json:"deadline_ms,omitempty"`
	NoCache    bool `json:"no_cache,omitempty"`
	// RequireExact refuses a degraded approximate answer: if only the
	// approximate tier survives, the query fails with kind
	// "approximate only" (HTTP 422).
	RequireExact bool `json:"require_exact,omitempty"`
	// ApproxEps overrides the server's approximate-tier tolerance for
	// this query (relative to the bounding-box diagonal; > 0 enables).
	ApproxEps float64 `json:"approx_eps,omitempty"`
	// Shards routes the query through the scatter-gather coordinator
	// split k ways (-1 = the coordinator's default width). Requires the
	// server to be started with peers/shards configured; 2-d hull2d only.
	Shards int `json:"shards,omitempty"`
	// Backend: "" or "auto" (server default, native unless configured
	// otherwise), "counted" (the simulated PRAM), "native" (the direct
	// engine). The answer is canonical either way; the backends differ in
	// speed and in what their reports can say.
	Backend string `json:"backend,omitempty"`
	// Cull: "" or "auto" (server default: unless configured otherwise,
	// octagon in 2-d and coarse in 3-d), "off", "quad", "octagon",
	// "coarse" — the admission-side interior-point filter (see
	// internal/cull). 3-d has one filter, so every 3-d value but "off"
	// runs coarse. Never changes the answer; the discard count is echoed
	// as the X-Hull-Culled response header.
	Cull string `json:"cull,omitempty"`
}

// httpResult is the JSON response body.
type httpResult struct {
	N        int `json:"n"`
	HullSize int `json:"hull_size"`
	// Chain is the 2-d upper hull as [x,y] pairs. serveHull leaves it nil
	// and writeHullResult encodes the chain in its place, byte for byte as
	// this field would encode.
	Chain  [][]float64 `json:"chain,omitempty"`
	Facets int         `json:"facets,omitempty"`
	Cached bool        `json:"cached"`
	Tier   string      `json:"tier"`
	// Backend names the engine that computed the answer ("counted" or
	// "native"); also echoed as the X-Hull-Backend response header.
	Backend string `json:"backend"`
	// ApproxEps is the certified ε of an approximate-tier answer (absolute
	// vertical distance); 0 for exact tiers.
	ApproxEps float64 `json:"approx_eps,omitempty"`
	Attempts  int     `json:"attempts"`
	Elapsed   float64 `json:"elapsed_us"`
	// Shards/MissingShards describe a scattered answer: how many shards
	// the query split into, and — on an HTTP 206 partial answer — which of
	// them the hull does not cover.
	Shards        int   `json:"shards,omitempty"`
	MissingShards []int `json:"missing_shards,omitempty"`
	// Culled is how many input points the admission filter discarded before
	// the backend ran (0 when culling was off or found nothing); also echoed
	// as X-Hull-Culled ("culled/n"). N always counts the full input.
	Culled    int    `json:"culled,omitempty"`
	RequestID string `json:"request_id,omitempty"`
}

type httpError struct {
	Error     string `json:"error"`
	Kind      string `json:"kind"`
	RequestID string `json:"request_id,omitempty"`
}

// statusOf maps the typed error taxonomy onto HTTP statuses. Untyped
// errors cannot reach here (the supervisor's contract), but map
// defensively: a raw context deadline is still a timeout (504), anything
// else a 500.
func statusOf(err error) int {
	var e *hullerr.Error
	if !errors.As(err, &e) {
		if errors.Is(err, context.DeadlineExceeded) {
			return http.StatusGatewayTimeout
		}
		return http.StatusInternalServerError
	}
	switch e.Kind {
	case hullerr.InvalidInput, hullerr.UnsortedInput:
		return http.StatusBadRequest
	case hullerr.Overloaded:
		// 503, not 429: the server as a whole is saturated or closing —
		// the client did nothing wrong, the capacity is simply not there
		// right now. Retry-After tells it when to come back.
		return http.StatusServiceUnavailable
	case hullerr.ApproximateOnly:
		// The request as stated (exact) is unsatisfiable, but a relaxed
		// retry (require_exact=false) would succeed.
		return http.StatusUnprocessableEntity
	case hullerr.PartialHull:
		// Scattered answers with unreachable shards carry their covered
		// hull; serveHull answers 206 with the body, this arm only backs
		// writeErr up if one escapes to the generic path.
		return http.StatusPartialContent
	case hullerr.DeadlineExceeded:
		return http.StatusGatewayTimeout
	case hullerr.Canceled:
		return 499 // client closed request (nginx convention)
	default: // BudgetExhausted, Internal
		return http.StatusInternalServerError
	}
}

func kindName(err error) string {
	var e *hullerr.Error
	if errors.As(err, &e) {
		return e.Kind.String()
	}
	return "untyped"
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError builds every error body the front end sends, stamped with
// the request's X-Request-ID; a 503 also tells the client when to retry.
func writeError(w http.ResponseWriter, req *http.Request, status int, kind, msg string) {
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, httpError{Error: msg, Kind: kind, RequestID: shard.RequestIDFrom(req.Context())})
}

// writeErr answers a typed error with its mapped status.
func writeErr(w http.ResponseWriter, req *http.Request, err error) {
	writeError(w, req, statusOf(err), kindName(err), err.Error())
}

// writeBadRequest answers a body or parameter the decoder rejected.
func writeBadRequest(w http.ResponseWriter, req *http.Request, msg string) {
	writeError(w, req, http.StatusBadRequest, "invalid input", msg)
}

// Handler returns the HTTP front end:
//
//	POST /v1/hull2d    {"points":[[x,y],…]|"dataset":name, "algorithm":…, "seed":…, "deadline_ms":…, "shards":…}
//	POST /v1/hull3d    {"points":[[x,y,z],…]|"dataset":name, …}
//	POST /v1/scatter2d one shard of a peer coordinator's scatter (internal/shard wire format)
//	GET  /v1/datasets  registered dataset names
//	GET  /v1/peers     per-peer health of the scatter coordinator (when configured)
//	GET  /healthz      liveness
//	GET  /metrics      Prometheus exposition (when Config.Metrics is set)
//
// With Config.Streams mounted, the mutable-dataset endpoints join them:
//
//	PUT    /v1/datasets/{name}        register a mutable dataset ({"points":[[…]…]}; idempotent for identical content)
//	DELETE /v1/datasets/{name}        delete it (404 unknown); evicts its cached answers
//	POST   /v1/datasets/{name}/append append points; answers the committed hull delta
//	POST   /v1/datasets/{name}/delete remove points (one multiset occurrence each; all-or-nothing)
//	GET    /v1/datasets/{name}/hull   current hull; ?since=V replays deltas, &wait_ms=D long-polls for the next commit
//	GET    /v1/datasets/{name}/watch  hull-delta push over SSE (events: hull, delta, deleted)
//
// Every request runs under an X-Request-ID: a caller-supplied one is
// propagated (to the response, error bodies, and scatter fan-out to
// peers), otherwise the server mints one.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/hull2d", func(w http.ResponseWriter, req *http.Request) { s.serveHull(w, req, 2) })
	mux.HandleFunc("/v1/hull3d", func(w http.ResponseWriter, req *http.Request) { s.serveHull(w, req, 3) })
	mux.HandleFunc(shard.ScatterPath, s.serveScatter)
	mux.HandleFunc("/v1/datasets", func(w http.ResponseWriter, req *http.Request) {
		names := s.Datasets()
		sort.Strings(names)
		writeJSON(w, http.StatusOK, map[string][]string{"datasets": names})
	})
	if s.cfg.Streams != nil {
		mux.HandleFunc("PUT /v1/datasets/{name}", s.serveStreamRegister)
		mux.HandleFunc("DELETE /v1/datasets/{name}", s.serveStreamDelete)
		mux.HandleFunc("POST /v1/datasets/{name}/append", func(w http.ResponseWriter, req *http.Request) {
			s.serveStreamMutate(w, req, false)
		})
		mux.HandleFunc("POST /v1/datasets/{name}/delete", func(w http.ResponseWriter, req *http.Request) {
			s.serveStreamMutate(w, req, true)
		})
		mux.HandleFunc("GET /v1/datasets/{name}/hull", s.serveStreamHull)
		mux.HandleFunc("GET /v1/datasets/{name}/watch", s.serveStreamWatch)
	}
	mux.HandleFunc("/v1/peers", func(w http.ResponseWriter, req *http.Request) {
		if s.cfg.Sharder == nil {
			writeJSON(w, http.StatusOK, map[string]any{"peers": []any{}})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"peers": s.cfg.Sharder.Health()})
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ok\n"))
	})
	if s.cfg.Metrics != nil {
		mux.Handle("/metrics", s.cfg.Metrics)
	}
	return s.withRequestID(mux)
}

// ridCounter backs server-minted request IDs.
var ridCounter atomic.Uint64

// withRequestID is the tracing middleware: propagate the caller's
// X-Request-ID or mint one, thread it through the request context (where
// typed-error bodies and scatter fan-out pick it up), and echo it on the
// response.
func (s *Server) withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id := req.Header.Get(shard.RequestIDHeader)
		if id != "" {
			s.cfg.Metrics.ServeCounterAdd("request_id_propagated_total", 1)
		} else {
			id = fmt.Sprintf("hull-%x-%x", time.Now().UnixNano(), ridCounter.Add(1))
			s.cfg.Metrics.ServeCounterAdd("request_id_generated_total", 1)
		}
		w.Header().Set(shard.RequestIDHeader, id)
		next.ServeHTTP(w, req.WithContext(shard.WithRequestID(req.Context(), id)))
	})
}

// serveScatter answers one shard of a remote coordinator's scatter: decode
// the wire request, compute the canonical shard hull through the full
// serving path, echo the content checksum of the received bytes.
func (s *Server) serveScatter(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	bp, err := readBody(w, req)
	if err != nil {
		writeBodyErr(w, req, err)
		return
	}
	var wr shard.WireRequest
	err = json.NewDecoder(bytes.NewReader(*bp)).Decode(&wr)
	putBuf(bp) // the decoded request holds no reference to the body
	if err != nil {
		writeBadRequest(w, req, "bad JSON: "+err.Error())
		return
	}
	sreq, err := shard.DecodeRequest(wr)
	if err != nil {
		writeErr(w, req, err)
		return
	}
	resp, err := s.Scatter2D(req.Context(), sreq)
	if err != nil {
		writeErr(w, req, err)
		return
	}
	writeJSON(w, http.StatusOK, shard.EncodeResponse(resp))
}

func (s *Server) serveHull(w http.ResponseWriter, req *http.Request, dim int) {
	if req.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	bp, err := readBody(w, req)
	if err != nil {
		writeBodyErr(w, req, err)
		return
	}
	q, deadlineMS, err := decodeHullQuery(*bp, dim)
	putBuf(bp)
	if err != nil {
		writeBadRequest(w, req, err.Error())
		return
	}

	ctx := req.Context()
	if deadlineMS > 0 {
		var cancel func()
		ctx, cancel = context.WithTimeout(ctx, time.Duration(deadlineMS)*time.Millisecond)
		defer cancel()
	}
	var res Result
	if dim == 3 {
		res, err = s.Query3D(ctx, q)
	} else {
		res, err = s.Query2D(ctx, q)
	}
	partial := err != nil && errors.Is(err, hullerr.ErrPartialHull)
	if err != nil && !partial {
		writeErr(w, req, err)
		return
	}
	out := httpResult{
		N:             res.N,
		Cached:        res.Cached,
		Tier:          res.Report.Tier.String(),
		Backend:       res.Report.Backend().String(),
		ApproxEps:     res.Report.ApproxEps,
		Attempts:      res.Report.Attempts,
		Elapsed:       float64(res.Elapsed.Microseconds()),
		Shards:        res.Shards,
		MissingShards: res.Missing,
		Culled:        res.Culled,
		RequestID:     shard.RequestIDFrom(ctx),
	}
	w.Header().Set("X-Hull-Tier", out.Tier)
	w.Header().Set("X-Hull-Backend", out.Backend)
	w.Header().Set("X-Hull-Culled", strconv.Itoa(res.Culled)+"/"+strconv.Itoa(res.N))
	if dim == 3 {
		out.HullSize = res.Facets
		out.Facets = res.Facets
	} else {
		out.HullSize = len(res.Chain)
	}
	status := http.StatusOK
	if partial {
		// 206: the body carries the exact hull of the covered shards and
		// names the missing ones — a labeled degradation, never presented
		// as the global hull.
		status = http.StatusPartialContent
		w.Header().Set("X-Hull-Partial", "true")
	}
	writeHullResult(w, status, out, res.Chain)
}
