package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"inplacehull/internal/geom"
	"inplacehull/internal/hullhash"
	"inplacehull/internal/stream"
)

// httpPoints is the JSON body of PUT /v1/datasets/{name} (register) and
// POST /v1/datasets/{name}/append|/delete (mutate): 2-d or 3-d points,
// dimension inferred from the coordinate count (or pinned by "dim" when
// registering an empty dataset).
type httpPoints struct {
	Points [][]float64 `json:"points"`
	Dim    int         `json:"dim,omitempty"`
}

// httpDelta is one committed hull delta on the wire: the version and
// content hash the dataset moved to, which hull vertices entered and
// left, and whether the commit degraded to a full rebuild (and why).
type httpDelta struct {
	Dataset  string      `json:"dataset"`
	Dim      int         `json:"dim"`
	Version  uint64      `json:"version"`
	Hash     string      `json:"hash"`
	PrevHash string      `json:"prev_hash,omitempty"`
	Added    [][]float64 `json:"added,omitempty"`
	Removed  [][]float64 `json:"removed,omitempty"`
	Fallback string      `json:"fallback,omitempty"`
	Deleted  bool        `json:"deleted,omitempty"`
}

// httpHullState is the GET /v1/datasets/{name}/hull response: the
// current hull (2-d chain or 3-d vertex set) plus, for ?since=V, the
// retained deltas after V — or resync=true when V predates the history
// window and the caller must take the full hull instead.
type httpHullState struct {
	Dataset string      `json:"dataset"`
	Dim     int         `json:"dim"`
	Version uint64      `json:"version"`
	Hash    string      `json:"hash"`
	Chain   [][]float64 `json:"chain,omitempty"`
	Verts   [][]float64 `json:"verts,omitempty"`
	Resync  bool        `json:"resync,omitempty"`
	Deltas  []httpDelta `json:"deltas,omitempty"`
}

func hashHex(h hullhash.Sum) string { return fmt.Sprintf("%016x%016x", h.Hi, h.Lo) }

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

func wireDelta(d stream.Delta) httpDelta {
	out := httpDelta{
		Dataset: d.Name, Dim: d.Dim, Version: d.Version,
		Hash: hashHex(d.Hash), PrevHash: hashHex(d.PrevHash),
		Fallback: d.Fallback, Deleted: d.Deleted,
	}
	if d.Dim == 3 {
		out.Added, out.Removed = coords3(d.Added3), coords3(d.Removed3)
	} else {
		out.Added, out.Removed = coords2(d.Added), coords2(d.Removed)
	}
	return out
}

// parseCoords validates and splits a coordinate list into 2-d or 3-d
// points for dimension dim.
func parseCoords(coords [][]float64, dim int) ([]geom.Point, []geom.Point3, error) {
	var p2 []geom.Point
	var p3 []geom.Point3
	for i, c := range coords {
		if len(c) != dim {
			return nil, nil, fmt.Errorf("point %d has %d coordinates, want %d", i, len(c), dim)
		}
		if dim == 3 {
			p3 = append(p3, geom.Point3{X: c[0], Y: c[1], Z: c[2]})
		} else {
			p2 = append(p2, geom.Point{X: c[0], Y: c[1]})
		}
	}
	return p2, p3, nil
}

func writeNotFound(w http.ResponseWriter, req *http.Request, name string) {
	writeError(w, req, http.StatusNotFound, "invalid input", "unknown dataset "+strconv.Quote(name))
}

// serveStreamRegister handles PUT /v1/datasets/{name}: register a
// mutable dataset. Re-registering a live name with identical content is
// an idempotent no-op; different content is a 400 (DELETE it first).
func (s *Server) serveStreamRegister(w http.ResponseWriter, req *http.Request) {
	name := req.PathValue("name")
	bp, err := readBody(w, req)
	if err != nil {
		writeBodyErr(w, req, err)
		return
	}
	p2, p3, dim, err := decodePoints(*bp, 0)
	putBuf(bp)
	if err != nil {
		writeBadRequest(w, req, err.Error())
		return
	}
	var delta stream.Delta
	if dim == 3 {
		_, delta, err = s.cfg.Streams.Register3(name, p3)
	} else {
		_, delta, err = s.cfg.Streams.Register2(name, p2)
	}
	if err != nil {
		writeErr(w, req, err)
		return
	}
	writeJSON(w, http.StatusOK, wireDelta(delta))
}

// serveStreamDelete handles DELETE /v1/datasets/{name}: the tombstone
// delta is answered (final version and hash) and the dataset's cached
// answers are evicted through the store's Watch hook. Unknown names 404.
func (s *Server) serveStreamDelete(w http.ResponseWriter, req *http.Request) {
	name := req.PathValue("name")
	tomb, ok := s.cfg.Streams.Delete(name)
	if !ok {
		writeNotFound(w, req, name)
		return
	}
	writeJSON(w, http.StatusOK, wireDelta(tomb))
}

// serveStreamMutate handles POST /v1/datasets/{name}/append and /delete:
// one mutation batch, answered with the committed hull delta. Deletes
// are all-or-nothing — a point not in the dataset rejects the batch
// typed, leaving version and hull untouched.
func (s *Server) serveStreamMutate(w http.ResponseWriter, req *http.Request, del bool) {
	name := req.PathValue("name")
	sd, ok := s.cfg.Streams.Get(name)
	if !ok {
		writeNotFound(w, req, name)
		return
	}
	bp, err := readBody(w, req)
	if err != nil {
		writeBodyErr(w, req, err)
		return
	}
	p2, p3, _, err := decodePoints(*bp, sd.Dim())
	putBuf(bp)
	if err != nil {
		writeBadRequest(w, req, err.Error())
		return
	}
	var delta stream.Delta
	switch {
	case sd.Dim() == 3 && del:
		delta, err = sd.Delete3(req.Context(), p3)
	case sd.Dim() == 3:
		delta, err = sd.Append3(req.Context(), p3)
	case del:
		delta, err = sd.Delete2(req.Context(), p2)
	default:
		delta, err = sd.Append2(req.Context(), p2)
	}
	if err != nil {
		writeErr(w, req, err)
		return
	}
	writeJSON(w, http.StatusOK, wireDelta(delta))
}

// hullState snapshots the dataset's current hull for the wire.
func hullState(sd *stream.Dataset, since uint64, haveSince bool) (httpHullState, error) {
	out := httpHullState{Dataset: sd.Name(), Dim: sd.Dim()}
	if haveSince {
		deltas, ok := sd.Since(since)
		out.Resync = !ok
		for _, d := range deltas {
			out.Deltas = append(out.Deltas, wireDelta(d))
		}
	}
	if sd.Dim() == 3 {
		verts, v, h, err := sd.Hull3()
		if err != nil {
			return out, err
		}
		out.Verts, out.Version, out.Hash = coords3(verts), v, hashHex(h)
		return out, nil
	}
	chain, v, h, err := sd.Hull2()
	if err != nil {
		return out, err
	}
	out.Chain, out.Version, out.Hash = coords2(chain), v, hashHex(h)
	return out, nil
}

// serveStreamHull handles GET /v1/datasets/{name}/hull: the current hull
// and version. ?since=V additionally replays the retained deltas after V
// (resync=true when V fell out of the history window), and &wait_ms=D
// long-polls — when the dataset is already at version ≤ since the
// response is held until the next commit or the wait expires, the
// fallback transport for clients that cannot hold an SSE stream open.
func (s *Server) serveStreamHull(w http.ResponseWriter, req *http.Request) {
	name := req.PathValue("name")
	sd, ok := s.cfg.Streams.Get(name)
	if !ok {
		writeNotFound(w, req, name)
		return
	}
	q := req.URL.Query()
	var since uint64
	haveSince := q.Get("since") != ""
	if haveSince {
		var err error
		if since, err = strconv.ParseUint(q.Get("since"), 10, 64); err != nil {
			writeBadRequest(w, req, "bad since: "+err.Error())
			return
		}
	}
	if ms, _ := strconv.Atoi(q.Get("wait_ms")); ms > 0 && haveSince {
		if ms > 30000 {
			ms = 30000
		}
		sub := sd.Subscribe()
		defer sub.Close()
		// Subscribe before the version check: a commit landing between
		// the two is seen either by the check or by the channel.
		if v, _ := sd.Version(); v <= since {
			t := time.NewTimer(time.Duration(ms) * time.Millisecond)
			defer t.Stop()
			select {
			case <-sub.C:
			case <-t.C:
			case <-req.Context().Done():
				return
			}
		}
	}
	state, err := hullState(sd, since, haveSince)
	if err != nil {
		writeErr(w, req, err)
		return
	}
	writeJSON(w, http.StatusOK, state)
}

// serveStreamWatch handles GET /v1/datasets/{name}/watch: hull-delta
// push over server-sent events. The stream opens with a "hull" event
// carrying the full current state (so a subscriber needs no separate
// snapshot round-trip), then delivers one "delta" event per commit. A
// lagged subscriber observes a version gap between consecutive deltas
// and resyncs via GET hull?since=; a deleted dataset ends the stream
// with a "deleted" event.
func (s *Server) serveStreamWatch(w http.ResponseWriter, req *http.Request) {
	name := req.PathValue("name")
	sd, ok := s.cfg.Streams.Get(name)
	if !ok {
		writeNotFound(w, req, name)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, req, http.StatusInternalServerError, "internal", "response writer cannot stream")
		return
	}
	sub := sd.Subscribe()
	defer sub.Close()
	state, err := hullState(sd, 0, false)
	if err != nil {
		writeErr(w, req, err)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	writeSSE(w, "hull", state)
	fl.Flush()
	for {
		select {
		case d, open := <-sub.C:
			if !open {
				writeSSE(w, "deleted", map[string]string{"dataset": name})
				fl.Flush()
				return
			}
			writeSSE(w, "delta", wireDelta(d))
			fl.Flush()
		case <-req.Context().Done():
			return
		}
	}
}

func writeSSE(w http.ResponseWriter, event string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
}
