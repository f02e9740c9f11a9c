package serve

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"inplacehull/internal/shard"
	"inplacehull/internal/stream"
	"inplacehull/internal/workload"
)

// failingBody is a request body whose transfer breaks mid-read.
type failingBody struct{}

func (failingBody) Read([]byte) (int, error) { return 0, errors.New("connection reset") }

// plainWriter is a ResponseWriter that cannot flush, so it cannot carry
// an event stream.
type plainWriter struct{ rec *httptest.ResponseRecorder }

func (w plainWriter) Header() http.Header         { return w.rec.Header() }
func (w plainWriter) Write(b []byte) (int, error) { return w.rec.Write(b) }
func (w plainWriter) WriteHeader(status int)      { w.rec.WriteHeader(status) }

// TestErrorBodiesCarryRequestID: every error path of the front end
// answers a body whose request_id is the X-Request-ID the response
// carries, whether the caller sent the ID or the server minted it.
func TestErrorBodiesCarryRequestID(t *testing.T) {
	store := stream.NewStore(stream.Config{})
	if _, _, err := store.Register2("live", workload.Disk(3, 64)); err != nil {
		t.Fatal(err)
	}
	h := small(t, Config{Streams: store}).Handler()
	cases := []struct {
		name, method, path, body string
		broken                   bool // the body transfer fails mid-read
		plain                    bool // serve through a writer that cannot flush
		status                   int
	}{
		{"broken body transfer", http.MethodPost, "/v1/hull2d", "", true, false, http.StatusBadRequest},
		{"hull decode", http.MethodPost, "/v1/hull2d", `{"points":[[0]]}`, false, false, http.StatusBadRequest},
		{"stream register decode", http.MethodPut, "/v1/datasets/fresh", `{"points":`, false, false, http.StatusBadRequest},
		{"stream mutate decode", http.MethodPost, "/v1/datasets/live/append", `{"points":[[1,2,3]]}`, false, false, http.StatusBadRequest},
		{"bad since", http.MethodGet, "/v1/datasets/live/hull?since=yesterday", "", false, false, http.StatusBadRequest},
		{"watch without flusher", http.MethodGet, "/v1/datasets/live/watch", "", false, true, http.StatusInternalServerError},
		{"unknown dataset", http.MethodGet, "/v1/datasets/nope/hull", "", false, false, http.StatusNotFound},
	}
	for _, c := range cases {
		for _, sent := range []string{"", "caller-id-7"} {
			var body io.Reader = strings.NewReader(c.body)
			if c.broken {
				body = failingBody{}
			}
			req := httptest.NewRequest(c.method, c.path, body)
			if sent != "" {
				req.Header.Set(shard.RequestIDHeader, sent)
			}
			rec := httptest.NewRecorder()
			if c.plain {
				h.ServeHTTP(plainWriter{rec}, req)
			} else {
				h.ServeHTTP(rec, req)
			}
			if rec.Code != c.status {
				t.Fatalf("%s: status %d, want %d (%s)", c.name, rec.Code, c.status, rec.Body)
			}
			var he httpError
			if err := json.Unmarshal(rec.Body.Bytes(), &he); err != nil {
				t.Fatalf("%s: body %q: %v", c.name, rec.Body, err)
			}
			id := rec.Header().Get(shard.RequestIDHeader)
			if id == "" || he.RequestID != id || (sent != "" && id != sent) {
				t.Fatalf("%s (sent %q): body request_id %q, header %q", c.name, sent, he.RequestID, id)
			}
		}
	}
}
