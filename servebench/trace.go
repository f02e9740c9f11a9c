package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"inplacehull/internal/pram"
)

// span is one recorded interval: a layer call of one request. Times are
// ns since the tracer started. parent is 0 for a request's root span.
type span struct {
	id, parent, req int64
	name            string
	start, end      int64
}

// tracer keeps the traced run's spans in memory; write puts them on disk
// when the run ends.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	reqs  atomic.Int64
	mu    sync.Mutex
	spans []span

	// cull totals of the replayed filter calls: points in, points discarded.
	cullIn, culled atomic.Int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) newRequest() int64 { return t.reqs.Add(1) }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// span runs fn under a new span and returns the span's id; fn receives the
// id so nested spans can name it as their parent.
func (t *tracer) span(req, parent int64, name string, fn func(id int64)) int64 {
	id := t.ids.Add(1)
	start := t.now()
	fn(id)
	t.add(span{id: id, parent: parent, req: req, name: name, start: start, end: t.now()})
	return id
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) countCull(in, survivors int) {
	t.cullIn.Add(int64(in))
	t.culled.Add(int64(in - survivors))
}

// sink returns a pram.Sink that records the native engine's phase spans
// (native-sort, native-chain, native-locate, native-caps) as children of
// span parent. One sink serves one engine call.
func (t *tracer) sink(req, parent int64) pram.Sink {
	return &sinkRec{t: t, req: req, parent: parent}
}

type sinkRec struct {
	t           *tracer
	req, parent int64
	open        []span
}

func (s *sinkRec) SpanOpenEvent(name string, _ pram.Snapshot) {
	parent := s.parent
	if len(s.open) > 0 {
		parent = s.open[len(s.open)-1].id
	}
	s.open = append(s.open, span{id: s.t.ids.Add(1), parent: parent, req: s.req, name: name, start: s.t.now()})
}

func (s *sinkRec) SpanCloseEvent(name string, _ pram.Snapshot) {
	if len(s.open) == 0 {
		return
	}
	sp := s.open[len(s.open)-1]
	s.open = s.open[:len(s.open)-1]
	sp.end = s.t.now()
	s.t.add(sp)
}

func (*sinkRec) StepEvent(k, live int64)        {}
func (*sinkRec) ChargeEvent(steps, work int64)  {}
func (*sinkRec) SubOpenEvent(pram.Snapshot)     {}
func (*sinkRec) SubCloseEvent(pram.Snapshot)    {}
func (*sinkRec) NoteEvent(event, detail string) {}

// write stores the spans as JSON lines after a header line carrying the
// run's stamp.
func (t *tracer) write(path, stamp string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	_ = enc.Encode(map[string]string{"stamp": stamp}) // errors resurface at Flush
	t.mu.Lock()
	for _, s := range t.spans {
		_ = enc.Encode(struct {
			ID      int64  `json:"id"`
			Parent  int64  `json:"parent"`
			Req     int64  `json:"req"`
			Name    string `json:"name"`
			StartNS int64  `json:"start_ns"`
			EndNS   int64  `json:"end_ns"`
		}{s.id, s.parent, s.req, s.name, s.start, s.end})
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
