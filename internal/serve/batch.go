package serve

import (
	"context"
	"slices"
	"time"

	"inplacehull/internal/hullerr"
	"inplacehull/internal/pram"
	"inplacehull/internal/resilient"
)

// executor is the per-machine serving loop: pick up one request, coalesce
// a batch around it, run the batch (on a single fleet checkout when it
// holds a counted request), repeat. Executors outnumber nothing — there
// is exactly one per fleet machine — so a checkout never blocks, the
// queue is the only waiting room, and native requests are bounded by the
// same one-executor-per-fleet-slot concurrency as counted ones.
func (s *Server) executor() {
	defer s.wg.Done()
	for {
		select {
		case r := <-s.queue:
			s.runBatch(s.fill(r))
		case <-s.stop:
			// Drain: everything still queued was admitted before Close
			// flipped the flag; answer it (typed) rather than strand it.
			for {
				select {
				case r := <-s.queue:
					r.respond(Result{}, hullerr.New(hullerr.Overloaded, r.op, "server closed"))
				default:
					return
				}
			}
		}
	}
}

// bypassBatchN is the point count from which a counted query dispatches
// solo without waiting out the batch window.
const bypassBatchN = 8192

// bypass reports whether r dispatches solo. Batching exists to amortize
// machine dispatch across small counted queries: a large query amortizes
// it by itself, and a native query has no machine dispatch to amortize.
func (s *Server) bypass(r *request) bool {
	return r.plan.Backend == resilient.BackendNative ||
		len(r.in2.Work)+len(r.in3.Work) >= bypassBatchN
}

// fill coalesces a batch around first: greedily take what is already
// queued; only a *lone* small query holds the window open for company.
// The adaptivity matters: once the greedy drain has coalesced anything,
// dispatching immediately is strictly better — the queue depth that fed
// this batch will feed the next one too, while waiting out the window
// with the whole queue's clients blocked on us would buy nothing (the
// closed-loop pathology: under saturating load every arrival is already
// here, and the stragglers the window waits for cannot arrive until we
// answer). Large and native queries never wait out the window either
// (see bypass).
func (s *Server) fill(first *request) []*request {
	batch := []*request{first}
	if s.cfg.MaxBatch <= 1 || s.bypass(first) {
		return batch
	}
	for len(batch) < s.cfg.MaxBatch {
		select {
		case r := <-s.queue:
			batch = append(batch, r)
			continue
		default:
		}
		break
	}
	if len(batch) > 1 || s.cfg.BatchWindow <= 0 {
		return batch
	}
	t := time.NewTimer(s.cfg.BatchWindow)
	defer t.Stop()
	for len(batch) < s.cfg.MaxBatch {
		select {
		case r := <-s.queue:
			batch = append(batch, r)
			// Company arrived; keep draining greedily but stop waiting.
			for len(batch) < s.cfg.MaxBatch {
				select {
				case r := <-s.queue:
					batch = append(batch, r)
					continue
				default:
				}
				break
			}
			return batch
		case <-t.C:
			return batch
		case <-s.stop:
			// Shutdown: run what we hold; the executor loop drains the rest.
			return batch
		}
	}
	return batch
}

// runBatch executes a batch, checking one machine out only when the
// batch holds a counted request. Requests whose deadline expired while
// queued are answered typed without compute.
func (s *Server) runBatch(batch []*request) {
	var m *pram.Machine
	if slices.ContainsFunc(batch, func(r *request) bool { return r.plan.Backend == resilient.BackendCounted }) {
		var err error
		if m, err = s.fleet.Checkout(context.Background()); err != nil {
			// Only possible if the fleet was closed under a live executor
			// — which Close's ordering (wg.Wait before fleet.Close)
			// forbids. Answer typed anyway rather than strand the batch.
			for _, r := range batch {
				r.respond(Result{}, hullerr.New(hullerr.Overloaded, r.op, "machine fleet closed"))
			}
			return
		}
		defer s.fleet.Return(m)
	}
	s.count(&s.batches, "batches_total")
	for _, r := range batch {
		s.count(&s.batchedQueries, "batched_queries_total")
		if err := r.ctx.Err(); err != nil {
			s.count(&s.deadlineShed, "deadline_shed_total")
			r.respond(Result{}, hullerr.FromContext(r.op, err))
			continue
		}
		res, err := s.execute(m, r)
		if err != nil {
			s.count(&s.errors, "errors_total")
			r.respond(Result{}, err)
			continue
		}
		s.remember(r, res)
		s.count(&s.completed, "completed_total")
		r.respond(res, nil)
	}
}
