package serve

import (
	"context"
	"errors"
	"time"

	"inplacehull/internal/chain"
	"inplacehull/internal/geom"
	"inplacehull/internal/hullerr"
	"inplacehull/internal/hullhash"
	"inplacehull/internal/resilient"
	"inplacehull/internal/shard"
)

// doScattered answers a 2-d query through the scatter-gather coordinator
// instead of the local batcher. It shares the result cache with the
// single-node path (the shard width is folded into the key), but never
// caches a partial answer: a partial is a degraded artifact of the moment's
// failures, and serving it after the peers recover would be wrong.
func (s *Server) doScattered(ctx context.Context, r *request) (Result, error) {
	const op = "serve.Scatter"
	start := time.Now()
	if s.cfg.Sharder == nil {
		return Result{}, hullerr.New(hullerr.InvalidInput, op, "no scatter coordinator configured (Config.Sharder)")
	}
	if r.q.Algo != AlgoHull2D {
		return Result{}, hullerr.New(hullerr.InvalidInput, op, "scattered queries support algorithm hull2d only, not %s", r.q.Algo)
	}
	if hit, ok := s.lookup(r, start); ok {
		return hit, nil
	}
	k := r.q.Shards
	if k < 0 {
		k = s.cfg.Sharder.Shards()
	}
	// Cull before scattering: every shard's wire payload and worker run
	// shrinks, and conv(survivors) == conv(input) keeps the merged chain
	// bit-identical (the coordinator canonicalizes shard chains anyway).
	s.filter(r)
	out, err := s.cfg.Sharder.Gather2D(ctx, r.in2.Work, k, r.q.Seed)
	if err != nil && !errors.Is(err, hullerr.ErrPartialHull) {
		s.count(&s.errors, "errors_total")
		return Result{}, err
	}
	res := Result{
		N:      len(r.in2.Full),
		Culled: r.in2.Culled(),
		Chain:  out.Chain,
		// The report's backend is the coordinator's resolved default; the
		// shard workers it fans out to are configured to match (hullserve
		// wires one -backend through both), though a remote peer is free
		// to answer with its own engine — the merge only needs canonical
		// chains, which both engines produce.
		Report:  resilient.Report{ExecBackend: r.plan.Backend},
		Shards:  out.Shards,
		Missing: out.Missing,
		Elapsed: time.Since(start),
	}
	s.count(&s.completed, "completed_total")
	if err == nil {
		s.remember(r, res)
	}
	// A partial answer returns BOTH the covered hull and the typed
	// PartialHull error; callers that cannot use partial coverage treat it
	// as a failure, the HTTP layer maps it to 206.
	return res, err
}

// Scatter2D is the peer side of the scatter protocol: it computes the
// canonical strict upper hull of one shard, reusing the server's full
// admission/batching/cache path (a retried shard hits the cache), and
// echoes the content checksum of the points it actually received — the
// coordinator's proof that the wire carried the right bytes.
func (s *Server) Scatter2D(ctx context.Context, req shard.Request) (shard.Response, error) {
	h := hullhash.New()
	h.Points2(req.Points)
	res, err := s.Query2D(ctx, Query{
		Points2:      req.Points,
		Algo:         AlgoHull2D,
		Seed:         req.Seed,
		RequireExact: true, // only exact partial hulls keep the merge certifiable
	})
	if err != nil {
		return shard.Response{}, err
	}
	// Canonicalize over the lexicographically sorted shard (the
	// coordinator sends sorted points, but re-sorting a copy keeps the
	// endpoint's contract independent of the caller's discipline).
	pts := append([]geom.Point(nil), req.Points...)
	geom.SortLex(pts)
	return shard.Response{
		Shard: req.Shard,
		Chain: chain.Canonical(pts, res.Chain),
		Sum:   h.Sum(),
		Tier:  res.Report.Tier.String(),
	}, nil
}
