package shard

import (
	"context"
	"sync"
	"time"

	"inplacehull/internal/chain"
	"inplacehull/internal/engine"
	"inplacehull/internal/fault"
	"inplacehull/internal/geom"
	"inplacehull/internal/hullerr"
	"inplacehull/internal/hullhash"
	"inplacehull/internal/pram"
	"inplacehull/internal/resilient"
	"inplacehull/internal/rng"
)

// Request is one shard's work order.
type Request struct {
	// Shard is the plan index the points came from.
	Shard int
	// Attempt numbers this launch within the shard's ladder (retries and
	// hedges included) — the occurrence key chaos injection is keyed on.
	Attempt int
	// Points is the shard's slice of the (x, y)-sorted input.
	Points []geom.Point
	// Seed drives the worker's random stream (derived per shard from the
	// query seed, so a retry replays the same stream).
	Seed uint64
	// Sum is the coordinator's content checksum of Points; the worker must
	// echo the checksum of the points it actually received, proving the
	// wire carried the right bytes.
	Sum hullhash.Sum
}

// Response is one shard's answer: the canonical strict upper hull of the
// shard input plus the input checksum echo.
type Response struct {
	Shard int
	Chain []geom.Point
	Sum   hullhash.Sum
	// Tier names the degradation-ladder tier that produced the answer
	// ("randomized", "sequential", …) — observability, not contract.
	Tier string
}

// Worker computes one shard's partial hull. Implementations: LocalWorker
// (in-process Fleet machine), HTTPWorker (remote hullserve peer), and
// ChaosWorker (fault-injecting decorator for the E20 soak).
type Worker interface {
	// Name identifies the worker in health snapshots and per-peer metrics.
	Name() string
	// Partial computes the canonical strict upper hull of req.Points under
	// ctx. Errors must be typed (*hullerr.Error) or they are wrapped as
	// Internal by the coordinator.
	Partial(ctx context.Context, req Request) (Response, error)
}

// LocalWorker runs shards on an in-process machine fleet through the
// resilient supervisor — the same exact-or-typed-error stack a single-node
// server uses, per shard.
type LocalWorker struct {
	// ID names the worker ("local-0", …).
	ID string
	// Fleet supplies PRAM machines; Partial checks one out per call.
	Fleet *pram.Fleet
	// Policy tunes the supervisor. RequireExact is forced on: a shard
	// answer feeds the tangent merge, and only exact partial hulls keep
	// the merged result certifiable.
	Policy resilient.Policy
	// NewStream builds the shard's random stream from Request.Seed.
	// Default rng.New. The E20 soak swaps in a fault-attached stream so
	// PRAM-level faults and network-level faults compose. Counted-backend
	// only: the native engine draws no per-step randomness.
	NewStream func(seed uint64) *rng.Stream
	// Backend selects the shard's execution engine. BackendAuto resolves
	// to BackendNative — serving wants host speed, and chain.Canonical
	// guarantees the merge sees identical chains either way. The E20 soak
	// pins BackendCounted because its fault payloads ride the counted
	// machine's stream.
	Backend resilient.Backend
}

// Name implements Worker.
func (w *LocalWorker) Name() string {
	if w.ID == "" {
		return "local"
	}
	return w.ID
}

// Partial implements Worker: checkout a machine (counted workers only),
// run the plan's hull step, then canonicalize the chain so the response
// is the *strict* upper hull of the shard bytes — vertical columns
// collapsed to their top point, collinear runs collapsed to their
// endpoints — regardless of which backend or ladder tier answered. Canonical form is what makes "bit-identical to single-node"
// meaningful across shard plans.
func (w *LocalWorker) Partial(ctx context.Context, req Request) (Response, error) {
	const op = "shard.LocalWorker"
	if len(req.Points) == 0 {
		return Response{Shard: req.Shard, Sum: req.Sum}, nil
	}
	pol := w.Policy
	pol.RequireExact = true
	p := engine.Plan{Backend: resilient.BackendNative, Policy: pol}
	if w.Backend == resilient.BackendCounted {
		m, err := w.Fleet.Checkout(ctx)
		if err != nil {
			return Response{}, err
		}
		defer w.Fleet.Return(m)
		ns := w.NewStream
		if ns == nil {
			ns = rng.New
		}
		p.Backend, p.Machine, p.Rand = resilient.BackendCounted, m, ns(req.Seed)
	}
	c, rep, err := p.Hull2D(ctx, engine.Input2D{Full: req.Points, Work: req.Points})
	if err != nil {
		return Response{}, err
	}
	// Echo the checksum of the points actually received — for a local
	// worker this is trivially req.Sum, but computing it keeps the
	// contract honest (and lets ChaosWorker corrupt it meaningfully).
	h := hullhash.New()
	h.Points2(req.Points)
	return Response{
		Shard: req.Shard,
		Chain: chain.Canonical(req.Points, c),
		Sum:   h.Sum(),
		Tier:  rep.Tier.String(),
	}, nil
}

// ChaosWorker decorates a Worker with the deterministic network failure
// modes of internal/fault: shard-slow (straggle past the hedge threshold),
// shard-drop (typed transport loss), shard-corrupt (a lying response), and
// peer-down (the worker dies for the rest of the run). Decisions ride the
// injector's HitAt keyed on (shard, attempt), so concurrent shard
// goroutines replay identically regardless of scheduling.
type ChaosWorker struct {
	Inner Worker
	// Inj is this worker's injector (the soak seeds one per worker from
	// plan.Seed ^ worker index, decorrelating peers deterministically).
	Inj *fault.Injector
	// SlowSleep is how long a shard-slow hit straggles (chosen above the
	// coordinator's ShardTimeout so an unhedged slow attempt fails).
	SlowSleep time.Duration

	deadOnce sync.Once
	dead     bool
}

// Name implements Worker, delegating so per-peer metrics and health rows
// name the real peer.
func (w *ChaosWorker) Name() string { return w.Inner.Name() }

// chaosKey packs (shard, attempt) into one occurrence key. Attempts are
// bounded by the coordinator's small ladder, so 16 bits is generous.
func chaosKey(req Request) uint64 { return uint64(req.Shard)<<16 | uint64(req.Attempt&0xFFFF) }

// Partial implements Worker.
func (w *ChaosWorker) Partial(ctx context.Context, req Request) (Response, error) {
	const op = "shard.ChaosWorker"
	w.deadOnce.Do(func() { w.dead = w.Inj.HitAt(fault.PeerDown, 0) })
	if w.dead {
		return Response{}, hullerr.New(hullerr.Internal, op, "peer %s is down", w.Name())
	}
	key := chaosKey(req)
	if w.Inj.HitAt(fault.ShardDrop, key) {
		return Response{}, hullerr.New(hullerr.Internal, op,
			"shard %d attempt %d dropped on the wire", req.Shard, req.Attempt)
	}
	if w.Inj.HitAt(fault.ShardSlow, key) {
		if !sleepCtx(ctx, w.SlowSleep) {
			return Response{}, hullerr.FromContext(op, ctx.Err())
		}
	}
	resp, err := w.Inner.Partial(ctx, req)
	if err != nil {
		return resp, err
	}
	if w.Inj.HitAt(fault.ShardCorrupt, key) {
		resp = corrupt(resp, key)
	}
	return resp, err
}

// corrupt deterministically damages a response — a lifted vertex, a
// truncated chain, or a clobbered checksum — choosing the variant from the
// occurrence key so reruns damage identically. Every variant must be
// caught by the coordinator's verify.
func corrupt(resp Response, key uint64) Response {
	out := resp
	out.Chain = append([]geom.Point(nil), resp.Chain...)
	switch {
	case key%3 == 0 && len(out.Chain) > 0:
		v := out.Chain[int(key/3)%len(out.Chain)]
		v.Y += 1e9
		out.Chain[int(key/3)%len(out.Chain)] = v
	case key%3 == 1 && len(out.Chain) > 1:
		out.Chain = out.Chain[:len(out.Chain)-1]
	default:
		out.Sum.Lo ^= 0xDEADBEEF
		out.Sum.Hi ^= 0xF00D
	}
	return out
}
