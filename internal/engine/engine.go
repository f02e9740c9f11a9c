// Package engine is the execution seam between the hull entry points and
// the two backends. The counted backend is the simulated-PRAM path: the
// resilient supervisor over internal/presorted and internal/unsorted,
// with bit-identical semantics, kept for experiments and as the parity
// oracle. The native backend is internal/native, the direct host-speed
// path the serving layer defaults to.
//
// Every hull request runs through one Plan (plan.go) once its backend
// and cull policy are resolved: filter, dispatch, lift. The root
// Run2D/Run3D/RunAuto2D/RunAuto3D entry points, internal/serve and the
// shard workers all call it, so a backend choice is one value
// (resilient.Backend), not a different call matrix.
package engine

import (
	"context"
	"runtime/debug"

	"inplacehull/internal/geom"
	"inplacehull/internal/hullerr"
	"inplacehull/internal/native"
	"inplacehull/internal/pram"
	"inplacehull/internal/resilient"
	"inplacehull/internal/unsorted"
)

// NativeEngine is the direct engine bound to one sink.
type NativeEngine struct {
	sink pram.Sink
}

// Native returns the direct engine. The native path consumes no
// randomness (its 3-d build follows the input order), so the seed is
// ignored; sink, when non-nil, receives wall-time spans and steps==0 item
// charges. The native path needs no supervision — its algorithms are
// deterministic and oracle-checked where randomness is involved — so
// options and Policy are accepted for symmetry with the counted calls and
// ignored, and reports always show one attempt. Context is honored at call boundaries (native
// runs are short; there are no step barriers to poll between).
func Native(_ uint64, sink pram.Sink) NativeEngine { return NativeEngine{sink: sink} }

// nativeReport is the direct engine's account: one attempt on the primary
// path, no counted cost (the native backend has no step or work counters —
// wall time flows through the sink instead).
func nativeReport() resilient.Report {
	return resilient.Report{Attempts: 1, Tier: resilient.TierRandomized, ExecBackend: resilient.BackendNative}
}

// run guards one native call: a done context fails typed before compute,
// and a panic becomes a typed Internal error carrying the stack — the same
// "typed error, never a panic" contract the supervisor gives counted runs.
func run[T any](ctx context.Context, op string, fn func() (T, error)) (out T, rep resilient.Report, err error) {
	rep = nativeReport()
	if ctx != nil {
		if cerr := ctx.Err(); cerr != nil {
			err = hullerr.FromContext(op, cerr)
			return
		}
	}
	defer func() {
		if rec := recover(); rec != nil {
			err = hullerr.New(hullerr.Internal, op, "panic: %v\n%s", rec, debug.Stack())
		}
	}()
	out, err = fn()
	return
}

// Hull2D is the §4.1 unsorted-input upper hull on the native backend.
func (e NativeEngine) Hull2D(ctx context.Context, pts []geom.Point, _ unsorted.Options, _ resilient.Policy) (unsorted.Result2D, resilient.Report, error) {
	return run(ctx, "engine.Native.Hull2D", func() (unsorted.Result2D, error) {
		return native.Upper2D(pts, e.sink)
	})
}

// Hull3D is the §4.3 cap structure on the native backend.
func (e NativeEngine) Hull3D(ctx context.Context, pts []geom.Point3, _ unsorted.Options3D, _ resilient.Policy) (unsorted.Result3D, resilient.Report, error) {
	return run(ctx, "engine.Native.Hull3D", func() (unsorted.Result3D, error) {
		return native.Hull3D(pts, e.sink)
	})
}

// NativeHull3DFrom is the culled-admission variant of the native 3-d
// path: the incremental hull runs over culled, caps are assigned and
// oracle-checked over full (see native.Hull3DFrom). Only the native
// backend can honor it — counted 3-d facet identities are not stable
// under input subsetting. The seed is ignored, as in Native.
func NativeHull3DFrom(ctx context.Context, _ uint64, full, culled []geom.Point3, sink pram.Sink) (unsorted.Result3D, resilient.Report, error) {
	return run(ctx, "engine.Native.Hull3DFrom", func() (unsorted.Result3D, error) {
		return native.Hull3DFrom(full, culled, sink)
	})
}

// NativeChain2D is the chain-only native entry with the engine's guard
// semantics (context check, panic-to-typed-Internal). The streaming
// subsystem's full-rebuild fallback runs through it so a poisoned rebuild
// surfaces as a typed error the mutation path can roll back on.
func NativeChain2D(ctx context.Context, pts []geom.Point, sink pram.Sink) ([]geom.Point, resilient.Report, error) {
	return run(ctx, "engine.Native.Chain2D", func() ([]geom.Point, error) {
		return native.Chain2D(pts, sink)
	})
}
