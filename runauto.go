package inplacehull

import (
	"context"

	"inplacehull/internal/engine"
	"inplacehull/internal/resilient"
)

// Backend selects the execution engine of a run (RunConfig.Backend).
type Backend = resilient.Backend

const (
	// BackendAuto lets the entry point choose: Run2D/Run3D resolve it to
	// BackendCounted (an explicit *Machine pins the counted engine);
	// RunAuto2D/RunAuto3D and the serving layer resolve it to BackendNative.
	BackendAuto = resilient.BackendAuto
	// BackendCounted is the simulated CRCW PRAM engine: every step and
	// processor activation is counted, the resilient supervisor retries and
	// degrades, and the machine's Time/Work/PeakProcs counters measure the
	// run. This is the experiments and oracle engine.
	BackendCounted = resilient.BackendCounted
	// BackendNative is the direct host-speed engine (internal/native): the
	// same canonical hull, no step barriers, no work counters, parallelism
	// by binary forking. This is the serving engine.
	BackendNative = resilient.BackendNative
)

// RunAuto2D is Run2D without the machine: the entry point for callers
// that want the hull, not a measurement. BackendAuto resolves to
// BackendNative here — the run executes at host speed with no step
// barriers or work counters, and the report's TotalSteps/TotalWork are
// zero (wall time flows through cfg.Observer instead, as wall-time spans
// and steps==0 item charges). An explicit cfg.Backend of BackendCounted
// runs the counted engine on a temporary machine, so the supervised
// semantics of Run2D remain one field away:
//
//	res, rep, err := inplacehull.RunAuto2D(ctx, rnd, pts, inplacehull.RunConfig{})
//	// rep.Backend() == inplacehull.BackendNative
func RunAuto2D(ctx context.Context, rnd *Rand, pts []Point, cfg RunConfig) (Run2DResult, RunReport, error) {
	if cfg.Backend == BackendCounted {
		m := NewMachine()
		defer m.Close()
		return Run2D(ctx, m, rnd, pts, cfg)
	}
	return run2D(ctx, cfg.plan(BackendNative, rnd, nil, cfg.Observer), pts)
}

// RunAuto3D is Run3D without the machine (see RunAuto2D for the backend
// resolution and observer semantics).
func RunAuto3D(ctx context.Context, rnd *Rand, pts []Point3, cfg RunConfig) (Hull3DResult, RunReport, error) {
	if cfg.Backend == BackendCounted {
		m := NewMachine()
		defer m.Close()
		return Run3D(ctx, m, rnd, pts, cfg)
	}
	return cfg.plan(BackendNative, rnd, nil, cfg.Observer).Run3D(ctx, engine.Input3D{Full: pts, Work: pts})
}
