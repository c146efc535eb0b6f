package main

import (
	"context"
	"math"

	"lumos"
)

// The fidelity panel: every workload profiles its validation base at
// fidelitySeed and compares against ground-truth runs at heldOutRuns seeds
// from heldOutSeed. Both lie above every seed the workloads profile with
// (runner.profileSeed), so no ground-truth run was ever used for profiling.
// The panel is fixed, so the error figures repeat exactly from run to run;
// any change is a change in what the simulator predicts.
const (
	fidelitySeed = 1 << 62
	heldOutSeed  = fidelitySeed + 1000
	heldOutRuns  = 3
)

// errAcc accumulates relative errors |predicted − actual| / actual.
type errAcc struct {
	sum float64
	n   int
}

func (a *errAcc) add(predicted float64, actual []float64) {
	for _, v := range actual {
		a.sum += math.Abs(predicted-v) / v
		a.n++
	}
}

// pct is the mean relative error in percent.
func (a errAcc) pct() float64 {
	if a.n == 0 {
		return 0
	}
	return 100 * a.sum / float64(a.n)
}

// fidelityResult is a workload's replay error (the profiled base replayed
// vs actual runs of it, the paper's Fig 5) and prediction error (predicted
// target configs vs actual runs of them, Figs 7/8).
type fidelityResult struct {
	replay, predict errAcc
}

// actualRuns returns the ground-truth iteration times of cfg at the
// held-out seeds, run on fabric (nil = the toolkit default).
func actualRuns(ctx context.Context, cfg lumos.Config, fabric lumos.Fabric) ([]float64, error) {
	var opts []lumos.Option
	if fabric != nil {
		opts = append(opts, lumos.WithFabric(fabric))
	}
	tk := lumos.New(opts...)
	out := make([]float64, 0, heldOutRuns)
	for h := uint64(0); h < heldOutRuns; h++ {
		m, err := tk.Profile(ctx, cfg, heldOutSeed+h)
		if err != nil {
			return nil, err
		}
		out = append(out, float64(lumos.IterationTime(m)))
	}
	return out, nil
}

// planFidelity profiles base at the fidelity seed, adds its replay error,
// plans space exhaustively from that profile, and adds the prediction
// error of every simulated point against actual runs of it on the fabric
// truth resolves for the point.
func planFidelity(ctx context.Context, fid *fidelityResult, base lumos.Config, space lumos.Space,
	truth func(lumos.PlanPoint) (lumos.Fabric, error), opts ...lumos.PlanOption) error {
	tk := lumos.New(lumos.WithConcurrency(workers))
	m, err := tk.Profile(ctx, base, fidelitySeed)
	if err != nil {
		return err
	}
	st, err := tk.PrepareTraces(ctx, base, m)
	if err != nil {
		return err
	}
	actual, err := actualRuns(ctx, base, nil)
	if err != nil {
		return err
	}
	fid.replay.add(float64(st.Iteration), actual)
	res, err := tk.PlanState(ctx, st, space, append([]lumos.PlanOption{lumos.WithPlanStrategy(lumos.ExhaustiveStrategy())}, opts...)...)
	if err != nil {
		return err
	}
	for _, e := range append(append([]lumos.PlanEvaluated(nil), res.Frontier...), res.Dominated...) {
		var f lumos.Fabric
		if truth != nil {
			if f, err = truth(e.Point); err != nil {
				return err
			}
		}
		actual, err := actualRuns(ctx, e.Point.Config(base), f)
		if err != nil {
			return err
		}
		fid.predict.add(float64(e.Iteration), actual)
	}
	return nil
}
