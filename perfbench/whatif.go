package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"sync"

	"lumos"
)

// whatif-retime: the GPT-3 15B 2x2x2 base is profiled and prepared once, in
// set-up, together with one warm-up op. Each op is one EvaluateState
// campaign of kernel-class scale what-ifs (GEMM, attention, comm) plus the
// fusion what-if, and one exhaustive PlanState over fabrics {campaign,
// nvl72, spine4} × two network degrade factors at the base point. The
// factors are drawn from the seed, so the scenario memo rarely hits. One
// caller, concurrency 2, closed loop.

// whatIfInputs are one op's seeded factors.
type whatIfInputs struct {
	gemm, attn, comm float64
	degrade          [2]float64
}

type whatIf struct {
	r       *runner
	cfg     lumos.Config
	m       *lumos.Multi
	tk      *lumos.Toolkit
	st      *lumos.BaseState
	fabrics []lumos.Fabric

	mu      sync.Mutex
	digests map[int]string // op index → outcome digest
}

func runWhatIf(ctx context.Context, r *runner) (*result, error) {
	cfg, err := lumos.DeploymentConfig(lumos.GPT3_15B(), 2, 2, 2)
	if err != nil {
		return nil, err
	}
	cfg.Microbatches = 4
	w := &whatIf{r: r, cfg: cfg, digests: make(map[int]string)}
	for _, name := range []string{"nvl72", "spine4"} {
		f, err := lumos.FabricPreset(name, cfg.Map.WorldSize())
		if err != nil {
			return nil, err
		}
		w.fabrics = append(w.fabrics, f)
	}
	w.fabrics = append([]lumos.Fabric{nil}, w.fabrics...)
	setupS, err := r.setup(func(rep int) error {
		tk := lumos.New(lumos.WithConcurrency(workers))
		m, err := tk.Profile(ctx, cfg, r.profileSeed())
		if err != nil {
			return err
		}
		st, err := tk.PrepareTraces(ctx, cfg, m)
		if err != nil {
			return err
		}
		// Warm-up: synthesize and compile the base point's structure, so
		// the timed ops measure retime and replay.
		if _, _, err := w.evaluate(ctx, tk, st, w.inputs(1<<40+uint64(rep)), nil); err != nil {
			return err
		}
		w.tk, w.st, w.m = tk, st, m
		return nil
	})
	if err != nil {
		return nil, err
	}
	return r.run(ctx, &bench{
		clients: 1,
		op:      w.op,
		counters: func(context.Context) (counters, error) {
			cs := w.st.CacheStats()
			return counters{memoHits: cs.MemoHits, diskHits: cs.DiskHits, programs: cs.CompiledPrograms, runs: cs.CompiledRuns + cs.InterpretedRuns}, nil
		},
		gauges:   w.tk.WorkerGauges,
		check:    w.check,
		fidelity: w.fidelity,
	}, setupS)
}

// inputs draws op stream i's factors, rounded to six decimals: fine enough
// that the memo's hit rate does not grow over a run.
func (w *whatIf) inputs(stream uint64) whatIfInputs {
	rng := w.r.rng(stream)
	f := func(lo, hi float64) float64 { return math.Round((lo+(hi-lo)*rng.Float64())*1e6) / 1e6 }
	in := whatIfInputs{gemm: f(0.3, 1), attn: f(0.3, 1), comm: f(0.3, 1), degrade: [2]float64{f(0.25, 1), f(0.25, 1)}}
	if in.degrade[0] == in.degrade[1] {
		in.degrade[1] = math.Round((in.degrade[0]/2)*1e6) / 1e6
	}
	return in
}

// evaluate runs one op's campaign and plan and returns the outcome digest
// and the scenario lookups it requested.
func (w *whatIf) evaluate(ctx context.Context, tk *lumos.Toolkit, st *lumos.BaseState, in whatIfInputs, agg *layerAgg) (string, int, error) {
	sweep, err := tk.EvaluateState(ctx, st,
		lumos.ClassScaleScenario(lumos.KCGEMM, in.gemm),
		lumos.ClassScaleScenario(lumos.KCAttention, in.attn),
		lumos.ClassScaleScenario(lumos.KCComm, in.comm),
		lumos.FusionScenario(),
	)
	if err != nil {
		return "", 0, err
	}
	space := lumos.Space{
		Fabrics: w.fabrics,
		Degrade: [][]float64{lumos.NetworkDegradeFactors(in.degrade[0]), lumos.NetworkDegradeFactors(in.degrade[1])},
	}
	res, err := tk.PlanState(ctx, st, space, lumos.WithPlanStrategy(lumos.ExhaustiveStrategy()))
	if err != nil {
		return "", 0, err
	}
	if agg != nil {
		agg.addPlan(res.Stats)
	}
	digest, err := planDigest(res)
	if err != nil {
		return "", 0, err
	}
	var whatifs []string
	for _, s := range sweep.Results {
		if s.Err != "" {
			return "", 0, fmt.Errorf("what-if %s failed: %s", s.Name, s.Err)
		}
		whatifs = append(whatifs, fmt.Sprintf("%s=%d", s.Name, s.Iteration))
	}
	sort.Strings(whatifs)
	return strings.Join(whatifs, " ") + "; " + digest, len(sweep.Results) + res.Stats.SimRequests, nil
}

func (w *whatIf) op(ctx context.Context, i int, agg *layerAgg) (opOut, error) {
	var tr *lumos.Tracer
	if agg != nil {
		tr = lumos.NewTracer()
		ctx = lumos.ContextWithTracer(ctx, tr)
	}
	digest, lookups, err := w.evaluate(ctx, w.tk, w.st, w.inputs(uint64(i)), agg)
	if err != nil {
		return opOut{}, err
	}
	if agg != nil {
		agg.addEvents(tr.Events())
	}
	w.mu.Lock()
	w.digests[i] = digest
	w.mu.Unlock()
	return opOut{kind: "whatif", lookups: lookups}, nil
}

// check re-evaluates the first, middle and last completed ops on a fresh
// toolkit and state prepared from the same traces (no memo, fresh
// synthesis and compilation) and requires identical outcomes.
func (w *whatIf) check(ctx context.Context) (int, int, error) {
	w.mu.Lock()
	ids := make([]int, 0, len(w.digests))
	for i := range w.digests {
		ids = append(ids, i)
	}
	w.mu.Unlock()
	if len(ids) == 0 {
		return 0, 0, nil
	}
	sort.Ints(ids)
	sample := []int{ids[0], ids[len(ids)/2], ids[len(ids)-1]}
	tk := lumos.New(lumos.WithConcurrency(workers))
	st, err := tk.PrepareTraces(ctx, w.cfg, w.m)
	if err != nil {
		return 0, 0, err
	}
	failed := 0
	for _, i := range sample {
		got, _, err := w.evaluate(ctx, tk, st, w.inputs(uint64(i)), nil)
		if err != nil || got != w.digests[i] {
			fmt.Fprintf(os.Stderr, "perfbench: check failed: op %d re-evaluated differently (err %v)\n", i, err)
			failed++
		}
	}
	return len(sample), failed, nil
}

// fidelity: replay error of the base, and prediction error of degraded
// and re-fabricked base points against actual runs on those fabrics.
func (w *whatIf) fidelity(ctx context.Context) (fidelityResult, error) {
	var fid fidelityResult
	world := w.cfg.Map.WorldSize()
	space := lumos.Space{
		Fabrics: []lumos.Fabric{nil, w.fabrics[1]},
		Degrade: [][]float64{lumos.NetworkDegradeFactors(0.5), lumos.NetworkDegradeFactors(0.8)},
	}
	truth := func(p lumos.PlanPoint) (lumos.Fabric, error) {
		f := p.Fabric
		if f == nil {
			f = lumos.H100Cluster(world)
		}
		if len(p.Degrade) == 0 {
			return f, nil
		}
		return lumos.DegradeFabric(f, p.Degrade...)
	}
	err := planFidelity(ctx, &fid, w.cfg, space, truth)
	return fid, err
}
