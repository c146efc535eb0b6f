package main

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lumos"
)

// cli-plan: one op is what one
//
//	lumos plan -strategy exhaustive -zero 1 -gpu-mem-gib 141 -in <dir> \
//	    -pp-range 3,4 -dp-range 1,2 -mb-range 4,8 -schedule 1f1b,zb-h1
//
// invocation pays: a fresh toolkit with no disk cache decodes the rank
// traces, prepares the campaign state and plans the 16-point space
// exhaustively. Ops alternate between a GPT-3 15B and a GPT-3 V3 base
// (same mapping and layer count, so the same event count and plan cost).
// One caller, closed loop.

// cliSpace is the plan space of every cli-plan op.
var cliSpace = lumos.Space{
	PP:         []int{3, 4},
	DP:         []int{1, 2},
	Microbatch: []int{4, 8},
	Schedules:  []string{"1f1b", "zb-h1"},
}

// cliPlanOptions are the plan flags of the invocation: exhaustive search,
// 141 GiB devices with ZeRO-1 optimizer sharding (so every V3 point fits).
func cliPlanOptions() []lumos.PlanOption {
	return []lumos.PlanOption{
		lumos.WithPlanStrategy(lumos.ExhaustiveStrategy()),
		lumos.WithMemoryModel(lumos.MemoryModel{GPUMemBytes: 141 << 30, ZeRO: lumos.ZeROOptimizer}),
	}
}

type cliBase struct {
	cfg lumos.Config
	dir string
}

type cliPlan struct {
	bases []cliBase
	opts  []lumos.PlanOption

	cur                  atomic.Pointer[lumos.Toolkit] // toolkit of the op in flight
	hits, programs, runs atomic.Int64                  // summed over every op's toolkit

	mu   sync.Mutex
	want map[int]string // first plan digest per base
}

func runCLIPlan(ctx context.Context, r *runner) (*result, error) {
	w := &cliPlan{opts: cliPlanOptions(), want: make(map[int]string)}
	archs := []lumos.Arch{lumos.GPT3_15B(), lumos.GPT3_V3()}
	setupS, err := r.setup(func(rep int) error {
		w.bases = w.bases[:0]
		for i, arch := range archs {
			cfg, err := lumos.DeploymentConfig(arch, 2, 2, 1)
			if err != nil {
				return err
			}
			cfg.Microbatches = 4
			// `lumos tracegen`: profile on the simulated substrate and
			// write rank_*.json.
			m, err := lumos.New().Profile(ctx, cfg, r.profileSeed())
			if err != nil {
				return err
			}
			dir := r.path("traces", strconv.Itoa(rep), strconv.Itoa(i))
			if err := lumos.SaveTraces(m, dir); err != nil {
				return err
			}
			w.bases = append(w.bases, cliBase{cfg: cfg, dir: dir})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return r.run(ctx, &bench{
		clients: 1,
		op:      w.op,
		counters: func(context.Context) (counters, error) {
			return counters{memoHits: w.hits.Load(), programs: w.programs.Load(), runs: w.runs.Load()}, nil
		},
		gauges: func() (int64, int64) {
			if tk := w.cur.Load(); tk != nil {
				return tk.WorkerGauges()
			}
			return 0, 0
		},
		check: func(context.Context) (int, int, error) { return 0, 0, nil },
		fidelity: func(ctx context.Context) (fidelityResult, error) {
			var fid fidelityResult
			sample := lumos.Space{PP: []int{4}, DP: []int{2}, Microbatch: []int{8}, Schedules: []string{"1f1b", "zb-h1"}}
			for _, b := range w.bases {
				if err := planFidelity(ctx, &fid, b.cfg, sample, nil, w.opts...); err != nil {
					return fid, err
				}
			}
			return fid, nil
		},
	}, setupS)
}

// op runs one plan invocation against base i%2 and checks that it matches
// the first plan of that base in this run.
func (w *cliPlan) op(ctx context.Context, i int, agg *layerAgg) (opOut, error) {
	b := w.bases[i%len(w.bases)]
	tk := lumos.New(lumos.WithConcurrency(workers))
	w.cur.Store(tk)
	var tr *lumos.Tracer
	if agg != nil {
		tr = lumos.NewTracer()
		ctx = lumos.ContextWithTracer(ctx, tr)
	}
	g0, t0 := readGoCounters(), time.Now()
	m, err := lumos.LoadTraces(b.dir)
	if err != nil {
		return opOut{}, err
	}
	if agg != nil {
		agg.addDecode(time.Since(t0), readGoCounters().allocBytes-g0.allocBytes)
	}
	st, err := tk.PrepareTraces(ctx, b.cfg, m)
	if err != nil {
		return opOut{}, err
	}
	res, err := tk.PlanState(ctx, st, cliSpace, w.opts...)
	if err != nil {
		return opOut{}, err
	}
	cs := st.CacheStats()
	w.hits.Add(cs.MemoHits + cs.DiskHits)
	w.programs.Add(cs.CompiledPrograms)
	w.runs.Add(cs.CompiledRuns + cs.InterpretedRuns)
	if agg != nil {
		agg.addEvents(tr.Events())
		agg.addPlan(res.Stats)
	}
	got, err := planDigest(res)
	if err != nil {
		return opOut{}, err
	}
	w.mu.Lock()
	want, seen := w.want[i%len(w.bases)]
	if !seen {
		w.want[i%len(w.bases)] = got
	}
	w.mu.Unlock()
	if seen && got != want {
		return opOut{}, fmt.Errorf("plan of base %d differs from its first plan in this run:\n got %s\nwant %s", i%len(w.bases), got, want)
	}
	return opOut{kind: "cli", lookups: res.Stats.SimRequests}, nil
}

// planDigest renders a plan's best point and every simulated iteration
// time canonically, so two plans of identical inputs compare equal exactly
// when they predict identical times and the same best point.
func planDigest(res *lumos.PlanResult) (string, error) {
	best, ok := res.Best()
	if !ok {
		return "", fmt.Errorf("plan found no feasible point")
	}
	var pts []string
	for _, e := range append(append([]lumos.PlanEvaluated(nil), res.Frontier...), res.Dominated...) {
		if e.Err != "" {
			return "", fmt.Errorf("plan point %s failed: %s", e.Point.Key(), e.Err)
		}
		pts = append(pts, fmt.Sprintf("%s=%d", e.Point.Key(), e.Iteration))
	}
	sort.Strings(pts)
	return "best " + best.Point.Key() + "; " + strings.Join(pts, " "), nil
}
