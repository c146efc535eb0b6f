package core

import (
	"context"
	"testing"

	"lumos/internal/analysis"
	"lumos/internal/collective"
	"lumos/internal/execgraph"
	"lumos/internal/manip"
	"lumos/internal/model"
	"lumos/internal/parallel"
	"lumos/internal/planner"
	"lumos/internal/replay"
	"lumos/internal/replay/replayref"
	"lumos/internal/topology"
	"lumos/internal/trace"
)

// The oracle tests hold every production replay — all of which run the
// compiled engine — to the reference interpreter in replay/replayref: the
// same graph, with its what-if durations built through an
// execgraph.Retimed view and replayed by the interpreter, must give the
// same iteration time bit for bit.

// oracleReplay replays a retimed view on a fresh reference interpreter.
func oracleReplay(t *testing.T, v *execgraph.Retimed) trace.Dur {
	t.Helper()
	res, err := replayref.NewSimulator(replay.DefaultOptions()).RunRetimed(v)
	if err != nil {
		t.Fatal(err)
	}
	return res.Makespan
}

// oracleSynth re-synthesizes a target deployment on the campaign fabric,
// the graph the structural cache shares across a point's siblings.
func oracleSynth(t *testing.T, st *BaseState, target parallel.Config) *manip.GraphResult {
	t.Helper()
	out, err := manip.PredictGraphWith(manip.Request{Base: st.Config, Target: target}, st.Library, st.Fitted, st.Fabric)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// oracleCase pairs a campaign scenario with its reference prediction and
// the engine runs evaluating it costs: one per what-if, none for the
// baseline (the prepared base replay) or for synthesis predictions, which
// no replay engine enters.
type oracleCase struct {
	sc   Scenario
	runs int64
	want func(t *testing.T, st *BaseState) trace.Dur
}

// oracleCampaign is a fig7/fig8-flavored campaign with every scenario kind:
// the scale grid (fig7), architecture variants (fig8), kernel-level
// what-ifs and fusion (retimed replays of the base graph), fabric and
// degrade overrides, and every pipeline schedule.
func oracleCampaign(world int) []oracleCase {
	synth := func(transform func(parallel.Config) parallel.Config) func(*testing.T, *BaseState) trace.Dur {
		return func(t *testing.T, st *BaseState) trace.Dur {
			return oracleSynth(t, st, transform(st.Config)).Iteration
		}
	}
	onFabric := func(resolve func(*testing.T, *BaseState) topology.Fabric) func(*testing.T, *BaseState) trace.Dur {
		return func(t *testing.T, st *BaseState) trace.Dur {
			f := resolve(t, st)
			out, err := manip.PredictGraphOnFabric(manip.Request{Base: st.Config, Target: st.Config},
				st.Library, st.Fitted, f, collective.For(f), collective.For(st.Fabric))
			if err != nil {
				t.Fatal(err)
			}
			return out.Iteration
		}
	}
	scale := func(class trace.KernelClass, factor float64) oracleCase {
		return oracleCase{ClassScaleScenario(class, factor), 1, func(t *testing.T, st *BaseState) trace.Dur {
			v := execgraph.NewRetimed(st.Graph)
			v.Scale(func(tk *execgraph.Task) bool { return tk.Class == class }, factor)
			return oracleReplay(t, v)
		}}
	}
	arch := func(a model.Arch) oracleCase {
		return oracleCase{ArchScenario(a), 0, synth(func(c parallel.Config) parallel.Config {
			c.Arch = a
			return c
		})}
	}
	sched := func(spec string, pol parallel.SchedulePolicy, virtual int) oracleCase {
		return oracleCase{ScheduleScenario(spec), 0, synth(func(c parallel.Config) parallel.Config {
			c.Schedule, c.VirtualStages = pol, virtual
			return c
		})}
	}

	var cases []oracleCase
	for _, pp := range []int{1, 2} {
		for _, dp := range []int{1, 2} {
			m := topology.Mapping{TP: 2, PP: pp, DP: dp}
			cases = append(cases, oracleCase{DeploymentScenario(model.GPT3_15B(), 2, pp, dp), 0,
				synth(func(c parallel.Config) parallel.Config {
					c.Arch, c.Map = model.GPT3_15B(), m
					return c
				})})
		}
	}
	return append(cases,
		oracleCase{BaselineScenario(), 0, func(t *testing.T, st *BaseState) trace.Dur {
			return oracleReplay(t, execgraph.NewRetimed(st.Graph))
		}},
		arch(model.GPT3_V1()),
		arch(model.GPT3_V2()),
		scale(trace.KCGEMM, 0.5),
		scale(trace.KCComm, 1.7),
		oracleCase{FusionScenario(), 1, func(t *testing.T, st *BaseState) trace.Dur {
			v := execgraph.NewRetimed(st.Graph)
			analysis.ApplyFusion(v, analysis.DefaultFusionOpts())
			return oracleReplay(t, v)
		}},
		oracleCase{FabricScenario("oversub", topology.OversubscribedFabric(world, 4)), 0,
			onFabric(func(*testing.T, *BaseState) topology.Fabric { return topology.OversubscribedFabric(world, 4) })},
		oracleCase{DegradeLinksScenario(0.7), 0, onFabric(func(t *testing.T, st *BaseState) topology.Fabric {
			f, err := topology.Degrade(st.Fabric, 0.7)
			if err != nil {
				t.Fatal(err)
			}
			return f
		})},
		sched("1f1b", parallel.OneFOneB, 0),
		sched("gpipe", parallel.GPipe, 0),
		sched("interleaved2", parallel.Interleaved, 2),
		sched("zb-h1", parallel.ZBH1, 0),
	)
}

// TestOracleCampaign evaluates the campaign on the production engine and
// holds every result to its reference: replaying scenarios to the
// interpreter on the same retimed graph, synthesis scenarios to an
// independent re-synthesis. The engine counters must show that exactly
// the what-ifs ran a replay, so no synthesis prediction can depend on the
// engine.
func TestOracleCampaign(t *testing.T) {
	ctx := context.Background()
	tk := New(WithSeed(42), WithConcurrency(4))
	st, err := tk.Prepare(ctx, testConfig(t), 42)
	if err != nil {
		t.Fatal(err)
	}
	cases := oracleCampaign(st.Config.Map.WorldSize())
	scenarios := make([]Scenario, len(cases))
	var wantRuns int64
	for i, c := range cases {
		scenarios[i] = c.sc
		wantRuns += c.runs
	}
	_, runs0 := tk.EngineStats()
	sweep, err := tk.EvaluateState(ctx, st, scenarios...)
	if err != nil {
		t.Fatal(err)
	}
	if _, runs1 := tk.EngineStats(); runs1-runs0 != wantRuns {
		t.Fatalf("campaign ran %d replays, want %d (one per what-if)", runs1-runs0, wantRuns)
	}
	byName := make(map[string]ScenarioResult, len(sweep.Results))
	for _, r := range sweep.Results {
		byName[r.Name] = r
	}
	kinds := map[string]bool{}
	for _, c := range cases {
		got, ok := byName[c.sc.Name()]
		if !ok || !got.Feasible() {
			t.Fatalf("%s: missing or infeasible result %+v", c.sc.Name(), got)
		}
		kinds[got.Kind] = true
		if want := c.want(t, st); got.Iteration != want {
			t.Errorf("%s (%s): iteration %d, reference %d", c.sc.Name(), got.Kind, got.Iteration, want)
		}
	}
	for _, k := range []string{"baseline", "deploy", "arch", "whatif-scale", "whatif-fusion", "fabric", "schedule"} {
		if !kinds[k] {
			t.Errorf("campaign covers no %q scenario", k)
		}
	}
}

// oraclePlanSpace is a small but heterogeneous plan space spanning
// schedule, microbatch and degrade axes. Every point fits one 8-GPU node,
// so the network-only degrade leaves its collectives' prices unchanged;
// the {0.5} vector also halves NVLink and does re-price them.
func oraclePlanSpace() planner.Space {
	return planner.Space{
		PP:         []int{1, 2, 4},
		DP:         []int{1, 2},
		Microbatch: []int{4, 6, 8},
		Schedules:  []string{"1f1b", "interleaved2", "zb-h1"},
		Degrade:    [][]float64{nil, NetworkDegradeFactors(0.85), {0.5}},
	}
}

// TestOraclePlan runs branch-and-bound over the mixed space and holds every
// evaluated point to its reference: a degraded point to the interpreter
// replaying the point's synthesized graph with its collectives re-priced
// for the point's fabric through a Retimed view, a campaign-fabric point to
// its re-synthesis.
func TestOraclePlan(t *testing.T) {
	ctx := context.Background()
	tk := New(WithSeed(42), WithConcurrency(4))
	st, err := tk.Prepare(ctx, testConfig(t), 42)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tk.PlanState(ctx, st, oraclePlanSpace(),
		planner.WithStrategy(planner.BranchAndBound{}), planner.WithMemModel(roomyMem()))
	if err != nil {
		t.Fatal(err)
	}
	all := append(append([]planner.Evaluated{}, res.Frontier...), res.Dominated...)
	if len(all) == 0 {
		t.Fatal("plan evaluated no points")
	}
	basePricer := collective.For(st.Fabric)
	retimed, repriced := 0, 0
	for _, e := range all {
		out := oracleSynth(t, st, e.Point.Config(st.Config))
		want := out.Iteration
		if e.Point.Fabric != nil || len(e.Point.Degrade) > 0 {
			f, err := planner.ResolveFabric(e.Point, st.Fabric)
			if err != nil {
				t.Fatal(err)
			}
			g := out.Graph
			dur := make([]trace.Dur, len(g.Tasks))
			gdur := make([]trace.Dur, len(g.Tasks))
			for i := range g.Tasks {
				dur[i], gdur[i] = g.Tasks[i].Dur, g.Tasks[i].GroupDur
			}
			manip.NewCommRetimePlan(g, st.Library, basePricer).Retime(dur, gdur, collective.For(f))
			v := execgraph.NewRetimed(g)
			for i := range g.Tasks {
				if dur[i] != g.Tasks[i].Dur {
					v.SetDur(int32(i), dur[i])
					repriced++
				}
				if gdur[i] != g.Tasks[i].GroupDur {
					v.SetGroupDur(int32(i), gdur[i])
				}
			}
			want = oracleReplay(t, v)
			retimed++
		}
		if e.Iteration != want {
			t.Errorf("%s: iteration %d, reference %d", e.Point.Key(), e.Iteration, want)
		}
	}
	if retimed == 0 || retimed == len(all) {
		t.Fatalf("%d of %d evaluated points retimed; the space must mix both paths", retimed, len(all))
	}
	if repriced == 0 {
		t.Fatal("no retimed point re-priced a collective")
	}
}
