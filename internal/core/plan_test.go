package core

import (
	"context"
	"reflect"
	"testing"

	"lumos/internal/manip"
	"lumos/internal/memcost"
	"lumos/internal/planner"
)

// planSpace is a fig7-style grid over pipeline/data parallelism and
// microbatch count.
func planSpace() planner.Space {
	return planner.Space{
		PP:         []int{1, 2},
		DP:         []int{1, 2},
		Microbatch: []int{4, 8},
	}
}

// roomyMem keeps every grid point memory-feasible so the tests exercise
// the search, not the pre-filter.
func roomyMem() memcost.Model {
	return memcost.Model{GPUMemBytes: 192 << 30, ZeRO: memcost.ZeROOptimizer}
}

func TestPlanStrategiesAgreeWithExhaustive(t *testing.T) {
	ctx := context.Background()
	tk := New(WithConcurrency(4))
	base := testConfig(t)
	st, err := tk.Prepare(ctx, base, 42)
	if err != nil {
		t.Fatal(err)
	}

	ex, err := tk.PlanState(ctx, st, planSpace(),
		planner.WithStrategy(planner.Exhaustive{}), planner.WithMemModel(roomyMem()))
	if err != nil {
		t.Fatal(err)
	}
	exBest, ok := ex.Best()
	if !ok {
		t.Fatal("exhaustive plan found nothing")
	}
	if ex.Stats.Simulated != ex.Stats.Feasible {
		t.Fatalf("exhaustive simulated %d of %d", ex.Stats.Simulated, ex.Stats.Feasible)
	}

	for _, strat := range []planner.Strategy{planner.Exhaustive{}, planner.BranchAndBound{}, nil} {
		res, err := tk.PlanState(ctx, st, planSpace(),
			planner.WithStrategy(strat), planner.WithMemModel(roomyMem()))
		if err != nil {
			t.Fatal(err)
		}
		if strat == nil && res.Strategy != "bnb" {
			t.Fatalf("default strategy reported %q, want bnb", res.Strategy)
		}
		if res.Strategy != "exhaustive" && res.Stats.Simulated >= ex.Stats.Simulated {
			t.Fatalf("%s simulated %d, want fewer than exhaustive's %d",
				res.Strategy, res.Stats.Simulated, ex.Stats.Simulated)
		}
		best, ok := res.Best()
		if !ok {
			t.Fatalf("%s found nothing", res.Strategy)
		}
		if best.Point.Key() != exBest.Point.Key() || best.Iteration != exBest.Iteration {
			t.Fatalf("%s best %s (%v) != exhaustive best %s (%v)",
				res.Strategy, best.Point.Key(), best.Iteration, exBest.Point.Key(), exBest.Iteration)
		}
	}
}

// TestPlanRepeatHitsScenarioCache asserts a repeated plan on one campaign
// state is served by the scenario cache: a second default (bnb) plan over
// the same space must hit the memo for every point it simulates and add
// no memo entries.
func TestPlanRepeatHitsScenarioCache(t *testing.T) {
	ctx := context.Background()
	tk := New(WithConcurrency(4))
	base := testConfig(t)
	st, err := tk.Prepare(ctx, base, 42)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *planner.Result {
		t.Helper()
		res, err := tk.PlanState(ctx, st, planSpace(), planner.WithMemModel(roomyMem()))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := run()
	hits0, entries0 := st.MemoStats()
	second := run()
	hits1, entries1 := st.MemoStats()
	if second.Stats.Simulated == 0 || !reflect.DeepEqual(first.Stats, second.Stats) {
		t.Fatalf("repeat plan stats differ: %+v vs %+v", first.Stats, second.Stats)
	}
	if got, want := hits1-hits0, int64(second.Stats.SimRequests); got != want {
		t.Fatalf("repeat plan hit the memo %d times for %d requests", got, want)
	}
	if entries1 != entries0 {
		t.Fatalf("repeat plan grew the memo from %d to %d entries", entries0, entries1)
	}
}

// TestPlanDeterministicAcrossWorkers asserts bit-identical default-strategy
// plan results at WithConcurrency(1) and WithConcurrency(8).
func TestPlanDeterministicAcrossWorkers(t *testing.T) {
	base := testConfig(t)
	run := func(workers int) *planner.Result {
		t.Helper()
		tk := New(WithConcurrency(workers), WithSeed(42))
		res, err := tk.Plan(context.Background(), base, planSpace(), planner.WithMemModel(roomyMem()))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("plan results differ between 1 and 8 workers:\n%+v\nvs\n%+v", a, b)
	}
}

// TestPlanFabricPoints exercises points that override the fabric and
// degrade links: they must simulate (repricing communication) and carry
// distinct iteration times.
func TestPlanFabricPoints(t *testing.T) {
	ctx := context.Background()
	tk := New(WithConcurrency(4))
	base := testConfig(t)
	st, err := tk.Prepare(ctx, base, 42)
	if err != nil {
		t.Fatal(err)
	}
	space := planner.Space{
		Degrade: [][]float64{nil, {0.5}},
	}
	res, err := tk.PlanState(ctx, st, space,
		planner.WithStrategy(planner.Exhaustive{}), planner.WithMemModel(roomyMem()))
	if err != nil {
		t.Fatal(err)
	}
	all := append(append([]planner.Evaluated{}, res.Frontier...), res.Dominated...)
	if len(all) != 2 {
		t.Fatalf("evaluated %d points, want 2", len(all))
	}
	if all[0].Iteration == all[1].Iteration {
		t.Fatal("halved-bandwidth point predicted identical to nominal")
	}
	var nominal, degraded planner.Evaluated
	for _, e := range all {
		if len(e.Point.Degrade) == 0 {
			nominal = e
		} else {
			degraded = e
		}
	}
	if degraded.Iteration <= nominal.Iteration {
		t.Fatalf("degraded links predicted faster: %v vs %v", degraded.Iteration, nominal.Iteration)
	}
}

// TestPlanSharedStructureRetime covers the structural batch-replay path:
// fabric/degrade points re-time one shared synthesized graph instead of
// re-synthesizing, the sharing is counted in Stats, and the replayed
// prediction stays within 2% of the direct per-point synthesis path.
func TestPlanSharedStructureRetime(t *testing.T) {
	ctx := context.Background()
	tk := New(WithConcurrency(4))
	base := testConfig(t)
	st, err := tk.Prepare(ctx, base, 42)
	if err != nil {
		t.Fatal(err)
	}
	space := planner.Space{
		PP:      []int{1, 2},
		Degrade: [][]float64{nil, {0.5}, {0.25}},
	}
	res, err := tk.PlanState(ctx, st, space,
		planner.WithStrategy(planner.Exhaustive{}), planner.WithMemModel(roomyMem()))
	if err != nil {
		t.Fatal(err)
	}
	all := append(append([]planner.Evaluated{}, res.Frontier...), res.Dominated...)
	if len(all) != 6 {
		t.Fatalf("evaluated %d points, want 6", len(all))
	}
	if res.Stats.SharedStructure != 4 {
		t.Fatalf("SharedStructure = %d, want 4 (the degraded points)", res.Stats.SharedStructure)
	}
	for _, e := range all {
		if len(e.Point.Degrade) == 0 {
			continue
		}
		f, err := planner.ResolveFabric(e.Point, st.Fabric)
		if err != nil {
			t.Fatal(err)
		}
		out, err := manip.PredictGraphOnFabric(
			manip.Request{Base: st.Config, Target: e.Point.Config(st.Config)},
			st.Library, st.Fitted, f, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		diff := float64(e.Iteration) - float64(out.Iteration)
		if diff < 0 {
			diff = -diff
		}
		if rel := diff / float64(out.Iteration); rel > 0.02 {
			t.Errorf("%s: retimed %v vs direct synthesis %v (%.2f%% apart)",
				e.Point.Key(), e.Iteration, out.Iteration, 100*rel)
		}
	}
}

// TestPlanBnBDeterministicWithSharing: branch-and-bound over a space with
// a degrade axis (stressing the shared-structure path) is bit-identical
// at any worker count, including the sharing counters.
func TestPlanBnBDeterministicWithSharing(t *testing.T) {
	base := testConfig(t)
	run := func(workers int) *planner.Result {
		t.Helper()
		tk := New(WithConcurrency(workers), WithSeed(42))
		res, err := tk.Plan(context.Background(), base, planner.Space{
			PP:         []int{1, 2},
			Microbatch: []int{4, 8},
			Degrade:    [][]float64{nil, {0.5}},
		}, planner.WithStrategy(planner.BranchAndBound{}), planner.WithMemModel(roomyMem()))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("bnb plan results differ between 1 and 8 workers:\n%+v\nvs\n%+v", a, b)
	}
}

// TestPlanProfilesOnce asserts Plan pays one profile and one calibration
// regardless of how many points it simulates.
func TestPlanProfilesOnce(t *testing.T) {
	tk := New(WithConcurrency(4))
	base := testConfig(t)
	if _, err := tk.Plan(context.Background(), base, planSpace(),
		planner.WithStrategy(planner.Exhaustive{}), planner.WithMemModel(roomyMem())); err != nil {
		t.Fatal(err)
	}
	profiles, libs := tk.Counters()
	if profiles != 1 || libs != 1 {
		t.Fatalf("plan used %d profiles and %d calibrations, want 1 and 1", profiles, libs)
	}
}
