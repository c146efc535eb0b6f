package lumos

import (
	"context"
	"reflect"
	"testing"
)

// planSpace is a small but heterogeneous plan space spanning schedule,
// microbatch, and degrade axes.
func planSpace() Space {
	return Space{
		PP:         []int{1, 2, 4},
		DP:         []int{1, 2},
		Microbatch: []int{4, 6, 8},
		Schedules:  []string{"1f1b", "interleaved2", "zb-h1"},
		Degrade:    [][]float64{nil, NetworkDegradeFactors(0.85)},
	}
}

// TestPlanDeterminismAcrossWorkers verifies the parallel batch evaluator:
// branch-and-bound (whose tie-batching hands the sweep worker pool
// multi-point rounds) must return identical evaluations, stats, and
// frontier at 1 and 8 workers.
func TestPlanDeterminismAcrossWorkers(t *testing.T) {
	ctx := context.Background()
	base := sweepBase(t)
	mem := MemoryModel{GPUMemBytes: 192 << 30, ZeRO: ZeROOptimizer}

	run := func(workers int) *PlanResult {
		t.Helper()
		tk := New(WithSeed(42), WithConcurrency(workers), WithScenarioCache(false))
		res, err := tk.Plan(ctx, base, planSpace(),
			WithPlanStrategy(BranchAndBoundStrategy()), WithMemoryModel(mem))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	wide := run(8)
	if !reflect.DeepEqual(serial.Frontier, wide.Frontier) {
		t.Fatal("bnb frontier depends on worker count")
	}
	if !reflect.DeepEqual(serial.Dominated, wide.Dominated) {
		t.Fatal("bnb dominated ranking depends on worker count")
	}
	if serial.Stats != wide.Stats {
		t.Fatalf("bnb stats depend on worker count: %+v vs %+v", serial.Stats, wide.Stats)
	}
}

// TestEngineCountersSurface checks the observability contract: a campaign
// reports program lowerings and compiled runs, and no interpreted runs —
// every replay runs the compiled engine.
func TestEngineCountersSurface(t *testing.T) {
	ctx := context.Background()
	base := sweepBase(t)

	tk := New(WithSeed(42))
	st, err := tk.Prepare(ctx, base, 42)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.EvaluateState(ctx, st, ClassScaleScenario(KCGEMM, 0.5), FusionScenario()); err != nil {
		t.Fatal(err)
	}
	cs := st.CacheStats()
	if cs.CompiledPrograms == 0 || cs.CompiledRuns == 0 {
		t.Fatalf("campaign reported no engine activity: %+v", cs)
	}
	if cs.InterpretedRuns != 0 {
		t.Fatalf("campaign reported interpreted runs: %+v", cs)
	}
}
