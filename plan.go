// Deployment-planner façade: exact search over the joint parallelism ×
// microbatch × fabric space with a memory-feasibility model and
// multi-objective output.
//
//	tk := lumos.New(lumos.WithConcurrency(8))
//	base, _ := lumos.DeploymentConfig(lumos.GPT3_15B(), 2, 2, 2)
//	res, _ := tk.Plan(ctx, base, lumos.Space{
//		PP:         []int{1, 2, 4},
//		DP:         []int{1, 2, 4},
//		Microbatch: []int{4, 8},
//	}, lumos.WithMemoryModel(lumos.MemoryModel{ZeRO: lumos.ZeROOptimizer}))
//	for _, p := range res.Frontier {
//		fmt.Println(p.Point.Key(), p.Iteration, p.Mem)
//	}
//
// The base is profiled once; the planner's memory model rules out
// configurations that would OOM before simulation time is spent, analytic
// roofline + collective-pricer bounds rank the rest, and the default
// branch-and-bound strategy simulates only the points whose admissible
// bound could still beat the incumbent. The result is the Pareto frontier
// over (iteration time, GPU count, peak memory) of the simulated points,
// with ranked dominated points retained; ExhaustiveStrategy simulates
// every feasible point and so gives the full frontier.
package lumos

import (
	"lumos/internal/memcost"
	"lumos/internal/planner"
)

// Planner types, re-exported from the engine.
type (
	// Space declares ranges over deployment knobs (TP/PP/DP, microbatch,
	// fabrics, degrade factors); empty dimensions pin the base's value.
	// The cross product expands lazily.
	Space = planner.Space
	// PlanPoint is one coordinate of a Space.
	PlanPoint = planner.Point
	// PlanCandidate is a point annotated with the analytic pre-filter's
	// verdicts (memory estimate, cost bound, infeasibility reason).
	PlanCandidate = planner.Candidate
	// PlanEvaluated is a candidate with its simulated iteration time.
	PlanEvaluated = planner.Evaluated
	// PlanResult is a completed search: Pareto frontier, ranked dominated
	// points, retained infeasible points, and search statistics.
	PlanResult = planner.Result
	// PlanStats reports how the search spent its effort.
	PlanStats = planner.Stats
	// PlanOption configures a plan run (see WithPlan*).
	PlanOption = planner.Option
	// PlanExplain, when attached via WithPlanExplain, records how the
	// search spent its effort: every simulated point (bound vs actual)
	// and every wholesale-pruned subtree (head, bound, incumbent).
	PlanExplain = planner.Explain
	// PlanExplainSim is one simulated point in a PlanExplain report.
	PlanExplainSim = planner.ExplainSim
	// PlanExplainPrune is one pruned subtree in a PlanExplain report.
	PlanExplainPrune = planner.ExplainPrune
	// PlanStrategy decides which candidates are promoted to simulation:
	// ExhaustiveStrategy or BranchAndBoundStrategy.
	PlanStrategy = planner.Strategy
	// MemoryModel is the per-GPU memory-feasibility model (capacity,
	// reserve, optimizer bytes/param, ZeRO sharding stage).
	MemoryModel = memcost.Model
	// MemoryEstimate is a per-GPU memory decomposition.
	MemoryEstimate = memcost.Estimate
	// ZeROStage selects DP sharding of optimizer state and gradients.
	ZeROStage = memcost.ZeROStage
)

// ZeRO sharding stages for MemoryModel.
const (
	ZeRONone      = memcost.ZeRONone
	ZeROOptimizer = memcost.ZeROOptimizer
	ZeROGradients = memcost.ZeROGradients
)

// ExhaustiveStrategy simulates every feasible point — the reference the
// default branch-and-bound search is checked against, and the way to get
// the full Pareto frontier.
func ExhaustiveStrategy() PlanStrategy { return planner.Exhaustive{} }

// BranchAndBoundStrategy is exact search and the default: lazy subspace
// expansion with admissible analytic lower bounds, a bound-ranked priority
// queue, and wholesale pruning of subtrees that cannot beat the incumbent.
// Returns the same best point as ExhaustiveStrategy while simulating
// strictly fewer points.
func BranchAndBoundStrategy() PlanStrategy { return planner.BranchAndBound{} }

// WithPlanStrategy selects the search strategy. The default (nil) is
// branch-and-bound.
func WithPlanStrategy(s PlanStrategy) PlanOption { return planner.WithStrategy(s) }

// WithPlanBudget caps the number of unique points promoted to full graph
// simulation.
func WithPlanBudget(n int) PlanOption { return planner.WithBudget(n) }

// WithMemoryModel overrides the memory-feasibility model (device capacity,
// reserve, ZeRO stage, attention accounting).
func WithMemoryModel(m MemoryModel) PlanOption { return planner.WithMemModel(m) }

// WithPlanExplain attaches a report that the search fills in as it runs:
// one entry per simulated point (analytic bound vs simulated iteration)
// and one per wholesale-pruned subtree. The report's totals equal the
// run's PlanStats — len(Simulated) == Stats.Simulated and PrunedPoints()
// == Stats.BoundPruned + Stats.DominatedPruned.
func WithPlanExplain(e *PlanExplain) PlanOption { return planner.WithExplain(e) }

// DefaultMemoryModel returns the H100-class defaults (80 GiB, 6 GiB
// reserve, Adam at 12 B/param, no ZeRO sharding, flash attention).
func DefaultMemoryModel() MemoryModel { return memcost.DefaultModel() }
