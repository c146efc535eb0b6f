// Package planner is the deployment-search subsystem: exact search of the
// joint parallelism × microbatch × fabric space on top of the sweep
// engine. The layering is analytic-bounds-before-simulation: a declarative
// Space expands lazily, every point passes through the memcost
// feasibility model and a roofline + collective-pricer cost bound, and the
// search strategy — branch-and-bound by default, exhaustive as the
// reference — decides which survivors are promoted to full graph
// simulation. The result is multi-objective: the Pareto frontier over
// (iteration time, GPU count, peak memory), with ranked dominated points
// retained.
//
// The planner owns no simulator: callers hand it a Simulate callback
// (internal/core binds it to scenario evaluation against a shared
// BaseState), which keeps the search logic deterministic at any worker
// count — candidate ordering and promotion decisions happen
// single-threaded here, and only the embarrassingly parallel point
// evaluations fan out.
package planner

import (
	"context"
	"sort"

	"lumos/internal/collective"
	"lumos/internal/memcost"
	"lumos/internal/obs"
	"lumos/internal/parallel"
	"lumos/internal/topology"
	"lumos/internal/trace"
)

// Outcome is one simulated point's result, parallel to the Simulate input.
type Outcome struct {
	// Iteration is the predicted per-iteration time.
	Iteration trace.Dur
	// SharedStructure reports that the point re-timed a structurally
	// shared execution graph instead of synthesizing its own (see
	// Stats.SharedStructure).
	SharedStructure bool
	// Err is non-empty when the simulation rejected or failed the point.
	Err string
}

// Simulate promotes a batch of candidates to full graph simulation and
// returns one outcome per candidate, in order. Implementations must be
// deterministic functions of the candidate set (worker-count independent)
// and are expected to memoize: repeated plans over one campaign re-submit
// the points they share.
type Simulate func(ctx context.Context, cands []Candidate) ([]Outcome, error)

// Evaluated is a candidate with its simulation outcome.
type Evaluated struct {
	Candidate
	// Iteration is the simulated per-iteration time.
	Iteration trace.Dur
	// Err is non-empty when simulation failed the point.
	Err string
}

// Strategy decides which feasible candidates are promoted to simulation.
// The set is sealed: Exhaustive is the reference and BranchAndBound the
// exact default. Both must be deterministic; a budget > 0 caps the number
// of unique points they promote.
type Strategy interface {
	// Name labels the strategy in results and benchmark output.
	Name() string
	// search expands the space, books rejections into the shared stats and
	// returns every evaluated candidate.
	search(ctx context.Context, s *spaceSearch) ([]Evaluated, error)
}

// spaceSearch is the engine context a strategy searches in: the lazily
// expandable space, the bounder, the metered simulator, and the shared
// stats/rejection sinks.
type spaceSearch struct {
	base    parallel.Config
	space   Space
	bounder *Bounder
	budget  int
	sim     Simulate
	stats   *Stats
	// retain records an analytically rejected candidate (capped upstream).
	retain func(Candidate)
	// tracer, when non-nil, receives per-round pop/prune instant events on
	// the "search" category (the metered simulator adds the simulate ones).
	tracer *obs.Tracer
	// explain, when non-nil, collects per-subtree prune records (the
	// metered simulator collects the per-point simulation records).
	explain *Explain
}

// classify books one examined-and-rejected point into the stats tables.
func (s *spaceSearch) classify(c Candidate) {
	switch {
	case c.OOM:
		s.stats.MemRejected++
	case c.BadSchedule:
		s.stats.ScheduleRejected++
	default:
		s.stats.ScopeRejected++
	}
	s.retain(c)
}

// --- Exhaustive -------------------------------------------------------------

// Exhaustive expands the whole space, pre-filters every point, and
// simulates every feasible candidate in bound order (bound-ranked
// truncation under a budget). The reference strategy: BranchAndBound is
// checked against it.
type Exhaustive struct{}

// Name implements Strategy.
func (Exhaustive) Name() string { return "exhaustive" }

func (Exhaustive) search(ctx context.Context, s *spaceSearch) ([]Evaluated, error) {
	var pool []Candidate
	s.space.ForEach(s.base, func(p Point) bool {
		s.stats.SpaceSize++
		if c := s.bounder.Candidate(p); c.Infeasible != "" {
			s.classify(c)
		} else {
			pool = append(pool, c)
		}
		return true
	})
	s.stats.Feasible = len(pool)
	sort.SliceStable(pool, func(i, j int) bool {
		if pool[i].Bound != pool[j].Bound {
			return pool[i].Bound < pool[j].Bound
		}
		return pool[i].Point.Key() < pool[j].Point.Key()
	})
	if s.budget > 0 && len(pool) > s.budget {
		pool = pool[:s.budget]
	}
	outs, err := s.sim(ctx, pool)
	if err != nil {
		return nil, err
	}
	return zip(pool, outs), nil
}

// zip pairs candidates with their outcomes.
func zip(cands []Candidate, outs []Outcome) []Evaluated {
	es := make([]Evaluated, len(cands))
	for i, c := range cands {
		es[i] = Evaluated{Candidate: c}
		if i < len(outs) {
			es[i].Iteration = outs[i].Iteration
			es[i].Err = outs[i].Err
		} else {
			es[i].Err = "no outcome returned"
		}
	}
	return es
}

// rankEvaluated orders evaluated points fastest-first (failed last), key
// tiebreaks, matching the sweep engine's ranking contract.
func rankEvaluated(es []Evaluated) {
	sort.SliceStable(es, func(i, j int) bool {
		a, b := es[i], es[j]
		if (a.Err == "") != (b.Err == "") {
			return a.Err == ""
		}
		if a.Iteration != b.Iteration {
			return a.Iteration < b.Iteration
		}
		return a.Point.Key() < b.Point.Key()
	})
}

// --- Engine -----------------------------------------------------------------

// Options configures a plan run.
type Options struct {
	// Strategy selects the search. Nil selects BranchAndBound.
	Strategy Strategy
	// Budget caps the number of unique points promoted to simulation;
	// 0 means no cap.
	Budget int
	// Mem is the memory-feasibility model (zero value: 80 GiB H100, plain
	// DDP).
	Mem memcost.Model
	// MaxInfeasible caps how many analytically rejected points are
	// retained (with reasons) in the result. Zero selects 32; the
	// rejection *counts* in Stats are always exact.
	MaxInfeasible int
	// Tracer, when non-nil, receives per-round search events (pop, prune,
	// simulate, with the running incumbent) on the "search" category. Nil
	// disables tracing with zero overhead.
	Tracer *obs.Tracer
	// Explain, when non-nil, is filled with the structured search report:
	// one record per simulated point (bound vs actual) and per pruned
	// subtree (head, bound, incumbent at prune). Nil disables capture.
	Explain *Explain
}

// ExplainSim is one simulated point in an Explain report: the analytic
// lower bound the search ranked it by against the simulated actual.
type ExplainSim struct {
	// Point is the candidate's canonical key.
	Point string `json:"point"`
	// Round is the 1-based simulation batch that promoted the point.
	Round int `json:"round"`
	// BoundMs is the admissible analytic lower bound, in milliseconds.
	BoundMs float64 `json:"bound_ms"`
	// ActualMs is the simulated iteration time, 0 when the simulation
	// rejected the point (see Err).
	ActualMs float64 `json:"actual_ms"`
	// Err is the simulation failure, empty on success.
	Err string `json:"err,omitempty"`
}

// ExplainPrune is one discarded subtree in an Explain report.
type ExplainPrune struct {
	// Head is the canonical key of the subtree's cheapest unexplored point.
	Head string `json:"head"`
	// BoundMs is the head's admissible lower bound, in milliseconds.
	BoundMs float64 `json:"bound_ms"`
	// Points is how many points the subtree held (head plus the untried
	// microbatch tail).
	Points int `json:"points"`
	// IncumbentMs is the best simulated iteration time at the moment of the
	// prune — the value the head's bound exceeded.
	IncumbentMs float64 `json:"incumbent_ms"`
	// Dominated reports that an already simulated point was at least as
	// good on every frontier objective (the Stats.DominatedPruned bucket);
	// false is the plain bound prune.
	Dominated bool `json:"dominated"`
}

// Explain is the structured account of a search: what was simulated and
// why, what was pruned and against which incumbent. Its totals tie back to
// Stats exactly: len(Simulated) == Stats.Simulated and PrunedPoints() ==
// Stats.BoundPruned + Stats.DominatedPruned, so the report is an auditable
// expansion of the counters, not a parallel bookkeeping. Capture is
// single-threaded (strategies call the simulator sequentially), so the
// report needs no locking.
type Explain struct {
	// Strategy names the search that produced the report.
	Strategy string `json:"strategy"`
	// Simulated holds one record per unique point promoted to simulation,
	// in promotion order.
	Simulated []ExplainSim `json:"simulated"`
	// Pruned holds one record per wholesale-discarded subtree, in prune
	// order. Empty for strategies that expand the space eagerly.
	Pruned []ExplainPrune `json:"pruned,omitempty"`
}

// SimulatedCount is len(Simulated) — equal to Stats.Simulated.
func (e *Explain) SimulatedCount() int { return len(e.Simulated) }

// PrunedPoints sums the points across pruned subtrees — equal to
// Stats.BoundPruned + Stats.DominatedPruned.
func (e *Explain) PrunedPoints() int {
	total := 0
	for _, p := range e.Pruned {
		total += p.Points
	}
	return total
}

// Option mutates Options.
type Option func(*Options)

// WithStrategy selects the search strategy.
func WithStrategy(s Strategy) Option { return func(o *Options) { o.Strategy = s } }

// WithBudget caps the number of unique points simulated.
func WithBudget(n int) Option { return func(o *Options) { o.Budget = n } }

// WithMemModel overrides the memory-feasibility model.
func WithMemModel(m memcost.Model) Option { return func(o *Options) { o.Mem = m } }

// WithTracer attaches an observability tracer: the search emits per-round
// pop/prune/simulate instant events carrying the incumbent value. A nil
// tracer (the default) is a no-op.
func WithTracer(t *obs.Tracer) Option { return func(o *Options) { o.Tracer = t } }

// WithExplain captures the structured search report into e: per simulated
// point the bound vs the actual, per pruned subtree the head, bound and
// incumbent. A nil e (the default) disables capture.
func WithExplain(e *Explain) Option { return func(o *Options) { o.Explain = e } }

// Stats reports how the search spent its effort.
type Stats struct {
	// SpaceSize is the full expansion of the space.
	SpaceSize int
	// Feasible is how many points survived the analytic pre-filters.
	Feasible int
	// MemRejected counts points the memory model ruled out (no simulation
	// spent); ScheduleRejected counts points whose pipeline schedule was
	// unknown or cannot run on the mapping; ScopeRejected counts the
	// remaining invalid or out-of-scope points.
	MemRejected, ScheduleRejected, ScopeRejected int
	// Simulated is the number of unique points promoted to full graph
	// simulation; SimRequests the total point-evaluations requested —
	// the difference re-visited the sweep engine's scenario cache.
	Simulated, SimRequests int
	// Rounds is the number of simulation batches the strategy ran.
	Rounds int
	// BoundPruned counts points branch-and-bound discarded because their
	// subtree's admissible lower bound exceeded the incumbent simulated
	// time; DominatedPruned the subset additionally dominated by an
	// already simulated point on every frontier objective. Both are zero
	// for strategies that expand the space eagerly. Under a budget the
	// unexplored remainder is counted in neither bucket, so the partition
	// SpaceSize = rejections + Feasible + pruned holds only budget-free.
	BoundPruned, DominatedPruned int
	// SharedStructure counts simulated points that re-timed a structurally
	// shared execution graph (same slot DAG, different durations) instead
	// of synthesizing and binding their own.
	SharedStructure int
}

// Result is a completed plan: the Pareto frontier over (iteration time,
// GPU count, peak memory), dominated simulated points ranked by iteration
// time, and the analytically rejected points with their reasons.
type Result struct {
	// Strategy names the search that produced the result.
	Strategy string
	// Frontier holds the non-dominated points, fastest first.
	Frontier []Evaluated
	// Dominated holds simulated feasible points not on the frontier,
	// ranked by iteration time.
	Dominated []Evaluated
	// Infeasible holds analytically rejected points (OOM, scope, bad
	// fabric) and simulation failures, with reasons, capped by
	// Options.MaxInfeasible.
	Infeasible []Candidate
	// Stats reports search effort.
	Stats Stats
}

// Best returns the frontier's fastest point.
func (r *Result) Best() (Evaluated, bool) {
	if len(r.Frontier) == 0 {
		return Evaluated{}, false
	}
	return r.Frontier[0], true
}

// Plan runs the search: expand the space lazily, pre-filter with
// the memory model and analytic bounds, let the strategy promote survivors
// to the Simulate callback, and assemble the Pareto frontier.
func Plan(ctx context.Context, base parallel.Config, space Space,
	fabric topology.Fabric, pricer func(topology.Fabric) collective.Pricer,
	sim Simulate, opts ...Option) (*Result, error) {

	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	maxInfeasible := o.MaxInfeasible
	if maxInfeasible == 0 {
		maxInfeasible = 32
	}

	bounder := NewBounder(base, fabric, pricer, o.Mem)
	stats := Stats{}
	var infeasible []Candidate
	retain := func(c Candidate) {
		if len(infeasible) < maxInfeasible {
			infeasible = append(infeasible, c)
		}
	}

	// The engine meters the strategy's use of the simulator: unique points
	// promoted, total requests (the difference hit the scenario cache),
	// batch rounds, and structure sharing among fresh points.
	seen := map[string]bool{}
	metered := func(ctx context.Context, cands []Candidate) ([]Outcome, error) {
		stats.Rounds++
		stats.SimRequests += len(cands)
		fresh := make([]bool, len(cands))
		for i, c := range cands {
			if k := c.Point.Key(); !seen[k] {
				seen[k] = true
				stats.Simulated++
				fresh[i] = true
			}
		}
		outs, err := sim(ctx, cands)
		if err == nil {
			for i := range cands {
				if fresh[i] && i < len(outs) && outs[i].SharedStructure {
					stats.SharedStructure++
				}
			}
			if o.Explain != nil {
				for i, c := range cands {
					if !fresh[i] || i >= len(outs) {
						continue
					}
					rec := ExplainSim{
						Point:   c.Point.Key(),
						Round:   stats.Rounds,
						BoundMs: float64(c.Bound) / 1e6,
						Err:     outs[i].Err,
					}
					if outs[i].Err == "" {
						rec.ActualMs = float64(outs[i].Iteration) / 1e6
					}
					o.Explain.Simulated = append(o.Explain.Simulated, rec)
				}
			}
		}
		if o.Tracer != nil && err == nil {
			freshCount := 0
			for _, f := range fresh {
				if f {
					freshCount++
				}
			}
			best := trace.Dur(0)
			for _, out := range outs {
				if out.Err == "" && (best == 0 || out.Iteration < best) {
					best = out.Iteration
				}
			}
			o.Tracer.Instant("search", "simulate", map[string]any{
				"round": stats.Rounds, "batch": len(cands), "fresh": freshCount,
				"best_ms": float64(best) / 1e6,
			})
		}
		return outs, err
	}

	strat := o.Strategy
	if strat == nil {
		strat = BranchAndBound{}
	}
	evaluated, err := strat.search(ctx, &spaceSearch{
		base: base, space: space, bounder: bounder,
		budget: o.Budget, sim: metered, stats: &stats, retain: retain,
		tracer: o.Tracer, explain: o.Explain,
	})
	if err != nil {
		return nil, err
	}

	var ok []Evaluated
	for _, e := range evaluated {
		if e.Err == "" {
			ok = append(ok, e)
			continue
		}
		if len(infeasible) < maxInfeasible {
			c := e.Candidate
			c.Infeasible = "simulation: " + e.Err
			infeasible = append(infeasible, c)
		}
	}
	frontier, dominated := paretoSplit(ok)

	if o.Explain != nil {
		o.Explain.Strategy = strat.Name()
	}
	return &Result{
		Strategy:   strat.Name(),
		Frontier:   frontier,
		Dominated:  dominated,
		Infeasible: infeasible,
		Stats:      stats,
	}, nil
}

// dominates reports whether a Pareto-dominates b over (iteration time, GPU
// count, peak memory): no worse on every objective, better on at least one.
func dominates(a, b Evaluated) bool {
	if a.Iteration > b.Iteration || a.Point.World() > b.Point.World() || a.Mem.Total() > b.Mem.Total() {
		return false
	}
	return a.Iteration < b.Iteration || a.Point.World() < b.Point.World() || a.Mem.Total() < b.Mem.Total()
}

// paretoSplit partitions evaluated points into the frontier and the
// ranked dominated remainder.
func paretoSplit(es []Evaluated) (frontier, dominated []Evaluated) {
	rankEvaluated(es)
	for i, e := range es {
		dom := false
		for j, other := range es {
			if i != j && dominates(other, e) {
				dom = true
				break
			}
		}
		if dom {
			dominated = append(dominated, e)
		} else {
			frontier = append(frontier, e)
		}
	}
	return frontier, dominated
}
