// Deployment planning: the plan-search entry points. Toolkit.Plan sits
// the planner subsystem on top of the sweep engine — the planner decides
// *which* points of a parallelism × microbatch × fabric space deserve full
// graph simulation (memory pre-filter, analytic bounds, search strategy),
// and each promoted point is evaluated as a scenario against the shared
// campaign BaseState, so repeated points hit the scenario cache and the
// whole search is deterministic at any worker count.
package core

import (
	"context"
	"fmt"
	"sync"

	"lumos/internal/analysis"
	"lumos/internal/collective"
	"lumos/internal/execgraph"
	"lumos/internal/manip"
	"lumos/internal/obs"
	"lumos/internal/parallel"
	"lumos/internal/planner"
	"lumos/internal/replay"
)

// structEntry is one structurally keyed synthesized graph: built once
// (under once) and then shared read-only by every sibling point. The
// compiled replay artifacts — the lowered program and the
// fabric-independent comm retime plan — are built lazily under progOnce,
// so campaign-fabric-only keys never pay for them.
type structEntry struct {
	once sync.Once
	out  *manip.GraphResult
	err  error

	progOnce sync.Once
	prog     *replay.Program
	plan     *manip.CommRetimePlan
}

// compiled returns the entry's lowered program and comm retime plan,
// building both at most once per structural key. sp, when non-nil, parents
// a "compile" span attributed to whichever scenario lowers first.
func (e *structEntry) compiled(b *BaseState, sp *obs.Span) (*replay.Program, *manip.CommRetimePlan) {
	e.progOnce.Do(func() {
		csp := sp.Child("compile")
		defer csp.End()
		var basePricer collective.Pricer
		if b.Fabric != nil {
			basePricer = b.pricerFor(b.Fabric)
		}
		e.prog = replay.Compile(e.out.Graph, b.replayOpts())
		e.plan = manip.NewCommRetimePlan(e.out.Graph, b.Library, basePricer)
		if b.tk != nil {
			b.tk.engineMeter.CompiledPrograms.Add(1)
		}
	})
	return e.prog, e.plan
}

// structCacheCap bounds how many synthesized graphs a campaign state keeps
// alive for structural sharing. Past the cap, points synthesize privately —
// the prediction is bit-identical either way (synthesis is deterministic),
// only the sharing is lost, so cache pressure can never change a result.
const structCacheCap = 64

// synthesizeStructural returns the campaign-fabric synthesized graph for
// the target, shared across every point with the same structure (the
// planner's fabric/degrade axis varies only durations, never the DAG).
// The returned entry carries the shared compiled-replay artifacts; it is
// nil on the private-synthesis overflow path past structCacheCap. sp, when
// non-nil, parents a "synthesize" span attributed to whichever scenario
// synthesizes first (structural-cache hits emit no span).
func (b *BaseState) synthesizeStructural(req manip.Request, sp *obs.Span) (*manip.GraphResult, *structEntry, error) {
	key := fmt.Sprintf("%+v", req.Target)
	v, ok := b.structs.Load(key)
	if !ok {
		if b.structCount.Load() >= structCacheCap {
			ssp := sp.Child("synthesize")
			out, err := manip.PredictGraphWith(req, b.Library, b.Fitted, b.Fabric)
			ssp.End()
			return out, nil, err
		}
		var loaded bool
		v, loaded = b.structs.LoadOrStore(key, &structEntry{})
		if !loaded {
			b.structCount.Add(1)
		}
	}
	e := v.(*structEntry)
	e.once.Do(func() {
		ssp := sp.Child("synthesize")
		defer ssp.End()
		e.out, e.err = manip.PredictGraphWith(req, b.Library, b.Fitted, b.Fabric)
	})
	return e.out, e, e.err
}

// planScenario evaluates one planner candidate: the target deployment
// predicted via direct graph synthesis, on the campaign fabric or on the
// point's own (possibly degraded) fabric.
type planScenario struct {
	cand planner.Candidate
}

func (s *planScenario) Name() string { return s.cand.Point.Key() }

// Fingerprint keys the scenario by the point's canonical identity, so
// repeated and overlapping plans on one campaign state are served from the
// scenario cache.
func (s *planScenario) Fingerprint(*BaseState) (string, bool) {
	return "plan|" + s.cand.Point.Key(), true
}

func (s *planScenario) Run(ctx context.Context, b *BaseState) (ScenarioResult, error) {
	sp := obs.SpanFrom(ctx)
	p := s.cand.Point
	target := p.Config(b.Config)
	res := ScenarioResult{
		Name:   s.Name(),
		Kind:   "plan",
		Target: target,
		World:  target.Map.WorldSize(),
	}
	req := manip.Request{Base: b.Config, Target: target}
	if err := req.Validate(); err != nil {
		res.Err = err.Error()
		return res, nil
	}

	if p.Fabric == nil && len(p.Degrade) == 0 {
		// The campaign's own fabric: the plain deploy-prediction path,
		// served from (and seeding) the structural graph cache.
		out, _, err := b.synthesizeStructural(req, sp)
		if err != nil {
			res.Err = err.Error()
			return res, nil
		}
		res.Iteration = out.Iteration
		res.Breakdown = analysis.GraphBreakdown(out.Graph)
		res.LibraryHits = out.LibraryHits
		res.LibraryMisses = out.LibraryMisses
		return res, nil
	}

	// A fabric or degradation override varies only durations, never the
	// DAG: re-time the structurally shared graph for the point's resolved
	// fabric and replay it, instead of re-synthesizing and re-binding.
	// The same resolution chain the planner's analytic bound used.
	f, rerr := planner.ResolveFabric(p, b.Fabric)
	if rerr != nil {
		res.Err = rerr.Error()
		return res, nil
	}
	out, entry, err := b.synthesizeStructural(req, sp)
	if err != nil {
		res.Err = err.Error()
		return res, nil
	}
	pricer := b.pricerFor(f)
	var (
		rres     *replay.Result
		repriced int
	)
	eng := b.acquireEngine()
	if c, ok := eng.(*replay.Compiled); ok && entry != nil {
		// Compiled fast path: re-time the shared program's flat duration
		// columns (pooled buffers seeded with the recorded durations) via
		// the precomputed comm plan, and run on the engine's scratch — no
		// view, no maps, no per-point graph walk.
		prog, plan := entry.compiled(b, sp)
		buf := b.acquireTimings(prog)
		tsp := sp.Child("retime")
		repriced = plan.Retime(buf.dur, buf.gdur, pricer)
		tsp.End()
		rsp := sp.Child("replay")
		rres, err = c.RunProgram(prog, replay.Timings{Dur: buf.dur, GroupDur: buf.gdur})
		rsp.End()
		b.releaseTimings(buf)
	} else {
		var basePricer collective.Pricer
		if b.Fabric != nil {
			basePricer = b.pricerFor(b.Fabric)
		}
		v := execgraph.NewRetimed(out.Graph)
		tsp := sp.Child("retime")
		repriced = manip.RetimeCommOnFabric(v, b.Library, pricer, basePricer)
		tsp.End()
		rsp := sp.Child("replay")
		rres, err = eng.RunRetimed(v)
		rsp.End()
	}
	b.releaseEngine(eng)
	if err != nil {
		res.Err = err.Error()
		return res, nil
	}
	res.Iteration = rres.Makespan
	res.LibraryHits = out.LibraryHits
	res.LibraryMisses = out.LibraryMisses
	res.SharedStructure = true
	res.Detail = fmt.Sprintf("shared structure, %d comm groups repriced", repriced)
	return res, nil
}

// Plan profiles the base deployment once and runs the deployment search
// over the space: analytic memory and cost bounds prune and rank the
// candidates, the strategy (branch-and-bound by default, exhaustive as the
// reference — see planner) promotes survivors to full graph simulation on
// the sweep engine, and the result carries the Pareto frontier over
// (iteration time, GPU count, peak memory) with ranked dominated points
// retained.
func (tk *Toolkit) Plan(ctx context.Context, base parallel.Config, space planner.Space, opts ...planner.Option) (*planner.Result, error) {
	st, err := tk.Prepare(ctx, base, tk.opts.Seed)
	if err != nil {
		return nil, err
	}
	return tk.PlanState(ctx, st, space, opts...)
}

// PlanState is Plan against prepared campaign state, which may be shared
// with Evaluate campaigns and across multiple Plan calls — the scenario
// cache then spans all of them.
func (tk *Toolkit) PlanState(ctx context.Context, st *BaseState, space planner.Space, opts ...planner.Option) (*planner.Result, error) {
	tr := tk.tracerFor(ctx)
	sp := tr.Start("pipeline", "plan")
	defer sp.End()
	sim := func(ctx context.Context, cands []planner.Candidate) ([]planner.Outcome, error) {
		scenarios := make([]Scenario, len(cands))
		for i := range cands {
			scenarios[i] = &planScenario{cand: cands[i]}
		}
		sweep, err := tk.EvaluateState(ctx, st, scenarios...)
		if err != nil {
			return nil, err
		}
		byName := make(map[string]ScenarioResult, len(sweep.Results))
		for _, r := range sweep.Results {
			byName[r.Name] = r
		}
		outs := make([]planner.Outcome, len(cands))
		for i, c := range cands {
			r, ok := byName[c.Point.Key()]
			if !ok {
				outs[i] = planner.Outcome{Err: "internal: scenario result missing"}
				continue
			}
			outs[i] = planner.Outcome{Iteration: r.Iteration, SharedStructure: r.SharedStructure, Err: r.Err}
		}
		return outs, nil
	}
	if tr != nil {
		opts = append([]planner.Option{planner.WithTracer(tr)}, opts...)
	}
	return planner.Plan(ctx, st.Config, space, st.Fabric, tk.opts.Pricer, sim, opts...)
}
