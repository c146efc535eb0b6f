package manip

import (
	"sort"

	"lumos/internal/collective"
	"lumos/internal/execgraph"
	"lumos/internal/trace"
)

// CommRetimePlan precomputes, for every collective group of a synthesized
// graph, the inputs to fabric retiming that do not depend on the target
// fabric: member task IDs, the collective kind and payload, the sorted rank
// list, the measured library duration on the profiled tier, and the
// base-fabric analytic cost. Re-pricing one planner point then reduces to
// one target Cost call and a handful of column writes per group — no maps,
// no per-group allocation — feeding the compiled replay engine's flat
// duration arrays directly.
//
// A plan is immutable after construction and safe for concurrent Retime
// calls; it is built once per structural key alongside the compiled
// program.
type CommRetimePlan struct {
	groups  []retimeGroup
	members []int32
	ranks   []int
}

type retimeGroup struct {
	memberOff, memberN int32
	rankOff            int32
	kind               trace.CommKind
	bytes              int64
	measured           trace.Dur
	hasMeasured        bool
	base               trace.Dur
}

// NewCommRetimePlan lowers g's collective groups against lib. A nil
// basePricer defaults to the library fabric's analytic model.
func NewCommRetimePlan(g *execgraph.Graph, lib *Library, basePricer collective.Pricer) *CommRetimePlan {
	if basePricer == nil {
		basePricer = collective.For(lib.fabric)
	}
	pl := &CommRetimePlan{}
	for _, members := range g.Groups {
		if len(members) < 2 {
			continue
		}
		t0 := &g.Tasks[members[0]]
		gr := retimeGroup{
			memberOff: int32(len(pl.members)),
			memberN:   int32(len(members)),
			rankOff:   int32(len(pl.ranks)),
			kind:      t0.Comm,
			bytes:     t0.CommBytes,
		}
		pl.members = append(pl.members, members...)
		for _, id := range members {
			pl.ranks = append(pl.ranks, int(g.Tasks[id].Rank))
		}
		ranks := pl.ranks[gr.rankOff:]
		sort.Ints(ranks)
		gr.measured, gr.hasMeasured = lib.comm[commKey{t0.Comm, t0.CommBytes, len(ranks), lib.fabric.TierOf(ranks)}]
		gr.base = basePricer.Cost(t0.Comm, t0.CommBytes, ranks)
		pl.groups = append(pl.groups, gr)
	}
	return pl
}

// Groups returns the number of collective groups the plan re-prices.
func (pl *CommRetimePlan) Groups() int { return len(pl.groups) }

// Retime writes target-fabric collective durations into the flat duration
// columns (len == task count): for each group, the measured duration scaled
// by target/base cost, or the raw target cost when unmeasured — the same
// transfer math Predictor.Comm applies at synthesis time, so sibling
// planner points that differ only in fabric or degradation can re-time one
// shared graph instead of re-synthesizing it. It returns the repriced group
// count.
func (pl *CommRetimePlan) Retime(dur, groupDur []trace.Dur, pricer collective.Pricer) int {
	for gi := range pl.groups {
		gr := &pl.groups[gi]
		ranks := pl.ranks[gr.rankOff : gr.rankOff+gr.memberN]
		target := pricer.Cost(gr.kind, gr.bytes, ranks)
		d := target
		if gr.hasMeasured && gr.base > 0 && target > 0 {
			d = trace.Dur(float64(gr.measured) * (float64(target) / float64(gr.base)))
		}
		for _, id := range pl.members[gr.memberOff : gr.memberOff+gr.memberN] {
			dur[id] = d
			groupDur[id] = d
		}
	}
	return len(pl.groups)
}
