package main

import (
	"sort"
	"sync"
	"time"

	"lumos"
)

// layerAgg accumulates the traced phase's per-layer measurements. Span
// times are busy time: the summed durations of every span with one name,
// across all worker tracks, computed here from the raw events.
type layerAgg struct {
	mu    sync.Mutex
	busy  map[string]float64 // µs per span name
	count map[string]int

	decodes     int
	decodeMs    float64
	decodeBytes uint64

	plans                                          int
	space, simulated, boundPruned, sharedStructure int
}

func newLayerAgg() *layerAgg {
	return &layerAgg{busy: make(map[string]float64), count: make(map[string]int)}
}

// addEvents folds one trace's complete spans into the per-name busy time.
func (a *layerAgg) addEvents(evs []lumos.TraceEvent) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, e := range evs {
		if e.Ph != "X" {
			continue
		}
		a.busy[e.Name] += e.Dur
		a.count[e.Name]++
	}
}

// addDecode records one trace decode timed by the benchmark.
func (a *layerAgg) addDecode(d time.Duration, allocBytes uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.decodes++
	a.decodeMs += float64(d) / float64(time.Millisecond)
	a.decodeBytes += allocBytes
}

// addDecodeBytes records bytes allocated by decodes whose time was already
// recorded.
func (a *layerAgg) addDecodeBytes(allocBytes uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.decodeBytes += allocBytes
}

// addPlan records one plan search's statistics.
func (a *layerAgg) addPlan(s lumos.PlanStats) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.plans++
	a.space += s.SpaceSize
	a.simulated += s.Simulated
	a.boundPruned += s.BoundPruned
	a.sharedStructure += s.SharedStructure
}

// layerInputs are the phase-level measurements report combines with the
// aggregated spans.
type layerInputs struct {
	loop     *loopResult
	untraced float64  // ops/s of the untraced slices
	delta    counters // program counter deltas over the traced slices
	end      counters // program counters at the end; their gauges (store occupancy, shared graphs) are reported as read
	goDelta  goCounters
	pool     poolStats
}

// report appends every per-layer metric to res. Times and counts are per
// completed op of the traced phase; planner figures are per plan search.
func (a *layerAgg) report(res *result, in layerInputs) {
	ops := len(in.loop.all)
	n := float64(max(ops, 1))
	ms := func(names ...string) float64 {
		var us float64
		for _, name := range names {
			us += a.busy[name]
		}
		return us / 1000
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	// A share is busy time over the traced slices' capacity: wall time
	// times the two worker threads.
	capacityMs := float64(in.loop.elapsed) / float64(time.Millisecond) * workers
	share := func(layerMs float64) float64 { return 100 * ratio(layerMs, capacityMs) }
	p50 := func(kind string) (float64, int) {
		s := append([]float64(nil), in.loop.lat[kind]...)
		sort.Float64s(s)
		return quantile(s, 0.5), len(s)
	}
	d := in.delta
	busy, queued := in.pool.means()

	res.add("trace.decode_ms", "ms/op", a.decodeMs/n, a.decodes)
	res.add("trace.decode_mib", "MiB/op", float64(a.decodeBytes)/(1<<20)/n, a.decodes)
	res.add("execgraph.build_ms", "ms/op", ms("build-graph")/n, a.count["build-graph"])
	res.add("manip.calibrate_ms", "ms/op", ms("calibrate")/n, a.count["calibrate"])
	res.add("cluster.synthesize_ms", "ms/op", ms("synthesize")/n, a.count["synthesize"])
	res.add("cluster.synthesize_count", "count/op", float64(a.count["synthesize"])/n, ops)
	res.add("go.alloc_mib_per_op", "MiB/op", float64(in.goDelta.allocBytes)/(1<<20)/n, ops)
	res.add("go.gc_cycles_per_op", "count/op", float64(in.goDelta.gcCycles)/n, ops)
	res.add("go.gc_pause_ms", "ms/op", in.goDelta.gcPauseSec*1000/n, ops)
	res.add("replay.compile_ms", "ms/op", ms("compile")/n, a.count["compile"])
	res.add("replay.compile_count", "count/op", float64(d.programs)/n, ops)
	res.add("replay.run_ms", "ms/op", ms("replay")/n, a.count["replay"])
	res.add("replay.run_count", "count/op", float64(d.runs)/n, ops)
	res.add("execgraph.retime_ms", "ms/op", ms("retime")/n, a.count["retime"])
	res.add("core.memo_hit_ratio", "ratio", ratio(float64(d.memoHits), float64(in.loop.lookups)), in.loop.lookups)
	res.add("core.struct_shared_ratio", "ratio", ratio(float64(a.sharedStructure), float64(a.simulated)), a.simulated)
	res.add("core.pool_busy_frac", "ratio", busy/workers, ops)
	res.add("core.queue_depth_mean", "scenarios", queued, ops)
	plans := float64(max(a.plans, 1))
	res.add("planner.space_points", "points/plan", float64(a.space)/plans, a.plans)
	res.add("planner.simulated", "points/plan", float64(a.simulated)/plans, a.plans)
	res.add("planner.bound_pruned", "points/plan", float64(a.boundPruned)/plans, a.plans)
	res.add("planner.sim_frac", "ratio", ratio(float64(a.simulated), float64(a.space)), a.plans)
	hits := float64(d.storeHits)
	lookups := hits + float64(d.storeMisses)
	res.add("scache.hit_ratio", "ratio", ratio(hits, lookups), int(lookups))
	res.add("scache.puts", "count", float64(d.puts), ops)
	res.add("scache.evictions", "count", float64(d.evictions), ops)
	res.add("scache.bytes", "bytes", float64(in.end.storeBytes), 1)
	res.add("server.struct_graphs", "graphs", float64(in.end.graphs), 1)
	var opMs float64
	for _, v := range in.loop.all {
		opMs += v
	}
	for _, kind := range []string{"profile", "plan", "wide", "sweep", "read"} {
		v, k := p50(kind)
		res.add("server."+kind+"_p50_ms", "ms", v, k)
		var kindMs float64
		for _, v := range in.loop.lat[kind] {
			kindMs += v
		}
		res.add("server."+kind+"_time_pct", "%", 100*ratio(kindMs, opMs), k)
	}
	res.add("obs.tracing_overhead_pct", "%", 100*(ratio(in.untraced, in.loop.rate())-1), ops)
	res.add("share.decode_pct", "%", share(a.decodeMs), a.decodes)
	res.add("share.build_pct", "%", share(ms("build-graph")), a.count["build-graph"])
	res.add("share.calibrate_pct", "%", share(ms("calibrate")), a.count["calibrate"])
	res.add("share.synthesize_pct", "%", share(ms("synthesize")), a.count["synthesize"])
	res.add("share.replay_pct", "%", share(ms("compile", "retime", "replay")), a.count["replay"])
}
