package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"lumos"
	"lumos/internal/server"
)

// serve-mixed: lumosd (server.New with a fresh disk-cache directory per
// run) behind a loopback httptest server, driven by two closed-loop
// clients. It holds four profiles:
//   - "base-a" and "base-b": the same GPT-3 15B 2x2x1 trace set uploaded
//     inline under two names (their scenarios share disk-cache entries but
//     not the in-memory memo);
//   - "upload": a one-GPU 15B trace set whose idempotent inline re-upload is
//     the decode-only request of the mix;
//   - "wide": a seed-profiled 15B 1x2x1 base whose full-space plans reach
//     more structures (90) than a profile's structural graph cache holds
//     (64), so the cache fills and later points take the private-synthesis
//     overflow path.
//
// No recorded lumosd traffic exists to replay, so the mix is an assumed
// planning session (see deck): mostly fresh bnb plans, a few repeats, grid
// sweeps, one full-space plan, one re-upload and two reads per block.
// Fresh plans draw network degrade factors from the seed, so their points
// miss the caches. A plan space whose deepest pipeline is 3 simulates about
// twice the points of one reaching pp 4 (8 of 32 against 4 to 6), so the
// deck fixes their shares: were the two kinds drawn half and half, the
// run's median latency would fall in the gap between their two latency
// modes and move with every shift of either mode's tail.

// deck is the fixed mix of every block of deckSize ops; each block's order
// is a seeded shuffle.
var deck = []struct {
	class string
	n     int
}{
	{"plan", 7},         // fresh bnb plan on base-a or base-b, pipelines up to pp 4
	{"plan-pp3", 4},     // the same with pipelines up to pp 3, which prunes less
	{"plan-repeat", 1},  // a body an earlier fresh plan sent (memo reads)
	{"plan-other", 1},   // that body on the other base profile (disk reads)
	{"sweep", 2},        // fresh grid sweep
	{"sweep-repeat", 1}, // a body an earlier fresh sweep sent
	{"wide", 1},         // fresh exhaustive plan on "wide"
	{"profile", 1},      // re-upload of "upload"
	{"stats", 1},        // GET /v1/stats
	{"metrics", 1},      // GET /metrics
}

// deckSize is the number of ops in one block of the deck.
const deckSize = 20

// profileBody is a POST /v1/profiles body with inline rank traces.
type profileBody struct {
	Name       string            `json:"name"`
	Deployment server.Deployment `json:"deployment"`
	Traces     []json.RawMessage `json:"traces,omitempty"`
	Seed       *uint64           `json:"seed,omitempty"`
}

type serveBench struct {
	r      *runner
	cfg    lumos.Config
	upload []byte // the "upload" profile's body

	srv    *server.Server
	hs     *httptest.Server
	client *http.Client

	mu      sync.Mutex
	seen    map[[32]byte][]byte // request body digest → canonical response
	plans   [2]*servedPlan      // first and latest answered bnb plans, for the exhaustive cross-check
	pending []string            // trace ids of the traced slice, fetched by drain
	uploads int                 // re-uploads in the traced slice
	probe   uint64              // bytes one re-upload allocates, measured once by drain
}

// servedPlan is one answered plan request.
type servedPlan struct {
	body server.PlanRequest
	best *server.PlanPoint
}

// The deployments of the base profiles, the "upload" profile and the
// "wide" profile.
var (
	baseDeploy   = server.Deployment{Model: "15b", TP: 2, PP: 2, DP: 1, Microbatches: 4}
	uploadDeploy = server.Deployment{Model: "15b", TP: 1, PP: 1, DP: 1, Microbatches: 1}
	wideDeploy   = server.Deployment{Model: "15b", TP: 1, PP: 2, DP: 1, Microbatches: 4}
)

func runServe(ctx context.Context, r *runner) (*result, error) {
	s := &serveBench{
		r:      r,
		seen:   make(map[[32]byte][]byte),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: workers}},
	}
	defer s.client.CloseIdleConnections()
	defer s.stop()
	cfg, err := deploymentConfig(baseDeploy)
	if err != nil {
		return nil, err
	}
	s.cfg = cfg
	setupS, err := r.setup(func(rep int) error { return s.start(ctx, rep) })
	if err != nil {
		return nil, err
	}
	return r.run(ctx, &bench{
		clients:  workers,
		op:       s.op,
		counters: s.counters,
		gauges:   s.srv.Toolkit().WorkerGauges,
		drain:    s.drain,
		check:    s.check,
		fidelity: s.fidelity,
	}, setupS)
}

// deploymentConfig is the lumos configuration of a 15B deployment.
func deploymentConfig(d server.Deployment) (lumos.Config, error) {
	cfg, err := lumos.DeploymentConfig(lumos.GPT3_15B(), d.TP, d.PP, d.DP)
	cfg.Microbatches = d.Microbatches
	return cfg, err
}

// tracegen profiles d on the simulated substrate, writes rank_*.json under
// dir and returns the files' contents, as `lumos tracegen` and a client
// reading its output would.
func (s *serveBench) tracegen(ctx context.Context, d server.Deployment, dir string) ([]json.RawMessage, error) {
	cfg, err := deploymentConfig(d)
	if err != nil {
		return nil, err
	}
	m, err := lumos.New().Profile(ctx, cfg, s.r.profileSeed())
	if err != nil {
		return nil, err
	}
	if err := lumos.SaveTraces(m, dir); err != nil {
		return nil, err
	}
	var traces []json.RawMessage
	for rank := range m.Ranks {
		raw, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("rank_%d.json", rank)))
		if err != nil {
			return nil, err
		}
		traces = append(traces, raw)
	}
	return traces, nil
}

// start is one complete set-up: profile the base and upload deployments on
// the simulated substrate and write their rank_*.json, start lumosd on a
// fresh cache directory, register base-a, base-b and upload from the
// inline traces and wide by seed. A previous set-up's server is stopped
// first.
func (s *serveBench) start(ctx context.Context, rep int) error {
	s.stop()
	dir := s.r.path("serve", strconv.Itoa(rep))
	base, err := s.tracegen(ctx, baseDeploy, filepath.Join(dir, "base"))
	if err != nil {
		return err
	}
	small, err := s.tracegen(ctx, uploadDeploy, filepath.Join(dir, "upload"))
	if err != nil {
		return err
	}
	seed := s.r.profileSeed()
	profiles := []profileBody{
		{Name: "base-a", Deployment: baseDeploy, Traces: base},
		{Name: "base-b", Deployment: baseDeploy, Traces: base},
		{Name: "upload", Deployment: uploadDeploy, Traces: small},
		{Name: "wide", Deployment: wideDeploy, Seed: &seed},
	}
	// Untraced requests are never retained (a request lumosd serves always
	// records spans; retention is what "trace": true adds), and the ring
	// holds a whole traced slice until drain fetches it.
	s.srv = server.New(server.Config{CacheDir: filepath.Join(dir, "cache"), Workers: workers, Seed: s.r.seed,
		TraceSlow: time.Hour, TraceCap: 1 << 30})
	s.hs = httptest.NewServer(s.srv)
	for _, p := range profiles {
		body, err := json.Marshal(p)
		if err != nil {
			return err
		}
		if p.Name == "upload" {
			s.upload = body
		}
		var info server.ProfileInfo
		if err := s.call(ctx, http.MethodPost, "/v1/profiles", body, &info); err != nil {
			return err
		}
		if !info.Created {
			return fmt.Errorf("profile %s was not created", info.Name)
		}
	}
	return nil
}

// stop shuts the running server down, if any.
func (s *serveBench) stop() {
	if s.hs != nil {
		s.hs.Close()
		s.srv.Close()
		s.hs, s.srv = nil, nil
	}
}

// call sends one request and decodes the JSON response into out (when
// non-nil); a non-2xx status is an error.
func (s *serveBench) call(ctx context.Context, method, path string, body []byte, out any) error {
	data, err := s.fetch(ctx, method, path, body)
	if err != nil || out == nil {
		return err
	}
	return json.Unmarshal(data, out)
}

func (s *serveBench) fetch(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.hs.URL+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(data)))
	}
	return data, nil
}

// kind returns op i's class from the seeded shuffle of its block's deck.
func (s *serveBench) kind(i int) string {
	slot := s.r.rng(1<<41 + uint64(i/deckSize)).Perm(deckSize)[i%deckSize]
	for _, c := range deck {
		if slot < c.n {
			return c.class
		}
		slot -= c.n
	}
	panic("deck holds fewer than deckSize ops")
}

// bodyStream is the generator stream op i's request body is drawn from:
// its own for a fresh op; for a repeated one, that of a seeded earlier
// fresh op of the same class (its own when there is none yet).
func (s *serveBench) bodyStream(i int, fresh string) uint64 {
	rng := s.r.rng(1<<42 + uint64(i))
	for try := 0; i > 0 && try < 64 && s.kind(i) != fresh; try++ {
		if j := rng.IntN(i); s.kind(j) == fresh {
			return 1<<43 + uint64(j)
		}
	}
	return 1<<43 + uint64(i)
}

// pick returns k distinct values of menu in menu order.
func pick(rng *rand.Rand, menu []int, k int) []int {
	idx := rng.Perm(len(menu))[:k]
	sort.Ints(idx)
	out := make([]int, k)
	for i, j := range idx {
		out[i] = menu[j]
	}
	return out
}

// degradeFactor draws a network degrade factor in [0.3, 1) with six
// decimals: fine enough that fresh plans practically never meet a point an
// earlier plan simulated, so the share of cache hits stays that of the
// deck's repeats instead of growing over the run.
func degradeFactor(rng *rand.Rand) float64 {
	return math.Round((0.3+0.7*rng.Float64())*1e6) / 1e6
}

// planBody is a fresh bnb plan whose pipelines range from a shallow depth
// (1 or 2) to deep.
func (s *serveBench) planBody(stream uint64, deep int) server.PlanRequest {
	rng := s.r.rng(stream)
	scheds := []string{"1f1b", "gpipe", "zb-h1"}
	perm := rng.Perm(len(scheds))
	d0, d1 := degradeFactor(rng), degradeFactor(rng)
	if d0 == d1 {
		d1 = math.Round(d0/2*1e6) / 1e6
	}
	return server.PlanRequest{
		Profile: []string{"base-a", "base-b"}[rng.IntN(2)],
		// One shallow and one deep pipeline, and at least as many
		// microbatches as stages, so every space has a point that fits in
		// memory and schedules validly. bnb plans stay on the structural
		// cache's shared path: the structures plans and sweeps can reach
		// on a base profile (48 + 9) fit its 64 entries. The "wide" class
		// is the one that overflows.
		PPRange:   []int{1 + rng.IntN(2), deep},
		DPRange:   []int{1, 2},
		MBRange:   []int{4, 8},
		Schedules: []string{scheds[min(perm[0], perm[1])], scheds[max(perm[0], perm[1])]},
		Degrade:   []float64{d0, d1},
		Strategy:  "bnb",
	}
}

// wideBody is an exhaustive plan on "wide" of 2 × 2 × 2 structures drawn
// from pp {2,3,4} × dp {1,2} × mb {4..8} × one of {1f1b, gpipe, zb-h1}
// (90 in all), under one seeded degrade factor, with cli-plan's memory
// model (141 GiB devices, ZeRO-1).
func (s *serveBench) wideBody(stream uint64) server.PlanRequest {
	rng := s.r.rng(stream)
	return server.PlanRequest{
		Profile:   "wide",
		PPRange:   pick(rng, []int{2, 3, 4}, 2),
		DPRange:   []int{1, 2},
		MBRange:   pick(rng, []int{4, 5, 6, 7, 8}, 2),
		Schedules: []string{[]string{"1f1b", "gpipe", "zb-h1"}[rng.IntN(3)]},
		Degrade:   []float64{degradeFactor(rng)},
		Strategy:  "exhaustive",
		GPUMemGiB: 141,
		ZeRO:      1,
	}
}

func (s *serveBench) sweepBody(stream uint64) server.SweepRequest {
	rng := s.r.rng(stream)
	return server.SweepRequest{
		Profile: []string{"base-a", "base-b"}[rng.IntN(2)],
		PPRange: pick(rng, []int{1, 2, 3, 4}, 2),
		DPRange: pick(rng, []int{1, 2, 4}, 2),
		Archs:   []string{[]string{"v1", "v2", "v3", "v4", "44b"}[rng.IntN(5)]},
	}
}

func (s *serveBench) op(ctx context.Context, i int, agg *layerAgg) (opOut, error) {
	switch class := s.kind(i); class {
	case "plan", "plan-pp3", "plan-repeat", "plan-other", "wide":
		kind, body := "plan", s.planBody(s.bodyStream(i, "plan"), 4)
		switch class {
		case "plan-pp3":
			body = s.planBody(1<<43+uint64(i), 3)
		case "plan-other":
			body.Profile = map[string]string{"base-a": "base-b", "base-b": "base-a"}[body.Profile]
		case "wide":
			kind, body = "wide", s.wideBody(1<<43+uint64(i))
		}
		var resp server.PlanResponse
		if err := s.campaign(ctx, "/v1/plan", &body, &body.Trace, &resp, &resp.TraceID, agg); err != nil {
			return opOut{}, err
		}
		if resp.Best == nil {
			return opOut{}, fmt.Errorf("plan %+v found no feasible point: %+v", body, resp.Infeasible)
		}
		if agg != nil {
			agg.addPlan(lumos.PlanStats{SpaceSize: resp.Stats.SpaceSize, Simulated: resp.Stats.Simulated,
				BoundPruned: resp.Stats.BoundPruned, SharedStructure: resp.Stats.SharedStructure})
		}
		if kind == "plan" {
			s.mu.Lock()
			if s.plans[0] == nil {
				s.plans[0] = &servedPlan{body: body, best: resp.Best}
			}
			s.plans[1] = &servedPlan{body: body, best: resp.Best}
			s.mu.Unlock()
		}
		return opOut{kind: kind, lookups: resp.Stats.SimRequests}, nil
	case "sweep", "sweep-repeat":
		body := s.sweepBody(s.bodyStream(i, "sweep"))
		var resp server.SweepResponse
		if err := s.campaign(ctx, "/v1/sweep", &body, &body.Trace, &resp, &resp.TraceID, agg); err != nil {
			return opOut{}, err
		}
		for _, r := range resp.Results {
			if r.Err != "" {
				return opOut{}, fmt.Errorf("sweep scenario %s failed: %s", r.Name, r.Err)
			}
		}
		return opOut{kind: "sweep", lookups: resp.Scenarios}, nil
	case "profile":
		// A re-upload decodes the inline traces and finds the identical
		// profile registered: the request is decode-bound, so its time is
		// what the traced run attributes to decode.
		var info server.ProfileInfo
		t0 := time.Now()
		if err := s.call(ctx, http.MethodPost, "/v1/profiles", s.upload, &info); err != nil {
			return opOut{}, err
		}
		if agg != nil {
			agg.addDecode(time.Since(t0), 0)
			s.mu.Lock()
			s.uploads++
			s.mu.Unlock()
		}
		if info.Created {
			return opOut{}, fmt.Errorf("re-upload of %s created a new profile", info.Name)
		}
		return opOut{kind: "profile"}, nil
	case "stats":
		var st server.StatsResponse
		if err := s.call(ctx, http.MethodGet, "/v1/stats", nil, &st); err != nil {
			return opOut{}, err
		}
		if len(st.Profiles) < 4 {
			return opOut{}, fmt.Errorf("stats lists %d profiles", len(st.Profiles))
		}
		return opOut{kind: "read"}, nil
	default:
		data, err := s.fetch(ctx, http.MethodGet, "/metrics", nil)
		if err != nil {
			return opOut{}, err
		}
		if !bytes.Contains(data, []byte("lumosd_requests_total")) {
			return opOut{}, fmt.Errorf("/metrics lacks lumosd_requests_total")
		}
		return opOut{kind: "read"}, nil
	}
}

// campaign posts a plan or sweep body and checks determinism: a body seen
// before in this run must get a response identical to the first one (the
// trace id aside). In the traced phase the body opts into tracing and the
// trace id is queued for drain, so fetching the trace is not part of the
// op.
func (s *serveBench) campaign(ctx context.Context, path string, body any, trace *bool, resp any, traceID *string, agg *layerAgg) error {
	plain, err := json.Marshal(body)
	if err != nil {
		return err
	}
	*trace = agg != nil
	sent, err := json.Marshal(body)
	if err != nil {
		return err
	}
	if err := s.call(ctx, http.MethodPost, path, sent, resp); err != nil {
		return err
	}
	id := *traceID
	*traceID = ""
	canon, err := json.Marshal(resp)
	if err != nil {
		return err
	}
	if agg != nil && id == "" {
		return fmt.Errorf("traced %s response has no trace id", path)
	}
	key := sha256.Sum256(append([]byte(path), plain...))
	s.mu.Lock()
	if id != "" {
		s.pending = append(s.pending, id)
	}
	first, seen := s.seen[key]
	if !seen {
		s.seen[key] = canon
	}
	s.mu.Unlock()
	if seen && !bytes.Equal(first, canon) {
		return fmt.Errorf("repeated %s body got a different response:\n got %s\nwant %s", path, canon, first)
	}
	return nil
}

// drain runs after each traced slice, with no request in flight: it fetches
// the slice's recorded traces from GET /v1/traces/{id} into agg, and
// attributes the bytes the slice's re-uploads allocated to decode. The
// allocation of one re-upload is measured once, alone, because the
// process-wide allocation counter cannot separate concurrent requests.
func (s *serveBench) drain(ctx context.Context, agg *layerAgg) error {
	s.mu.Lock()
	ids, uploads := s.pending, s.uploads
	s.pending, s.uploads = nil, 0
	s.mu.Unlock()
	for _, id := range ids {
		var doc struct {
			TraceEvents []lumos.TraceEvent `json:"traceEvents"`
		}
		if err := s.call(ctx, http.MethodGet, "/v1/traces/"+id, nil, &doc); err != nil {
			return err
		}
		agg.addEvents(doc.TraceEvents)
	}
	if uploads > 0 && s.probe == 0 {
		g0 := readGoCounters()
		if err := s.call(ctx, http.MethodPost, "/v1/profiles", s.upload, nil); err != nil {
			return err
		}
		s.probe = readGoCounters().allocBytes - g0.allocBytes
	}
	agg.addDecodeBytes(uint64(uploads) * s.probe)
	return nil
}

// counters scrapes /metrics.
func (s *serveBench) counters(ctx context.Context) (counters, error) {
	m, most, err := s.scrape(ctx)
	if err != nil {
		return counters{}, err
	}
	return counters{
		memoHits:    int64(m["lumos_memo_hits_total"]),
		diskHits:    int64(m["lumos_scenario_disk_hits_total"]),
		storeHits:   int64(m["lumos_scache_hits_total"]),
		storeMisses: int64(m["lumos_scache_misses_total"]),
		puts:        int64(m["lumos_scache_puts_total"]),
		evictions:   int64(m["lumos_scache_evictions_total"]),
		storeBytes:  int64(m["lumos_scache_bytes"]),
		programs:    int64(m["lumos_engine_compiled_programs_total"]),
		runs:        int64(m["lumos_engine_runs_total"]),
		graphs:      int64(most["lumos_struct_shared_graphs"]),
	}, nil
}

// scrape reads /metrics into per-name sums and maxima over every label
// set.
func (s *serveBench) scrape(ctx context.Context) (sum, most map[string]float64, err error) {
	data, err := s.fetch(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, nil, err
	}
	sum, most = make(map[string]float64), make(map[string]float64)
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, nil, fmt.Errorf("/metrics line %q: %w", line, err)
		}
		name := line[:sp]
		if b := strings.IndexByte(name, '{'); b >= 0 {
			name = name[:b]
		}
		sum[name] += v
		most[name] = max(most[name], v)
	}
	return sum, most, nil
}

// check runs the end-of-run checks outside the timed loop: /metrics
// counters equal /v1/stats, and the first and the latest bnb plans find the
// same best point as an exhaustive search of the same space.
func (s *serveBench) check(ctx context.Context) (int, int, error) {
	checks, failed := 0, 0
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
		failed++
	}
	var st server.StatsResponse
	if err := s.call(ctx, http.MethodGet, "/v1/stats", nil, &st); err != nil {
		return 0, 0, err
	}
	m, _, err := s.scrape(ctx)
	if err != nil {
		return 0, 0, err
	}
	var memo, diskHits int64
	for _, p := range st.Profiles {
		memo += p.MemoHits
		diskHits += p.DiskHits
	}
	pairs := []struct {
		name string
		want int64
	}{
		{"lumosd_profiles_created_total", st.Requests.Profiles},
		{"lumosd_sweeps_total", st.Requests.Sweeps},
		{"lumosd_plans_total", st.Requests.Plans},
		{"lumosd_request_errors_total", st.Requests.Errors},
		{"lumosd_plan_simulated_total", st.Search.Simulated},
		{"lumosd_plan_bound_pruned_total", st.Search.BoundPruned},
		{"lumosd_plan_dominated_pruned_total", st.Search.DominatedPruned},
		{"lumosd_plan_shared_structure_total", st.Search.SharedStructure},
		{"lumos_engine_compiled_programs_total", st.Engine.CompiledPrograms},
		{"lumos_engine_runs_total", st.Engine.CompiledRuns + st.Engine.InterpretedRuns},
		{"lumos_memo_hits_total", memo},
		{"lumos_scenario_disk_hits_total", diskHits},
	}
	if st.Disk != nil {
		pairs = append(pairs, []struct {
			name string
			want int64
		}{
			{"lumos_scache_hits_total", st.Disk.Hits},
			{"lumos_scache_misses_total", st.Disk.Misses},
			{"lumos_scache_puts_total", st.Disk.Puts},
			{"lumos_scache_evictions_total", st.Disk.Evictions},
			{"lumos_scache_bytes", st.Disk.Bytes},
		}...)
	} else {
		fail("/v1/stats reports no disk cache")
	}
	checks++
	for _, p := range pairs {
		if got := int64(m[p.name]); got != p.want {
			fail("/metrics %s = %d, /v1/stats says %d", p.name, got, p.want)
			break
		}
	}

	s.mu.Lock()
	sample := s.plans
	s.mu.Unlock()
	for _, p := range sample {
		if p == nil {
			continue
		}
		checks++
		body := p.body
		body.Strategy, body.Trace = "exhaustive", false
		data, err := json.Marshal(body)
		if err != nil {
			return 0, 0, err
		}
		var resp server.PlanResponse
		if err := s.call(ctx, http.MethodPost, "/v1/plan", data, &resp); err != nil {
			fail("exhaustive plan: %v", err)
			continue
		}
		if resp.Best == nil || resp.Best.Point != p.best.Point || resp.Best.IterationMs != p.best.IterationMs {
			fail("bnb best %+v != exhaustive best %+v for %s", p.best, resp.Best, data)
		}
	}
	return checks, failed, nil
}

// fidelity registers a profile seeded at the fidelity seed, compares its
// replayed iteration with actual runs, then plans a fixed space
// exhaustively on it and compares every simulated point with actual runs.
func (s *serveBench) fidelity(ctx context.Context) (fidelityResult, error) {
	var fid fidelityResult
	seed := uint64(fidelitySeed)
	body, err := json.Marshal(profileBody{Name: "fidelity", Deployment: baseDeploy, Seed: &seed})
	if err != nil {
		return fid, err
	}
	var info server.ProfileInfo
	if err := s.call(ctx, http.MethodPost, "/v1/profiles", body, &info); err != nil {
		return fid, err
	}
	actual, err := actualRuns(ctx, s.cfg, nil)
	if err != nil {
		return fid, err
	}
	fid.replay.add(info.IterationMs*1e6, actual)
	plan, err := json.Marshal(server.PlanRequest{
		Profile: "fidelity", PPRange: []int{2, 4}, MBRange: []int{8}, Schedules: []string{"1f1b"}, Strategy: "exhaustive",
	})
	if err != nil {
		return fid, err
	}
	var resp server.PlanResponse
	if err := s.call(ctx, http.MethodPost, "/v1/plan", plan, &resp); err != nil {
		return fid, err
	}
	for _, p := range append(append([]server.PlanPoint(nil), resp.Frontier...), resp.Dominated...) {
		var pt lumos.PlanPoint
		if _, err := fmt.Sscanf(p.Point, "%dx%dx%d/mb%d", &pt.TP, &pt.PP, &pt.DP, &pt.Microbatches); err != nil {
			return fid, fmt.Errorf("plan point %q: %w", p.Point, err)
		}
		if i := strings.LastIndexByte(p.Point, '/'); i >= 0 && !strings.HasPrefix(p.Point[i+1:], "mb") {
			pt.Schedule = p.Point[i+1:]
		}
		actual, err := actualRuns(ctx, pt.Config(s.cfg), nil)
		if err != nil {
			return fid, err
		}
		fid.predict.add(p.IterationMs*1e6, actual)
	}
	return fid, nil
}
