package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 5

// workers bounds both the toolkit worker pool and the client connections
// of every workload (the benchmark host has two cores).
const workers = 2

// runner carries one run's parameters and its scratch directory.
type runner struct {
	seed    uint64
	seconds float64
	traced  bool
	dir     string
}

// newRunner creates the run's scratch directory under .bench_run in the
// working directory.
func newRunner(workload string, seed uint64, seconds float64, traced bool) (*runner, error) {
	dir, err := filepath.Abs(filepath.Join(".bench_run", fmt.Sprintf("%s-%d", workload, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("creating scratch dir: %w", err)
	}
	return &runner{seed: seed, seconds: seconds, traced: traced, dir: dir}, nil
}

// close removes the run's scratch directory, and .bench_run with it when no
// other run is using it.
func (r *runner) close() error {
	err := os.RemoveAll(r.dir)
	os.Remove(filepath.Dir(r.dir)) // fails harmlessly while other runs' directories remain
	return err
}

func (r *runner) path(elem ...string) string {
	return filepath.Join(append([]string{r.dir}, elem...)...)
}

// rng returns the deterministic generator for one input stream of the run
// (stream i of op i, or a named set-up stream).
func (r *runner) rng(stream uint64) *rand.Rand { return rand.New(rand.NewPCG(r.seed, stream)) }

// profileSeed is the seed the workload's base traces are profiled with. It
// stays below the fidelity panel's seeds, so held-out runs never coincide
// with a profiling run.
func (r *runner) profileSeed() uint64 { return r.seed % fidelitySeed }

func (r *runner) duration() time.Duration { return time.Duration(r.seconds * float64(time.Second)) }

// setup runs build setupReps times (each a complete, independent set-up)
// and returns the median wall time in seconds.
func (r *runner) setup(build func(rep int) error) (float64, error) {
	times := make([]float64, 0, setupReps)
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		if err := build(rep); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times), nil
}

// opOut is what one successful op reports back to the loop.
type opOut struct {
	// kind classifies the op for per-kind latency (serve-mixed endpoints).
	kind string
	// lookups counts the scenario evaluations the op requested, fresh
	// simulations and cache hits together.
	lookups int
}

// counters are the program's cumulative activity counters a workload
// exposes; the benchmark reports their deltas.
type counters struct {
	memoHits, diskHits                      int64 // scenario lookups served by the memo / disk layer
	storeHits, storeMisses, puts, evictions int64 // disk store activity
	storeBytes                              int64 // disk store occupancy
	programs, runs                          int64 // replay engine lowerings and runs
	graphs                                  int64 // most synthesized graphs one campaign state holds for structural sharing
}

func (c counters) minus(o counters) counters {
	return counters{c.memoHits - o.memoHits, c.diskHits - o.diskHits, c.storeHits - o.storeHits,
		c.storeMisses - o.storeMisses, c.puts - o.puts, c.evictions - o.evictions,
		c.storeBytes - o.storeBytes, c.programs - o.programs, c.runs - o.runs, c.graphs - o.graphs}
}

func (c counters) plus(o counters) counters {
	return counters{c.memoHits + o.memoHits, c.diskHits + o.diskHits, c.storeHits + o.storeHits,
		c.storeMisses + o.storeMisses, c.puts + o.puts, c.evictions + o.evictions,
		c.storeBytes + o.storeBytes, c.programs + o.programs, c.runs + o.runs, c.graphs + o.graphs}
}

// bench is one workload, as the shared measurement loop drives it.
type bench struct {
	// clients is the number of closed-loop callers.
	clients int
	// op runs op i. agg is non-nil in the traced phase and receives the
	// op's layer measurements. An error is a failed op.
	op func(ctx context.Context, i int, agg *layerAgg) (opOut, error)
	// counters reads the program's cumulative counters.
	counters func(ctx context.Context) (counters, error)
	// gauges samples worker-pool occupancy: busy workers, queued scenarios.
	gauges func() (busy, queued int64)
	// drain, when set, runs after each traced slice with no op in flight
	// and adds what the slice's ops left to collect to agg.
	drain func(ctx context.Context, agg *layerAgg) error
	// check runs the output checks that need the whole loop's results,
	// outside the timed region, and returns checks made and checks failed.
	check func(ctx context.Context) (checks, failed int, err error)
	// fidelity measures replay and prediction error against ground-truth
	// runs at held-out seeds, outside the timed region.
	fidelity func(ctx context.Context) (fidelityResult, error)

	// next is the index of the next op; it runs on across phases, so no
	// phase repeats another's inputs.
	next atomic.Int64
}

// loopResult is one closed-loop phase.
type loopResult struct {
	lat               map[string][]float64 // latency in ms per op kind
	all               []float64            // every successful op's latency in ms
	attempted, failed int
	lookups           int
	elapsed           time.Duration
	firstErr          error
}

func (l *loopResult) rate() float64 { return float64(len(l.all)) / l.elapsed.Seconds() }

// merge folds phase o into l.
func (l *loopResult) merge(o loopResult) {
	if l.lat == nil {
		l.lat = make(map[string][]float64)
	}
	for k, v := range o.lat {
		l.lat[k] = append(l.lat[k], v...)
	}
	l.all = append(l.all, o.all...)
	l.attempted += o.attempted
	l.failed += o.failed
	l.lookups += o.lookups
	l.elapsed += o.elapsed
}

// closedLoop runs ops from clients goroutines; each client issues its next
// op only after the previous one returns, and stops issuing after d. Op
// indices are global, so op i's inputs do not depend on which client runs
// it.
func closedLoop(ctx context.Context, b *bench, d time.Duration, agg *layerAgg) loopResult {
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	res := loopResult{lat: make(map[string][]float64)}
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < b.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for first := true; first || time.Now().Before(deadline); first = false {
				i := int(b.next.Add(1) - 1)
				t0 := time.Now()
				out, err := b.op(ctx, i, agg)
				ms := float64(time.Since(t0)) / float64(time.Millisecond)
				mu.Lock()
				res.attempted++
				if err != nil {
					res.failed++
					if res.firstErr == nil {
						res.firstErr = fmt.Errorf("op %d: %w", i, err)
					}
				} else {
					res.all = append(res.all, ms)
					res.lat[out.kind] = append(res.lat[out.kind], ms)
					res.lookups += out.lookups
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	if res.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d ops failed; first: %v\n", res.failed, res.attempted, res.firstErr)
	}
	return res
}

// windows is how many consecutive windows an untraced run is split into;
// throughput and each latency quantile are the median of the windows'
// figures, so a burst of contention from other processes on the host moves
// one window, not the result.
const windows = 5

// run measures the workload: end-to-end metrics from an untraced run, or,
// when the run is traced, per-layer metrics (see layers). Output checks and
// the fidelity panel run after the timed loop.
func (r *runner) run(ctx context.Context, b *bench, setupS float64) (*result, error) {
	if r.traced {
		return r.layers(ctx, b)
	}
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	var (
		lr               loopResult
		opRates, ptRates []float64
		p50s, p90s       []float64
		fresh            int
	)
	c0, err := b.counters(ctx)
	if err != nil {
		return nil, err
	}
	for w := 0; w < windows; w++ {
		wl := closedLoop(ctx, b, r.duration()/windows, nil)
		c1, err := b.counters(ctx)
		if err != nil {
			return nil, err
		}
		d := c1.minus(c0)
		c0 = c1
		wFresh := wl.lookups - int(d.memoHits+d.diskHits)
		fresh += wFresh
		opRates = append(opRates, wl.rate())
		ptRates = append(ptRates, float64(wFresh)/wl.elapsed.Seconds())
		sort.Float64s(wl.all)
		p50s = append(p50s, quantile(wl.all, 0.5))
		p90s = append(p90s, quantile(wl.all, 0.9))
		lr.merge(wl)
	}
	peak, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	checks, cfailed, err := b.check(ctx)
	if err != nil {
		return nil, err
	}
	fid, err := b.fidelity(ctx)
	if err != nil {
		return nil, fmt.Errorf("fidelity: %w", err)
	}
	res := &result{attempted: lr.attempted + checks, failed: lr.failed + cfailed}
	res.add("setup_s", "s", setupS, setupReps)
	res.add("ops_per_s", "1/s", median(opRates), len(lr.all))
	res.add("points_per_s", "1/s", median(ptRates), fresh)
	res.add("latency_p50_ms", "ms", median(p50s), len(lr.all))
	res.add("latency_p90_ms", "ms", median(p90s), len(lr.all))
	res.add("peak_rss_mib", "MiB", peak, 1)
	res.add("replay_err_pct", "%", fid.replay.pct(), fid.replay.n)
	res.add("predict_err_pct", "%", fid.predict.pct(), fid.predict.n)
	return res, nil
}

// traceSlices is how many untraced/traced slice pairs a traced run
// alternates between, so cache warm-up over the run affects both sides of
// the tracing-overhead comparison alike.
const traceSlices = 8

// layers alternates untraced and traced slices and reports per-layer
// metrics, normalized per completed op of the traced slices.
func (r *runner) layers(ctx context.Context, b *bench) (*result, error) {
	slice := r.duration() / (2 * traceSlices)
	agg := newLayerAgg()
	var (
		plain, lr loopResult
		dc        counters
		dg        goCounters
		pool      poolStats
		end       counters
	)
	// A first slice takes the caches' warm-up, which would otherwise fall
	// on the first untraced slice alone; only its op outcomes count.
	warm := closedLoop(ctx, b, slice, nil)
	for k := 0; k < 2*traceSlices; k++ {
		// Slice pairs run untraced-traced, then traced-untraced, and so on.
		if k%4 == 0 || k%4 == 3 {
			plain.merge(closedLoop(ctx, b, slice, nil))
			continue
		}
		c0, err := b.counters(ctx)
		if err != nil {
			return nil, err
		}
		g0 := readGoCounters()
		ps := samplePool(b.gauges)
		lr.merge(closedLoop(ctx, b, slice, agg))
		pool.add(ps.finish())
		g1 := readGoCounters()
		if end, err = b.counters(ctx); err != nil {
			return nil, err
		}
		dc = dc.plus(end.minus(c0))
		dg = dg.plus(g1.minus(g0))
		if b.drain != nil {
			if err := b.drain(ctx, agg); err != nil {
				return nil, err
			}
		}
	}
	checks, cfailed, err := b.check(ctx)
	if err != nil {
		return nil, err
	}
	res := &result{
		attempted: warm.attempted + plain.attempted + lr.attempted + checks,
		failed:    warm.failed + plain.failed + lr.failed + cfailed,
	}
	agg.report(res, layerInputs{
		loop:     &lr,
		untraced: plain.rate(),
		delta:    dc,
		end:      end,
		goDelta:  dg,
		pool:     pool,
	})
	return res, nil
}
