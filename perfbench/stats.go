package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// quantile returns the q-quantile of sorted xs, interpolating linearly
// between the closest ranks; 0 for no samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// resetPeakRSS returns freed heap to the OS and resets the kernel's
// resident-set high-water mark, so the next peakRSSMiB covers only what
// follows.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS (needs Linux /proc/self/clear_refs): %w", err)
	}
	return nil
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// goCounters are cumulative Go runtime counters from runtime/metrics.
type goCounters struct {
	allocBytes uint64
	gcCycles   uint64
	gcPauseSec float64
}

func (c goCounters) minus(o goCounters) goCounters {
	return goCounters{c.allocBytes - o.allocBytes, c.gcCycles - o.gcCycles, c.gcPauseSec - o.gcPauseSec}
}

func (c goCounters) plus(o goCounters) goCounters {
	return goCounters{c.allocBytes + o.allocBytes, c.gcCycles + o.gcCycles, c.gcPauseSec + o.gcPauseSec}
}

// readGoCounters samples the heap allocation total, the GC cycle count and
// the total GC stop-the-world pause time (estimated from the pause
// histogram's bucket midpoints).
func readGoCounters() goCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	metrics.Read(s)
	c := goCounters{allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64()}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[2].Value.Float64Histogram()
		for i, n := range h.Counts {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			mid := (lo + hi) / 2
			switch {
			case math.IsInf(lo, -1):
				mid = hi
			case math.IsInf(hi, 1):
				mid = lo
			}
			c.gcPauseSec += float64(n) * mid
		}
	}
	return c
}

// poolStats sums worker-pool gauge samples.
type poolStats struct {
	busy, queued float64
	n            int
}

func (p *poolStats) add(o poolStats) {
	p.busy += o.busy
	p.queued += o.queued
	p.n += o.n
}

// means returns the mean busy workers and queue depth.
func (p poolStats) means() (busy, queued float64) {
	if p.n == 0 {
		return 0, 0
	}
	return p.busy / float64(p.n), p.queued / float64(p.n)
}

// poolSampler polls worker-pool gauges on a fixed period until finished.
type poolSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	poolStats
}

// samplePool starts polling gauges every millisecond.
func samplePool(gauges func() (busy, queued int64)) *poolSampler {
	p := &poolSampler{stop: make(chan struct{})}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				b, q := gauges()
				p.busy += float64(b)
				p.queued += float64(q)
				p.n++
			}
		}
	}()
	return p
}

// finish stops polling and returns the samples taken.
func (p *poolSampler) finish() poolStats {
	close(p.stop)
	p.wg.Wait()
	return p.poolStats
}
