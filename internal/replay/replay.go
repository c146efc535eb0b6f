// Package replay implements the paper's simulation algorithm (Section 3.5,
// Algorithm 1): a task-graph simulator that assigns each task to its
// processor (CPU thread or CUDA stream), honors fixed dependencies seeded at
// initialization and runtime dependencies resolved during execution
// (synchronization calls and cross-rank collective rendezvous), and produces
// an output trace with the replayed timestamps of every task.
//
// There is one engine: Compile lowers a graph into an immutable Program and
// Program.Run replays it under flat duration columns on a reusable Scratch
// (see program.go). Run is the one-shot form; Compiled pools a program and
// its scratch for sweep workers. The straightforward map-and-heap
// interpreter the engine was derived from lives in replay/replayref, where
// tests use it as the bit-identity oracle.
package replay

import (
	"fmt"

	"lumos/internal/execgraph"
	"lumos/internal/trace"
)

// Options tunes the simulator.
type Options struct {
	// SyncMinDur is the minimum duration of a blocking synchronization call.
	SyncMinDur trace.Dur
	// CoupleCollectives enables cross-rank rendezvous semantics: all members
	// of a collective group finish together at max(ready)+GroupDur. When
	// false each comm kernel simply replays its recorded duration.
	CoupleCollectives bool
}

// DefaultOptions returns the settings used throughout the evaluation.
func DefaultOptions() Options {
	return Options{SyncMinDur: 1500, CoupleCollectives: true}
}

// DeadlockError reports a simulation that could not execute every task:
// the dependency structure left tasks permanently blocked (an invalid or
// cyclic-at-runtime graph).
type DeadlockError struct {
	// Executed and Total count simulated vs expected tasks.
	Executed, Total int
	// Stuck samples up to eight unfinished task IDs for diagnosis.
	Stuck []int32
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("replay: deadlock: simulated %d of %d tasks (stuck tasks include %v)",
		e.Executed, e.Total, e.Stuck)
}

// Result is a completed simulation.
type Result struct {
	// Start and End hold replayed times indexed by task ID. For results
	// produced by Program.Run or a Compiled engine they alias scratch
	// buffers valid until the scratch's next run; package-level Run
	// returns independently owned slices.
	Start, End []trace.Time
	// Makespan is the global simulated iteration time (max end − min start).
	Makespan trace.Dur
	// RankSpan holds each rank's simulated [start, end).
	RankSpan []struct{ Start, End trace.Time }
	// Executed counts simulated tasks (equals the task count on success).
	Executed int
}

// readyItem orders the ready heap by recorded start time so the simulator's
// pick() matches the profiled execution order, with task ID as tiebreak.
type readyItem struct {
	task     int32
	recStart trace.Time
}

// Run simulates the graph with its recorded durations. It is the one-shot
// entry point: the graph is compiled and run on a fresh Scratch, so the
// Result owns its buffers. Unlike the pooled Compiled engine, it feeds no
// activity counters.
func Run(g *execgraph.Graph, opts Options) (*Result, error) {
	return Compile(g, opts).Run(Timings{}, NewScratch())
}

// resize returns a slice of length n, reusing s's capacity.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// ToTrace materializes the simulation as per-rank traces with replayed
// timestamps, mirroring the structure of the originally collected trace so
// downstream analyses run unchanged on real and simulated executions.
func ToTrace(g *execgraph.Graph, res *Result) *trace.Multi {
	m := trace.NewMulti(g.NumRanks)
	for i := range g.Tasks {
		t := &g.Tasks[i]
		proc := &g.Procs[t.Proc]
		e := trace.Event{
			Name:       t.Name,
			Ts:         res.Start[i],
			Dur:        res.End[i] - res.Start[i],
			PID:        int(t.Rank),
			TID:        proc.TID,
			Stream:     -1,
			PeerRank:   -1,
			Layer:      int(t.Layer),
			Microbatch: int(t.Microbatch),
			Pass:       t.Pass,
		}
		if t.Kind == execgraph.TaskGPU {
			e.Cat = trace.CatKernel
			e.Stream = proc.TID
			e.Class = t.Class
			e.Comm = t.Comm
			e.CommID = t.CommID
			e.CommSeq = t.CommSeq
			e.CommBytes = t.CommBytes
			e.FLOPs = t.FLOPs
			e.Bytes = t.Bytes
			e.Correlation = int64(i) + 1
		} else if t.Runtime != trace.RuntimeNone {
			e.Cat = trace.CatCUDARuntime
			e.Runtime = t.Runtime
			e.CUDAEvent = t.CUDAEvent
			e.Stream = int(t.SyncStreamID)
		} else {
			e.Cat = trace.CatCPUOp
		}
		m.Ranks[int(t.Rank)].Add(e)
	}
	for _, tr := range m.Ranks {
		tr.Sort()
	}
	return m
}
