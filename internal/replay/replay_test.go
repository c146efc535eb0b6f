package replay_test

import (
	"testing"

	"lumos/internal/cluster"
	"lumos/internal/execgraph"
	"lumos/internal/model"
	"lumos/internal/parallel"
	"lumos/internal/replay"
	"lumos/internal/topology"
	"lumos/internal/trace"
)

func simGraph(t *testing.T, tp, pp, dp, mb int, seed uint64) (*trace.Multi, *execgraph.Graph) {
	t.Helper()
	m, err := topology.NewMapping(tp, pp, dp)
	if err != nil {
		t.Fatal(err)
	}
	cfg := parallel.DefaultConfig(model.GPT3_15B(), m)
	cfg.Microbatches = mb
	traces, err := cluster.Run(cfg, cluster.DefaultSimConfig(m.WorldSize(), seed))
	if err != nil {
		t.Fatal(err)
	}
	g, err := execgraph.Build(traces, execgraph.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return traces, g
}

func TestReplayReproducesRecording(t *testing.T) {
	// Replaying a graph with its recorded durations must land within 1% of
	// the recorded iteration time — the paper's self-replay sanity check.
	traces, g := simGraph(t, 2, 2, 2, 4, 31)
	res, err := replay.Run(g, replay.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rec := traces.Duration()
	diff := float64(res.Makespan-rec) / float64(rec)
	if diff < -0.01 || diff > 0.01 {
		t.Fatalf("replay %.1fms vs recorded %.1fms (%.2f%%)",
			float64(res.Makespan)/1e6, float64(rec)/1e6, 100*diff)
	}
	if res.Executed != len(g.Tasks) {
		t.Fatalf("executed %d of %d tasks", res.Executed, len(g.Tasks))
	}
}

func TestReplayDeterministic(t *testing.T) {
	_, g := simGraph(t, 2, 2, 1, 4, 33)
	a, err := replay.Run(g, replay.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := replay.Run(g, replay.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Start {
		if a.Start[i] != b.Start[i] || a.End[i] != b.End[i] {
			t.Fatalf("task %d times differ across identical replays", i)
		}
	}
}

func TestReplayRespectsDependencies(t *testing.T) {
	_, g := simGraph(t, 2, 2, 1, 4, 35)
	res, err := replay.Run(g, replay.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.Tasks {
		for _, o := range g.Tasks[i].Out {
			if res.End[i] > res.Start[o] {
				t.Fatalf("edge %d→%d violated: end %d > start %d (%s → %s)",
					i, o, res.End[i], res.Start[o], g.Tasks[i].Name, g.Tasks[o].Name)
			}
		}
	}
}

func TestReplayProcessorsExclusive(t *testing.T) {
	// Tasks on the same processor must not overlap, except collective
	// members spanning their rendezvous wait (start = own ready).
	_, g := simGraph(t, 2, 2, 1, 4, 37)
	res, err := replay.Run(g, replay.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	type span struct {
		s, e trace.Time
		id   int32
	}
	byProc := map[int32][]span{}
	for i := range g.Tasks {
		byProc[g.Tasks[i].Proc] = append(byProc[g.Tasks[i].Proc], span{res.Start[i], res.End[i], int32(i)})
	}
	for proc, spans := range byProc {
		for i := 1; i < len(spans); i++ {
			// sort by start
			for j := i; j > 0 && spans[j-1].s > spans[j].s; j-- {
				spans[j-1], spans[j] = spans[j], spans[j-1]
			}
		}
		for i := 1; i < len(spans); i++ {
			prev, cur := spans[i-1], spans[i]
			if cur.s < prev.e && !g.Tasks[cur.id].IsComm() && !g.Tasks[prev.id].IsComm() {
				t.Fatalf("proc %d: tasks %d and %d overlap (%d..%d vs %d..%d)",
					proc, prev.id, cur.id, prev.s, prev.e, cur.s, cur.e)
			}
		}
	}
}

func TestCollectiveCouplingInReplay(t *testing.T) {
	_, g := simGraph(t, 2, 2, 2, 4, 39)
	res, err := replay.Run(g, replay.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for key, members := range g.Groups {
		end := res.End[members[0]]
		for _, id := range members[1:] {
			if res.End[id] != end {
				t.Fatalf("group %v member ends differ in coupled replay", key)
			}
		}
	}
}

func TestUncoupledReplayUsesRecordedDurations(t *testing.T) {
	_, g := simGraph(t, 2, 2, 2, 4, 41)
	opts := replay.DefaultOptions()
	opts.CoupleCollectives = false
	res, err := replay.Run(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.Tasks {
		tk := &g.Tasks[i]
		if tk.Kind == execgraph.TaskGPU && tk.IsComm() {
			if got := res.End[i] - res.Start[i]; got != tk.Dur {
				t.Fatalf("uncoupled comm kernel %d duration %d != recorded %d", i, got, tk.Dur)
			}
		}
	}
}

func TestSyncWaitsForStream(t *testing.T) {
	// Every stream-sync task must end no earlier than the last kernel on
	// its stream that was enqueued before it.
	_, g := simGraph(t, 2, 2, 2, 4, 43)
	res, err := replay.Run(g, replay.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.Tasks {
		tk := &g.Tasks[i]
		if tk.Sync != execgraph.SyncDevice {
			continue
		}
		// Device sync: all kernels of this rank launched before it must
		// finish before it ends.
		for j := range g.Tasks {
			o := &g.Tasks[j]
			if o.Kind != execgraph.TaskGPU || o.Rank != tk.Rank {
				continue
			}
			lt := o.LaunchTask
			if lt >= 0 && res.End[lt] <= res.Start[i] && res.End[j] > res.End[i] {
				t.Fatalf("device sync %d (end %d) did not cover kernel %d (end %d)",
					i, res.End[i], j, res.End[j])
			}
		}
		break // one device sync is enough; the check is O(n²)
	}
}

func TestToTraceRoundTrip(t *testing.T) {
	traces, g := simGraph(t, 2, 1, 1, 4, 45)
	res, err := replay.Run(g, replay.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	out := replay.ToTrace(g, res)
	if out.NumRanks() != traces.NumRanks() {
		t.Fatal("rank count changed")
	}
	for r, tr := range out.Ranks {
		if len(tr.Events) != taskCount(g, r) {
			t.Fatalf("rank %d: %d events, %d tasks", r, len(tr.Events), taskCount(g, r))
		}
		// The replayed trace must itself be graph-buildable (validity of
		// categories, streams, correlations).
		if err := tr.Validate(); err != nil {
			t.Fatalf("rank %d replayed trace invalid: %v", r, err)
		}
	}
}

func taskCount(g *execgraph.Graph, rank int) int {
	n := 0
	for i := range g.Tasks {
		if int(g.Tasks[i].Rank) == rank {
			n++
		}
	}
	return n
}

func TestEmptyGraph(t *testing.T) {
	g := execgraph.NewGraph(1)
	res, err := replay.Run(g, replay.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 0 || res.Executed != 0 {
		t.Fatalf("empty graph result: %+v", res)
	}
}
