package replay_test

import (
	"errors"
	"testing"

	"lumos/internal/execgraph"
	"lumos/internal/replay"
)

// TestSimulatorReuseMatchesFreshRuns verifies the pooled-engine contract: a
// Compiled engine reused across runs (same graph, then a retimed view that
// halves every kernel, then the plain graph again) must produce exactly the
// times a fresh one-shot Run produces each time.
func TestSimulatorReuseMatchesFreshRuns(t *testing.T) {
	_, g := simGraph(t, 2, 2, 1, 4, 47)
	fresh, err := replay.Run(g, replay.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	eng := replay.NewCompiled(replay.DefaultOptions())

	first, err := eng.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if first.Makespan != fresh.Makespan {
		t.Fatalf("reused engine makespan %d != fresh %d", first.Makespan, fresh.Makespan)
	}

	// A retimed run in between must not contaminate subsequent plain runs.
	v := execgraph.NewRetimed(g)
	v.Scale(func(tk *execgraph.Task) bool { return tk.Kind == execgraph.TaskGPU }, 0.5)
	scaled, err := eng.RunRetimed(v)
	if err != nil {
		t.Fatal(err)
	}
	if scaled.Makespan >= fresh.Makespan {
		t.Fatalf("halving every kernel did not speed up: %d vs %d", scaled.Makespan, fresh.Makespan)
	}

	again, err := eng.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if again.Makespan != fresh.Makespan {
		t.Fatalf("post-retime reuse makespan %d != fresh %d", again.Makespan, fresh.Makespan)
	}
	for i := range fresh.Start {
		if again.Start[i] != fresh.Start[i] || again.End[i] != fresh.End[i] {
			t.Fatalf("task %d times differ after engine reuse", i)
		}
	}
}

// TestSimulatorRebinds verifies a pooled Compiled engine can move between
// graphs of different shapes, re-lowering each time.
func TestSimulatorRebinds(t *testing.T) {
	_, small := simGraph(t, 2, 1, 1, 4, 49)
	_, large := simGraph(t, 2, 2, 1, 4, 49)
	eng := replay.NewCompiled(replay.DefaultOptions())
	for _, g := range []*execgraph.Graph{small, large, small} {
		want, err := replay.Run(g, replay.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.Run(g)
		if err != nil {
			t.Fatal(err)
		}
		if got.Makespan != want.Makespan || got.Executed != want.Executed {
			t.Fatalf("rebound engine: makespan %d/%d executed %d/%d",
				got.Makespan, want.Makespan, got.Executed, want.Executed)
		}
	}
}

// TestDeadlockError verifies an unexecutable graph surfaces as a typed
// replay.DeadlockError identifying the stuck tasks, instead of a silent count
// mismatch left for callers to notice.
func TestDeadlockError(t *testing.T) {
	g := execgraph.NewGraph(1)
	p := g.EnsureProc(0, false, 1)
	a := g.AddTask(execgraph.Task{Kind: execgraph.TaskCPU, Proc: p, Name: "ok", Dur: 10})
	b := g.AddTask(execgraph.Task{Kind: execgraph.TaskCPU, Proc: p, Name: "stuck", Dur: 10})
	_ = a
	// Corrupt the in-degree: b waits for a dependency that will never
	// resolve.
	g.Tasks[b].NFixedIn = 1

	_, err := replay.Run(g, replay.DefaultOptions())
	var dl *replay.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want *replay.DeadlockError", err)
	}
	if dl.Executed != 1 || dl.Total != 2 {
		t.Fatalf("deadlock counts: %d/%d", dl.Executed, dl.Total)
	}
	if len(dl.Stuck) != 1 || dl.Stuck[0] != b {
		t.Fatalf("stuck sample = %v, want [%d]", dl.Stuck, b)
	}
}

// TestUncoupledRetimedComm checks duration views reach uncoupled comm
// kernels too: with no rendezvous groups compiled, an overridden comm
// kernel replays its overridden duration.
func TestUncoupledRetimedComm(t *testing.T) {
	_, g := simGraph(t, 2, 2, 2, 4, 51)
	opts := replay.DefaultOptions()
	opts.CoupleCollectives = false
	eng := replay.NewCompiled(opts)
	v := execgraph.NewRetimed(g)
	var firstComm int32 = -1
	for i := range g.Tasks {
		if g.Tasks[i].IsComm() {
			firstComm = int32(i)
			break
		}
	}
	if firstComm < 0 {
		t.Fatal("no comm kernels")
	}
	v.SetDur(firstComm, 12345)
	res, err := eng.RunRetimed(v)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.End[firstComm] - res.Start[firstComm]; got != 12345 {
		t.Fatalf("uncoupled comm kernel replayed %d, want overridden 12345", got)
	}
}
