package execgraph

import (
	"testing"
)

// retimeGraph builds a tiny two-stream graph by hand.
func retimeGraph() *Graph {
	g := NewGraph(1)
	p := g.EnsureProc(0, true, 7)
	a := g.AddTask(Task{Kind: TaskGPU, Proc: p, Name: "a", Start: 0, Dur: 100})
	b := g.AddTask(Task{Kind: TaskGPU, Proc: p, Name: "b", Start: 100, Dur: 200, GroupDur: 150})
	g.AddEdge(a, b)
	return g
}

func TestRetimedSharesUntilFirstWrite(t *testing.T) {
	g := retimeGraph()
	v := NewRetimed(g)
	if v.Overridden() {
		t.Fatal("fresh view must not be overridden")
	}
	if v.Dur(0) != 100 || v.GroupDur(1) != 150 {
		t.Fatal("view must read through to the graph before overrides")
	}
	v.SetDur(0, 50)
	if !v.Overridden() {
		t.Fatal("override must materialize the view")
	}
	if v.Dur(0) != 50 || v.Dur(1) != 200 || v.GroupDur(1) != 150 {
		t.Fatalf("override columns wrong: %d %d %d", v.Dur(0), v.Dur(1), v.GroupDur(1))
	}
	// The graph is never mutated.
	if g.Tasks[0].Dur != 100 || g.Tasks[1].GroupDur != 150 {
		t.Fatal("retiming view mutated the graph")
	}
}

func TestRetimedScale(t *testing.T) {
	g := retimeGraph()
	v := NewRetimed(g)
	n := v.Scale(func(tk *Task) bool { return tk.Name == "b" }, 0.5)
	if n != 1 {
		t.Fatalf("matched %d tasks, want 1", n)
	}
	if v.Dur(1) != 100 || v.GroupDur(1) != 75 {
		t.Fatalf("scale wrong: dur=%d group=%d", v.Dur(1), v.GroupDur(1))
	}
	if v.Dur(0) != 100 {
		t.Fatal("unmatched task retimed")
	}
	// Scaling composes with a prior override.
	v.Scale(func(tk *Task) bool { return tk.Name == "b" }, 0.5)
	if v.Dur(1) != 50 {
		t.Fatalf("composed scale = %d, want 50", v.Dur(1))
	}
}
