// Compiled replay engine, the one production replay path: Compile lowers
// an execgraph once into an immutable structure-of-arrays Program —
// int-indexed task columns, CSR-flattened dependency edges, dense
// per-resource kernel lanes, and a precomputed seed frontier — and
// Program.Run executes retimed simulations against it with a small
// reusable Scratch. The steady path allocates nothing: the ready heap is a
// hand-rolled binary heap on a scratch slice (no container/heap interface
// boxing), sync waiter lists are intrusive chains in a pooled arena, and
// collective rendezvous state lives in flat CSR slots sized at compile
// time.
//
// The engine is bit-identical to the reference interpreter in
// replay/replayref: the ready heap orders by (recorded start, task ID) — a
// strict total order, so any conforming heap pops the same sequence — and
// waiter/rendezvous folds are order-independent max-reductions. The
// interpreter is imported only by tests, as the oracle for that identity.
package replay

import (
	"math"
	"sync/atomic"

	"lumos/internal/execgraph"
	"lumos/internal/trace"
)

// Timings carries flat duration overrides for one run. A nil column falls
// back to the program's recorded durations; a non-nil column must cover
// every task of the compiled graph.
type Timings struct {
	Dur      []trace.Dur
	GroupDur []trace.Dur
}

// Program is an immutable compiled form of an execution graph. It is safe
// for concurrent Run calls as long as each goroutine brings its own Scratch.
type Program struct {
	opts Options
	g    *execgraph.Graph

	nTasks int
	nProcs int
	nRanks int

	// Per-task columns.
	kind       []execgraph.TaskKind
	sync       []execgraph.SyncKind
	proc       []int32
	rank       []int32
	syncStream []int32
	launch     []int32
	recStart   []trace.Time
	baseDur    []trace.Dur
	baseGDur   []trace.Dur
	depsInit   []int32

	// CSR out-edges: outEdge[outStart[id]:outStart[id+1]].
	outStart []int32
	outEdge  []int32

	// CSR per-processor GPU kernel lanes in task order.
	kernStart []int32
	kern      []int32

	// CSR rank → GPU processor indices, plus per-processor stream TIDs for
	// SyncStream filtering.
	rankProcStart []int32
	rankProc      []int32
	procTID       []int32

	// Collective groups (populated only under CoupleCollectives):
	// groupOf maps a task to its group index (-1 none); arrival slots for
	// group gi live at [groupOff[gi], groupOff[gi]+groupExpect[gi]).
	groupOf     []int32
	groupExpect []int32
	groupOff    []int32
	nGroups     int
	groupSlots  int

	// seeds lists tasks with no fixed in-edges, in task order — the initial
	// ready frontier, precomputed so runs skip the O(n) scan.
	seeds []int32
}

// Compile lowers g into an immutable structure-of-arrays program.
func Compile(g *execgraph.Graph, opts Options) *Program {
	n := len(g.Tasks)
	p := &Program{
		opts:   opts,
		g:      g,
		nTasks: n,
		nProcs: len(g.Procs),
		nRanks: g.NumRanks,

		kind:       make([]execgraph.TaskKind, n),
		sync:       make([]execgraph.SyncKind, n),
		proc:       make([]int32, n),
		rank:       make([]int32, n),
		syncStream: make([]int32, n),
		launch:     make([]int32, n),
		recStart:   make([]trace.Time, n),
		baseDur:    make([]trace.Dur, n),
		baseGDur:   make([]trace.Dur, n),
		depsInit:   make([]int32, n),
		outStart:   make([]int32, n+1),
		groupOf:    make([]int32, n),
	}

	totalOut := 0
	for i := range g.Tasks {
		totalOut += len(g.Tasks[i].Out)
	}
	p.outEdge = make([]int32, 0, totalOut)
	for i := range g.Tasks {
		t := &g.Tasks[i]
		p.kind[i] = t.Kind
		p.sync[i] = t.Sync
		p.proc[i] = t.Proc
		p.rank[i] = t.Rank
		p.syncStream[i] = t.SyncStreamID
		p.launch[i] = t.LaunchTask
		p.recStart[i] = t.Start
		p.baseDur[i] = t.Dur
		p.baseGDur[i] = t.GroupDur
		p.depsInit[i] = t.NFixedIn
		p.groupOf[i] = -1
		p.outStart[i] = int32(len(p.outEdge))
		p.outEdge = append(p.outEdge, t.Out...)
		if t.NFixedIn == 0 {
			p.seeds = append(p.seeds, int32(i))
		}
	}
	p.outStart[n] = int32(len(p.outEdge))

	// GPU kernel lanes, CSR by processor, members in task order (matching
	// the reference interpreter's bind, which appends while scanning tasks).
	p.kernStart = make([]int32, p.nProcs+1)
	for i := range g.Tasks {
		if g.Tasks[i].Kind == execgraph.TaskGPU {
			p.kernStart[g.Tasks[i].Proc+1]++
		}
	}
	for pr := 0; pr < p.nProcs; pr++ {
		p.kernStart[pr+1] += p.kernStart[pr]
	}
	fill := make([]int32, p.nProcs)
	p.kern = make([]int32, p.kernStart[p.nProcs])
	for i := range g.Tasks {
		if g.Tasks[i].Kind == execgraph.TaskGPU {
			pr := g.Tasks[i].Proc
			p.kern[p.kernStart[pr]+fill[pr]] = int32(i)
			fill[pr]++
		}
	}

	// Rank → GPU processors, CSR in processor-index order.
	p.procTID = make([]int32, p.nProcs)
	p.rankProcStart = make([]int32, p.nRanks+1)
	for pr := range g.Procs {
		p.procTID[pr] = int32(g.Procs[pr].TID)
		if g.Procs[pr].IsGPU {
			p.rankProcStart[g.Procs[pr].Rank+1]++
		}
	}
	for r := 0; r < p.nRanks; r++ {
		p.rankProcStart[r+1] += p.rankProcStart[r]
	}
	rfill := make([]int32, p.nRanks)
	p.rankProc = make([]int32, p.rankProcStart[p.nRanks])
	for pr := range g.Procs {
		if g.Procs[pr].IsGPU {
			r := g.Procs[pr].Rank
			p.rankProc[p.rankProcStart[r]+rfill[r]] = int32(pr)
			rfill[r]++
		}
	}

	// Collective rendezvous slots. Group index assignment follows map
	// iteration order; rendezvous semantics are order-independent, so the
	// order only affects internal layout.
	if opts.CoupleCollectives {
		for _, members := range g.Groups {
			gi := int32(p.nGroups)
			p.nGroups++
			p.groupExpect = append(p.groupExpect, int32(len(members)))
			p.groupOff = append(p.groupOff, int32(p.groupSlots))
			p.groupSlots += len(members)
			for _, id := range members {
				p.groupOf[id] = gi
			}
		}
	}
	return p
}

// BaseDur returns the recorded per-task duration column. The slice is
// program-owned and must not be modified; copy it to seed a Timings buffer.
func (p *Program) BaseDur() []trace.Dur { return p.baseDur }

// BaseGroupDur returns the recorded intrinsic collective duration column.
// Program-owned, read-only; copy it to seed a Timings buffer.
func (p *Program) BaseGroupDur() []trace.Dur { return p.baseGDur }

// waiterNode is one entry of an intrusive sync-waiter chain: sync is the
// blocked synchronization task, next the arena index+1 of the next node
// (0 terminates).
type waiterNode struct {
	sync int32
	next int32
}

// Scratch is the reusable mutable state for Program.Run. A zero Scratch is
// ready to use; it grows to fit the largest program it has run and resets
// with memclr-speed clears. Not safe for concurrent use — pool scratches,
// one per worker.
type Scratch struct {
	prog *Program
	dur  []trace.Dur
	gdur []trace.Dur

	deps       []int32
	earliest   []trace.Time
	start, end []trace.Time
	done       []bool
	procTime   []trace.Time
	procCursor []int32
	ready      []readyItem

	// syncMaxEnd is dense per task (stored values are always > 0, so the
	// zero value means "absent" exactly like the interpreter's map).
	syncMaxEnd []trace.Time
	// waiterHead holds, per task, the arena index+1 of its first waiter
	// node (0 = none); waiterArena is reset to length zero each run.
	waiterHead  []int32
	waiterArena []waiterNode

	groupCount  []int32
	groupMember []int32
	groupReady  []trace.Time

	executed int
	rankSpan []struct{ Start, End trace.Time }
}

// NewScratch returns an empty scratch; Run sizes it on first use.
func NewScratch() *Scratch { return &Scratch{} }

// bind sizes the scratch for p (allocating only on growth) and clears all
// per-run state.
func (s *Scratch) bind(p *Program) {
	s.prog = p
	n := p.nTasks
	s.deps = resize(s.deps, n)
	s.earliest = resize(s.earliest, n)
	s.start = resize(s.start, n)
	s.end = resize(s.end, n)
	s.done = resize(s.done, n)
	s.syncMaxEnd = resize(s.syncMaxEnd, n)
	s.waiterHead = resize(s.waiterHead, n)
	s.procTime = resize(s.procTime, p.nProcs)
	s.procCursor = resize(s.procCursor, p.nProcs)
	s.groupCount = resize(s.groupCount, p.nGroups)
	s.groupMember = resize(s.groupMember, p.groupSlots)
	s.groupReady = resize(s.groupReady, p.groupSlots)
	s.rankSpan = resize(s.rankSpan, p.nRanks)

	copy(s.deps, p.depsInit)
	clear(s.earliest)
	clear(s.done)
	clear(s.syncMaxEnd)
	clear(s.waiterHead)
	clear(s.procTime)
	clear(s.procCursor)
	clear(s.groupCount)
	s.ready = s.ready[:0]
	s.waiterArena = s.waiterArena[:0]
	s.executed = 0
}

// pushReady inserts a task into the manual binary ready heap, ordered by
// (recorded start, task ID) — the same strict total order as the reference
// interpreter's container/heap, so the pop sequence is identical.
func (s *Scratch) pushReady(task int32, recStart trace.Time) {
	h := append(s.ready, readyItem{task, recStart})
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !readyLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	s.ready = h
}

// popReady removes and returns the minimum ready item.
func (s *Scratch) popReady() readyItem {
	h := s.ready
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && readyLess(h[l], h[min]) {
			min = l
		}
		if r < n && readyLess(h[r], h[min]) {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	s.ready = h
	return top
}

func readyLess(a, b readyItem) bool {
	if a.recStart != b.recStart {
		return a.recStart < b.recStart
	}
	return a.task < b.task
}

// Run simulates the compiled graph under the given timings. The returned
// Result (and its Start/End/RankSpan slices) aliases scratch-owned buffers
// valid until the scratch's next Run. The steady path performs no heap
// allocation beyond one-time scratch growth.
func (p *Program) Run(t Timings, s *Scratch) (*Result, error) {
	s.bind(p)
	s.dur = t.Dur
	if s.dur == nil {
		s.dur = p.baseDur
	}
	s.gdur = t.GroupDur
	if s.gdur == nil {
		s.gdur = p.baseGDur
	}

	for _, id := range p.seeds {
		s.pushReady(id, p.recStart[id])
	}
	for len(s.ready) > 0 {
		it := s.popReady()
		s.execute(it.task)
	}

	n := p.nTasks
	if s.executed != n {
		e := &DeadlockError{Executed: s.executed, Total: n}
		for i := range s.done {
			if !s.done[i] {
				e.Stuck = append(e.Stuck, int32(i))
				if len(e.Stuck) == 8 {
					break
				}
			}
		}
		return nil, e
	}

	// A fresh Result per run (the only steady-path allocation): scalar
	// fields outlive the scratch, while Start/End/RankSpan alias scratch
	// buffers valid until its next Run.
	res := &Result{Start: s.start, End: s.end, Executed: s.executed}
	res.RankSpan = s.rankSpan
	for r := range res.RankSpan {
		res.RankSpan[r] = struct{ Start, End trace.Time }{Start: math.MaxInt64}
	}
	var lo, hi trace.Time = math.MaxInt64, 0
	for i := 0; i < n; i++ {
		r := p.rank[i]
		if s.start[i] < res.RankSpan[r].Start {
			res.RankSpan[r].Start = s.start[i]
		}
		if s.end[i] > res.RankSpan[r].End {
			res.RankSpan[r].End = s.end[i]
		}
		if s.start[i] < lo {
			lo = s.start[i]
		}
		if s.end[i] > hi {
			hi = s.end[i]
		}
	}
	if n > 0 {
		res.Makespan = hi - lo
	}
	return res, nil
}

// execute runs one ready task, applying runtime-dependency semantics:
// synchronization waits, collective rendezvous, or a plain processor slot.
func (s *Scratch) execute(id int32) {
	p := s.prog

	if p.sync[id] != execgraph.SyncNone {
		s.executeSync(id)
		return
	}

	if gi := p.groupOf[id]; gi >= 0 {
		s.arrive(id, gi)
		return
	}

	start := s.earliest[id]
	if pt := s.procTime[p.proc[id]]; pt > start {
		start = pt
	}
	s.finish(id, start, start+s.dur[id])
}

// executeSync resolves a synchronization task's runtime dependencies: fold
// stream frontiers of already-finished kernels, register as a waiter on
// unfinished enqueued kernels, and complete once none remain.
func (s *Scratch) executeSync(id int32) {
	p := s.prog
	rank := p.rank[id]
	streamOnly := p.sync[id] == execgraph.SyncStream
	sid := p.syncStream[id]
	procs := p.rankProc[p.rankProcStart[rank]:p.rankProcStart[rank+1]]

	// Fold stream frontiers.
	maxEnd := s.syncMaxEnd[id]
	for _, pr := range procs {
		if streamOnly && p.procTID[pr] != sid {
			continue
		}
		if f := s.procTime[pr]; f > maxEnd {
			maxEnd = f
		}
	}
	s.syncMaxEnd[id] = maxEnd

	// Gather pending kernels: every unfinished enqueued kernel of the
	// awaited stream(s); FIFO order means an un-launched kernel ends the
	// scan of its lane.
	var pending int32
	for _, pr := range procs {
		if streamOnly && p.procTID[pr] != sid {
			continue
		}
		kerns := p.kern[p.kernStart[pr]:p.kernStart[pr+1]]
		for i := s.procCursor[pr]; i < int32(len(kerns)); i++ {
			k := kerns[i]
			if s.done[k] {
				continue
			}
			if lt := p.launch[k]; lt >= 0 && !s.done[lt] {
				break
			}
			s.waiterArena = append(s.waiterArena, waiterNode{sync: id, next: s.waiterHead[k]})
			s.waiterHead[k] = int32(len(s.waiterArena))
			pending++
		}
	}
	if pending > 0 {
		s.deps[id] += pending
		return // re-queued as the awaited kernels finish
	}

	start := s.earliest[id]
	if pt := s.procTime[p.proc[id]]; pt > start {
		start = pt
	}
	end := start + p.opts.SyncMinDur
	if m := s.syncMaxEnd[id]; m > end {
		end = m
	}
	s.finish(id, start, end)
}

// arrive registers a collective member in its group's flat slots; the group
// resolves when all participants have arrived, finishing together at
// max(ready)+GroupDur.
func (s *Scratch) arrive(id, gi int32) {
	p := s.prog
	ready := s.earliest[id]
	if pt := s.procTime[p.proc[id]]; pt > ready {
		ready = pt
	}
	off := p.groupOff[gi]
	cnt := s.groupCount[gi]
	s.groupMember[off+cnt] = id
	s.groupReady[off+cnt] = ready
	cnt++
	s.groupCount[gi] = cnt
	if cnt < p.groupExpect[gi] {
		return
	}
	members := s.groupMember[off : off+cnt]
	readyT := s.groupReady[off : off+cnt]
	var maxReady trace.Time
	for _, r := range readyT {
		if r > maxReady {
			maxReady = r
		}
	}
	first := members[0]
	dur := s.gdur[first]
	if dur <= 0 {
		dur = s.dur[first]
	}
	end := maxReady + dur
	for i, member := range members {
		s.finish(member, readyT[i], end)
	}
}

// finish completes a task: records times, advances its processor lane,
// unblocks CSR dependents and chained sync waiters.
func (s *Scratch) finish(id int32, start, end trace.Time) {
	p := s.prog
	s.start[id] = start
	s.end[id] = end
	s.done[id] = true
	s.executed++
	pr := p.proc[id]
	if end > s.procTime[pr] {
		s.procTime[pr] = end
	}

	if p.kind[id] == execgraph.TaskGPU {
		kerns := p.kern[p.kernStart[pr]:p.kernStart[pr+1]]
		cur := s.procCursor[pr]
		for cur < int32(len(kerns)) && s.done[kerns[cur]] {
			cur++
		}
		s.procCursor[pr] = cur
	}

	for _, c := range p.outEdge[p.outStart[id]:p.outStart[id+1]] {
		if end > s.earliest[c] {
			s.earliest[c] = end
		}
		s.deps[c]--
		if s.deps[c] == 0 {
			s.pushReady(c, p.recStart[c])
		}
	}

	for node := s.waiterHead[id]; node != 0; {
		wn := waiterNode{}
		wn, node = s.waiterArena[node-1], s.waiterArena[node-1].next
		w := wn.sync
		if end > s.syncMaxEnd[w] {
			s.syncMaxEnd[w] = end
		}
		s.deps[w]--
		if s.deps[w] == 0 {
			s.pushReady(w, p.recStart[w])
		}
	}
	s.waiterHead[id] = 0
}

// Counters aggregates replay-engine activity across pooled engine
// instances. All fields are atomic so engines on different sweep workers
// can share one instance.
type Counters struct {
	// CompiledPrograms counts graph lowerings (Compile calls made on
	// behalf of this counter set).
	CompiledPrograms atomic.Int64
	// CompiledRuns counts simulations.
	CompiledRuns atomic.Int64
}

// Compiled is a poolable replay engine: it lowers the bound graph to a
// Program once and runs it on an embedded Scratch. Retimed views lower to
// flat duration columns instead of per-task wrapper calls. A Compiled is
// not safe for concurrent use — pool one per worker.
type Compiled struct {
	opts    Options
	prog    *Program
	scratch Scratch
	meter   *Counters
}

// NewCompiled returns a compiled engine with no bound program; the first
// Run compiles one.
func NewCompiled(opts Options) *Compiled { return &Compiled{opts: opts} }

// Meter attaches shared activity counters (may be nil to detach).
func (c *Compiled) Meter(m *Counters) { c.meter = m }

// Use binds an externally compiled (typically shared, cached) program so
// this engine skips its own lowering of the same graph.
func (c *Compiled) Use(p *Program) { c.prog = p }

// ensure binds a program for g, compiling unless the bound one matches. A
// graph that grew since compilation (builders may append tasks between
// runs) is re-lowered.
func (c *Compiled) ensure(g *execgraph.Graph) *Program {
	if c.prog == nil || c.prog.g != g || c.prog.nTasks != len(g.Tasks) {
		c.prog = Compile(g, c.opts)
		if c.meter != nil {
			c.meter.CompiledPrograms.Add(1)
		}
	}
	return c.prog
}

// Run simulates the graph with its recorded durations.
func (c *Compiled) Run(g *execgraph.Graph) (*Result, error) {
	p := c.ensure(g)
	if c.meter != nil {
		c.meter.CompiledRuns.Add(1)
	}
	return p.Run(Timings{}, &c.scratch)
}

// RunRetimed simulates a graph through a duration-override view, lowered
// to flat columns.
func (c *Compiled) RunRetimed(v *execgraph.Retimed) (*Result, error) {
	p := c.ensure(v.Graph)
	dur, gdur := v.Columns()
	if c.meter != nil {
		c.meter.CompiledRuns.Add(1)
	}
	return p.Run(Timings{Dur: dur, GroupDur: gdur}, &c.scratch)
}

// RunProgram simulates an externally compiled program (typically shared
// across workers via the structural-key cache) on this engine's scratch.
func (c *Compiled) RunProgram(p *Program, t Timings) (*Result, error) {
	c.prog = p
	if c.meter != nil {
		c.meter.CompiledRuns.Add(1)
	}
	return p.Run(t, &c.scratch)
}
