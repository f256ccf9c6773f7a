package core

// DynSession is the incremental dynamic-graph engine (ROADMAP item 4): where
// Session warm-starts repeated solves of structurally identical graphs,
// DynSession owns a mutable graph and absorbs arbitrary edits — arc
// insertion and deletion, weight and transit changes, node addition — while
// keeping the strongly-connected-component decomposition, the per-component
// optimal policies, AND the per-component answers alive across edits. A
// delta invalidates only the components it touches:
//
//   - A weight or transit change on an intra-component arc patches the
//     cached component subgraph in place and marks just that component for a
//     warm re-solve from its own converged policy; on a cross-component arc
//     it costs nothing at all, because such an arc lies on no cycle.
//   - Inserting an arc u→v merges components only when v already reaches u;
//     the merged node set {x : v ⇝ x ∧ x ⇝ u} is found with two BFS passes
//     and only the components inside it are rebuilt. A cross-component
//     insertion that closes no cycle is free.
//   - Deleting an intra-component arc re-decomposes that one component's
//     node set (it can only split, never affect its neighbors); deleting a
//     cross-component arc is free.
//
// At the next Solve, only dirty components run Howard — warm-started from
// the component's previous policy when the structure is unchanged, or from
// the per-node policy memory carried across rebuilds — and every clean
// component contributes its cached exact λ. The reported λ* is therefore
// always bit-identical to a fresh MinimumCycleMean of the current graph
// (exact rationals admit no drift), and with Options.Certify each answer
// carries the same exact Bellman–Ford optimality certificate a cold solve
// would produce, proven against a canonical snapshot of the current graph.
//
// Arc identity follows the PR 2 expansion-map contract: the IDs returned by
// Apply for insertions (and inherited from the seed graph) are stable
// original IDs that survive any number of deletions, and Result.Cycle —
// including Certificate.Witness — always references those original IDs, even
// though the overlay compacts its internal storage on every delete.

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/counter"
	"repro/internal/graph"
	"repro/internal/obs"
)

// DeltaOp enumerates the dynamic-graph edit operations.
type DeltaOp uint8

const (
	// DeltaInsertArc adds an arc From→To with Weight and Transit; Apply
	// reports the fresh original arc ID assigned to it.
	DeltaInsertArc DeltaOp = iota
	// DeltaDeleteArc removes the live arc identified by Arc.
	DeltaDeleteArc
	// DeltaSetWeight sets the weight of the live arc identified by Arc.
	DeltaSetWeight
	// DeltaSetTransit sets the transit time of the live arc Arc.
	DeltaSetTransit
	// DeltaAddNode appends one isolated node; Apply reports its node ID.
	DeltaAddNode
)

// String names the operation the way the serve protocol and tracer spell it.
func (op DeltaOp) String() string {
	switch op {
	case DeltaInsertArc:
		return "insert-arc"
	case DeltaDeleteArc:
		return "delete-arc"
	case DeltaSetWeight:
		return "set-weight"
	case DeltaSetTransit:
		return "set-transit"
	case DeltaAddNode:
		return "add-node"
	}
	return "unknown"
}

// ErrBadDelta wraps every delta rejection (unknown op, dead arc, node out of
// range); the failing delta's position and operation are in the message.
var ErrBadDelta = fmt.Errorf("core: invalid delta")

// Delta is one edit. Which fields matter depends on Op: insertion reads
// From, To, Weight, Transit; deletion reads Arc; the set operations read Arc
// and Weight or Transit; add-node reads nothing.
type Delta struct {
	Op      DeltaOp
	Arc     graph.ArcID
	From    graph.NodeID
	To      graph.NodeID
	Weight  int64
	Transit int64
}

// DynStats counts engine behavior over a DynSession's lifetime.
type DynStats struct {
	// Solves and Errors mirror SessionStats: every Solve/Update solve call
	// counts, and error returns are tallied separately.
	Solves int
	Errors int
	// Deltas is the number of deltas successfully applied.
	Deltas int
	// Components counts component re-solves actually performed; a Solve
	// with nothing dirty performs zero.
	Components int
	// WarmHits counts component re-solves that started from a cached or
	// transferred policy; WarmMisses counts cold starts.
	WarmHits   int
	WarmMisses int
	// Invalidated counts clean cached component results destroyed or
	// marked dirty by deltas.
	Invalidated int
	// Merges counts insertions that fused ≥2 components into one; Splits
	// counts deletions that decomposed one component into ≥2.
	Merges int
	Splits int
	// LiveComponents is the current number of cyclic components.
	LiveComponents int
}

// dynComp is one cyclic SCC tracked by the engine.
type dynComp struct {
	nodes      []graph.NodeID // member nodes, ascending
	g          *graph.Graph   // induced subgraph, nodes renumbered 0..len-1
	arcOrig    []graph.ArcID  // subgraph arc -> original overlay arc ID
	policy     []graph.ArcID  // converged policy (subgraph arc per node), nil before first solve
	res        Result         // last solve's result; Cycle holds subgraph arc IDs
	hasRes     bool
	dirty      bool // needs a re-solve
	weightOnly bool // dirty only through weight/transit changes: structure intact
}

// DynSession owns a mutable graph and answers minimum-cycle-mean queries
// across edits, re-solving only invalidated components. Safe for concurrent
// use; every method takes the session lock, and Update gives the serving
// layer an atomic apply+solve.
//
// Like Session, DynSession always solves with Howard's algorithm and ignores
// Options.Parallelism and Options.Kernelize; Options.Certify is honored on
// every Solve.
type DynSession struct {
	opt Options

	mu         sync.Mutex
	dg         *graph.DynamicGraph
	comps      []*dynComp
	compOf     []int32        // node -> index into comps, -1 when on no cycle
	nodePolicy []graph.ArcID  // node -> original arc ID of its last converged policy arc, -1 unknown
	remap      []graph.NodeID // node -> index in the set rebuildNodes is extracting; -1 between calls
	stats      DynStats

	// Lazily materialized canonical snapshot of the current graph, used for
	// certification; invalidated by every successful mutation.
	snap   *graph.Graph
	export []graph.ArcID // snapshot arc -> original ID, ascending
	origTo []graph.ArcID // original ID -> snapshot arc, -1 dead
	snapOK bool
}

// NewDynSession seeds the engine with g (copied, never retained). The seed
// graph's arcs keep their IDs 0..m-1 as original IDs. The first Solve runs
// cold and is bit-identical — cycle included — to MinimumCycleMean(g,
// howard, opt).
func NewDynSession(g *graph.Graph, opt Options) *DynSession {
	d := &DynSession{opt: opt, dg: graph.NewDynamic(g)}
	n := g.NumNodes()
	d.compOf = make([]int32, n)
	d.nodePolicy = make([]graph.ArcID, n)
	d.remap = make([]graph.NodeID, n)
	for i := 0; i < n; i++ {
		d.compOf[i] = -1
		d.nodePolicy[i] = -1
		d.remap[i] = -1
	}
	for _, comp := range graph.CyclicComponents(g) {
		d.addComp(&dynComp{nodes: comp.Nodes, g: comp.Graph, arcOrig: comp.ArcMap, dirty: true})
	}
	return d
}

// addComp appends c and points its members' compOf entries at it.
func (d *DynSession) addComp(c *dynComp) {
	idx := int32(len(d.comps))
	d.comps = append(d.comps, c)
	for _, v := range c.nodes {
		d.compOf[v] = idx
	}
}

// removeComp swap-deletes comps[i], fixing compOf for the moved component.
// The removed component's members are left pointing at -1.
func (d *DynSession) removeComp(i int32) *dynComp {
	c := d.comps[i]
	for _, v := range c.nodes {
		d.compOf[v] = -1
	}
	last := int32(len(d.comps) - 1)
	if i != last {
		d.comps[i] = d.comps[last]
		for _, v := range d.comps[i].nodes {
			d.compOf[v] = i
		}
	}
	d.comps = d.comps[:last]
	return c
}

// Apply applies deltas in order and returns, aligned with them, the ID each
// one assigned: the fresh original arc ID for DeltaInsertArc, the new node
// ID for DeltaAddNode, and -1 otherwise. Deltas are atomic individually, not
// as a batch: on error the earlier deltas of the slice remain applied (the
// error names the failing index). No solving happens; invalidated components
// are re-solved by the next Solve.
func (d *DynSession) Apply(deltas ...Delta) ([]int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.applyLocked(deltas)
}

func (d *DynSession) applyLocked(deltas []Delta) ([]int64, error) {
	ids := make([]int64, 0, len(deltas))
	for i, dl := range deltas {
		id, err := d.applyOne(dl)
		if err != nil {
			return ids, fmt.Errorf("%w: delta %d (%s): %v", ErrBadDelta, i, dl.Op, err)
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// applyOne applies a single delta and emits its DeltaEvent.
func (d *DynSession) applyOne(dl Delta) (int64, error) {
	ev := obs.DeltaEvent{Op: dl.Op.String(), Arc: -1, From: -1, To: -1}
	ret := int64(-1)
	switch dl.Op {
	case DeltaAddNode:
		v := d.dg.AddNode()
		d.compOf = append(d.compOf, -1)
		d.nodePolicy = append(d.nodePolicy, -1)
		d.remap = append(d.remap, -1)
		ev.From = int(v)
		ret = int64(v)

	case DeltaSetWeight, DeltaSetTransit:
		a, ok := d.dg.Arc(dl.Arc)
		if !ok {
			return -1, fmt.Errorf("%w: id %d", graph.ErrArcNotLive, dl.Arc)
		}
		var err error
		if dl.Op == DeltaSetWeight {
			err = d.dg.SetWeight(dl.Arc, dl.Weight)
		} else {
			err = d.dg.SetTransit(dl.Arc, dl.Transit)
		}
		if err != nil {
			return -1, err
		}
		ev.Arc, ev.From, ev.To = int(dl.Arc), int(a.From), int(a.To)
		ev.Invalidated = d.touchValue(a)

	case DeltaInsertArc:
		id, err := d.dg.InsertArc(dl.From, dl.To, dl.Weight, dl.Transit)
		if err != nil {
			return -1, err
		}
		ev.Arc, ev.From, ev.To = int(id), int(dl.From), int(dl.To)
		ev.Invalidated, ev.Merged = d.insertIncremental(dl.From, dl.To)
		if ev.Merged > 1 {
			d.stats.Merges++
		}
		ret = int64(id)

	case DeltaDeleteArc:
		a, ok := d.dg.Arc(dl.Arc)
		if !ok {
			return -1, fmt.Errorf("%w: id %d", graph.ErrArcNotLive, dl.Arc)
		}
		if err := d.dg.DeleteArc(dl.Arc); err != nil {
			return -1, err
		}
		ev.Arc, ev.From, ev.To = int(dl.Arc), int(a.From), int(a.To)
		ev.Invalidated, ev.Split = d.deleteIncremental(a)
		if ev.Split > 1 {
			d.stats.Splits++
		}

	default:
		return -1, fmt.Errorf("unknown op %d", dl.Op)
	}
	d.snapOK = false
	d.stats.Deltas++
	d.stats.Invalidated += ev.Invalidated
	ev.Components = len(d.comps)
	d.opt.Tracer.Delta(ev)
	return ret, nil
}

// touchValue absorbs a weight/transit change on arc a. Only an
// intra-component arc can lie on a cycle, so only then is anything
// invalidated — and even then the component's subgraph structure and policy
// stay valid: the subgraph values are refreshed in place at the next solve.
func (d *DynSession) touchValue(a graph.Arc) (invalidated int) {
	ci := d.compOf[a.From]
	if ci < 0 || ci != d.compOf[a.To] {
		return 0
	}
	c := d.comps[ci]
	if c.dirty {
		return 0
	}
	c.dirty = true
	c.weightOnly = true
	if c.hasRes {
		return 1
	}
	return 0
}

// insertIncremental updates the decomposition after inserting u→v. The new
// arc creates a cycle iff v already reaches u; in that case the new merged
// SCC is exactly S = {x : v ⇝ x ∧ x ⇝ u} (computed by a forward BFS from v
// intersected with a backward BFS from u), every existing component
// intersecting S is swallowed whole, and S is rebuilt as one component. A
// same-component insertion rebuilds just that component; an insertion that
// closes no cycle costs two BFS passes and invalidates nothing.
func (d *DynSession) insertIncremental(u, v graph.NodeID) (invalidated, merged int) {
	cu, cv := d.compOf[u], d.compOf[v]
	if u == v {
		if cu >= 0 {
			return d.rebuildComps([]int32{cu}), 0
		}
		d.rebuildNodes([]graph.NodeID{u})
		return 0, 0
	}
	if cu >= 0 && cu == cv {
		return d.rebuildComps([]int32{cu}), 0
	}
	fwd := d.reach(v, false)
	if !fwd[u] {
		return 0, 0
	}
	back := d.reach(u, true)
	var nodes []graph.NodeID
	for x := range fwd {
		if fwd[x] && back[x] {
			nodes = append(nodes, graph.NodeID(x))
		}
	}
	seen := map[int32]bool{}
	for _, x := range nodes {
		if ci := d.compOf[x]; ci >= 0 {
			seen[ci] = true
		}
	}
	merged = len(seen)
	cis := make([]int32, 0, len(seen))
	for ci := range seen {
		cis = append(cis, ci)
	}
	invalidated = d.dropComps(cis)
	d.rebuildNodes(nodes)
	return invalidated, merged
}

// deleteIncremental updates the decomposition after deleting arc a. Only an
// intra-component deletion can change anything, and it can only affect that
// one component: its node set is re-decomposed in isolation, yielding the
// surviving cyclic components (possibly none, one, or several).
func (d *DynSession) deleteIncremental(a graph.Arc) (invalidated, split int) {
	ci := d.compOf[a.From]
	if ci < 0 || ci != d.compOf[a.To] {
		return 0, 0
	}
	c := d.comps[ci]
	clean := 0
	if c.hasRes && !c.dirty {
		clean = 1
	}
	nodes := c.nodes
	d.removeComp(ci)
	before := len(d.comps)
	d.rebuildNodes(nodes)
	return clean, len(d.comps) - before
}

// dropComps removes the given components, returning how many carried a
// clean cached result.
func (d *DynSession) dropComps(cis []int32) (clean int) {
	// Remove largest index first: removeComp swap-deletes, which would
	// otherwise reshuffle the indices still pending removal.
	sort.Slice(cis, func(i, j int) bool { return cis[i] > cis[j] })
	for _, ci := range cis {
		c := d.removeComp(ci)
		if c.hasRes && !c.dirty {
			clean++
		}
	}
	return clean
}

// rebuildComps re-decomposes the node sets of the given components (their
// structure changed in place — e.g. an intra-component insertion), returning
// how many clean cached results were invalidated.
func (d *DynSession) rebuildComps(cis []int32) (invalidated int) {
	var nodes []graph.NodeID
	for _, ci := range cis {
		nodes = append(nodes, d.comps[ci].nodes...)
	}
	invalidated = d.dropComps(cis)
	d.rebuildNodes(nodes)
	return invalidated
}

// rebuildNodes decomposes the induced subgraph over nodes into cyclic
// components and registers each, dirty. nodes must currently belong to no
// component.
func (d *DynSession) rebuildNodes(nodes []graph.NodeID) {
	if len(nodes) == 0 {
		return
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	// Dense local numbering in d.remap, cleared again once the arcs are
	// copied. A counting pass sizes the arc slices exactly; arcs keep the
	// node-then-out-arc order, so warm policies and arc IDs do not move.
	local := d.remap
	for li, gn := range nodes {
		local[gn] = graph.NodeID(li)
	}
	m := 0
	for _, gn := range nodes {
		for _, id := range d.dg.OutLive(gn) {
			if a, _ := d.dg.Arc(id); local[a.To] >= 0 {
				m++
			}
		}
	}
	arcs := make([]graph.Arc, 0, m)
	arcOrig := make([]graph.ArcID, 0, m)
	for _, gn := range nodes {
		li := local[gn]
		for _, id := range d.dg.OutLive(gn) {
			a, _ := d.dg.Arc(id)
			if lj := local[a.To]; lj >= 0 {
				arcs = append(arcs, graph.Arc{From: li, To: lj, Weight: a.Weight, Transit: a.Transit})
				arcOrig = append(arcOrig, id)
			}
		}
	}
	for _, gn := range nodes {
		local[gn] = -1
	}
	lg := graph.FromArcs(len(nodes), arcs)
	for _, comp := range graph.CyclicComponents(lg) {
		gNodes := make([]graph.NodeID, len(comp.Nodes))
		for i, ln := range comp.Nodes {
			gNodes[i] = nodes[ln]
		}
		gArcs := make([]graph.ArcID, len(comp.ArcMap))
		for i, la := range comp.ArcMap {
			gArcs[i] = arcOrig[la]
		}
		d.addComp(&dynComp{nodes: gNodes, g: comp.Graph, arcOrig: gArcs, dirty: true})
	}
}

// reach runs a BFS over the live overlay from start, forward or backward,
// and returns the visited set.
func (d *DynSession) reach(start graph.NodeID, backward bool) []bool {
	n := d.dg.NumNodes()
	seen := make([]bool, n)
	queue := make([]graph.NodeID, 0, 16)
	seen[start] = true
	queue = append(queue, start)
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		var ids []graph.ArcID
		if backward {
			ids = d.dg.InLive(x)
		} else {
			ids = d.dg.OutLive(x)
		}
		for _, id := range ids {
			a, _ := d.dg.Arc(id)
			next := a.To
			if backward {
				next = a.From
			}
			if !seen[next] {
				seen[next] = true
				queue = append(queue, next)
			}
		}
	}
	return seen
}

// Solve computes the minimum cycle mean of the current graph, re-solving
// only components invalidated since the previous call. λ* is bit-identical
// to a fresh MinimumCycleMean(Materialize(), howard, opt); Result.Cycle (and
// Certificate.Witness) reference original arc IDs. Result.Counts covers only
// the work done by THIS call — a fully warm call reports zero counts.
// Returns ErrAcyclic when the graph currently has no cycle.
func (d *DynSession) Solve() (Result, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.solveLocked(d.opt)
}

// SolveContext is Solve under a context, unwinding with ErrCanceled at the
// next solver checkpoint when ctx is done. A canceled or failed component
// solve leaves that component dirty, so a later call resumes exactly the
// remaining work — interruption never poisons cached state.
func (d *DynSession) SolveContext(ctx context.Context) (Result, error) {
	opt, stop := d.opt.WithCancelContext(ctx)
	defer stop()
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.solveLocked(opt)
}

// Update atomically applies deltas and re-solves, under one lock hold — the
// serving layer's per-delta hot path. The returned IDs are Apply's. When
// apply fails nothing is solved; the error reports the failing delta.
func (d *DynSession) Update(ctx context.Context, deltas []Delta) ([]int64, Result, error) {
	opt, stop := d.opt.WithCancelContext(ctx)
	defer stop()
	d.mu.Lock()
	defer d.mu.Unlock()
	ids, err := d.applyLocked(deltas)
	if err != nil {
		return ids, Result{}, err
	}
	res, err := d.solveLocked(opt)
	return ids, res, err
}

// updateAndExport is Update plus an atomic canonical snapshot of the graph
// the result answers for, taken under the same lock hold. The concurrency
// stress tests verify each returned result against a fresh solve of exactly
// this snapshot, which no concurrent updater can have edited.
func (d *DynSession) updateAndExport(ctx context.Context, deltas []Delta) ([]int64, Result, *graph.Graph, []graph.ArcID, error) {
	opt, stop := d.opt.WithCancelContext(ctx)
	defer stop()
	d.mu.Lock()
	defer d.mu.Unlock()
	ids, err := d.applyLocked(deltas)
	if err != nil {
		return ids, Result{}, nil, nil, err
	}
	res, err := d.solveLocked(opt)
	if err != nil {
		return ids, Result{}, nil, nil, err
	}
	d.refreshSnapshot()
	return ids, res, d.snap, d.export, nil
}

func (d *DynSession) solveLocked(opt Options) (res Result, err error) {
	d.stats.Solves++
	defer func() {
		if err != nil {
			d.stats.Errors++
		}
	}()
	defer RecoverNumericRange(&err, ErrNumericRange)
	if len(d.comps) == 0 {
		return Result{}, ErrAcyclic
	}
	tr := opt.Tracer
	if tr.Enabled() {
		ev := obs.SCCEvent{Components: len(d.comps), Sizes: make([]int, len(d.comps))}
		for i, c := range d.comps {
			ev.Sizes[i] = c.g.NumNodes()
			ev.Nodes += c.g.NumNodes()
			ev.Arcs += c.g.NumArcs()
		}
		tr.SCC(ev)
	}
	var total counter.Counts
	for ci, c := range d.comps {
		if !c.dirty {
			continue
		}
		if err := d.solveComp(ci, c, opt, tr); err != nil {
			return Result{}, err
		}
		total.Add(c.res.Counts)
	}
	var (
		best     Result
		bestComp *dynComp
	)
	for _, c := range d.comps {
		if bestComp == nil || c.res.Mean.Less(best.Mean) {
			best = c.res
			bestComp = c
		}
	}
	cycle := make([]graph.ArcID, len(best.Cycle))
	for i, la := range best.Cycle {
		cycle[i] = bestComp.arcOrig[la]
	}
	best.Cycle = cycle
	best.Counts = total
	best.Certificate = nil
	if opt.Certify {
		d.refreshSnapshot()
		// Certify against the canonical snapshot: map the witness onto
		// compact snapshot IDs, prove, then map back in place — the
		// certificate's Witness aliases the same backing array, so both end
		// up in original-ID space together.
		for i, id := range cycle {
			cycle[i] = d.origTo[id]
		}
		if cerr := certify(d.snap, &best, tr, meanForm); cerr != nil {
			return Result{}, cerr
		}
		for i, id := range best.Cycle {
			best.Cycle[i] = d.export[id]
		}
	}
	return best, nil
}

// solveComp re-solves one dirty component, warm-starting when possible.
func (d *DynSession) solveComp(ci int, c *dynComp, opt Options, tr *obs.Trace) error {
	// Always refresh weights/transits from the overlay before solving: a
	// value delta landing on a component that was ALREADY dirty (structural
	// rebuild pending, or never solved) leaves the cached subgraph stale
	// without flipping weightOnly, and the refresh is O(arcs) — noise next
	// to the solve it precedes. (Found by FuzzSessionDeltas seed corpus.)
	if err := d.dg.RefreshInduced(c.g, c.arcOrig); err != nil {
		return err
	}
	var warm []graph.ArcID
	warmed := false
	if c.weightOnly && c.policy != nil {
		warm, warmed = c.policy, true
	} else {
		warm, warmed = d.transferPolicy(c)
	}
	if warmed {
		tr.Cache(obs.CacheEvent{Op: obs.CacheHit, Entries: len(d.comps)})
	} else {
		tr.Cache(obs.CacheEvent{Op: obs.CacheMiss, Entries: len(d.comps)})
	}
	var start time.Time
	if tr.Enabled() {
		tr.SolverStart(obs.SolverStartEvent{Algorithm: "howard", Component: ci,
			Nodes: c.g.NumNodes(), Arcs: c.g.NumArcs(), WarmStart: warmed})
		start = time.Now()
	}
	// Certification runs Bellman–Ford against the session's snapshot, whose
	// node IDs differ from the component's, so Howard keeps no potentials.
	opt.Certify = false
	r, policy, err := howardRun(c.g, opt, true, warm, true)
	if tr.Enabled() {
		tr.SolverDone(obs.SolverDoneEvent{Algorithm: "howard", Component: ci,
			Nodes: c.g.NumNodes(), Arcs: c.g.NumArcs(),
			Duration: time.Since(start), Counts: r.Counts, Value: r.Mean.Float64(), Err: err})
	}
	if err != nil {
		return err
	}
	if warmed {
		d.stats.WarmHits++
	} else {
		d.stats.WarmMisses++
	}
	d.stats.Components++
	c.res = r
	c.policy = policy
	c.hasRes = true
	c.dirty = false
	c.weightOnly = false
	for li, la := range policy {
		d.nodePolicy[c.nodes[li]] = c.arcOrig[la]
	}
	return nil
}

// transferPolicy builds a warm policy for a freshly rebuilt component from
// the per-node policy memory: nodes whose remembered arc is still an
// intra-component arc keep it, the rest fall back to their cheapest out-arc
// (Howard's cold initialization). When no node transfers anything the
// component solves cold.
func (d *DynSession) transferPolicy(c *dynComp) ([]graph.ArcID, bool) {
	n := c.g.NumNodes()
	warm := make([]graph.ArcID, n)
	transferred := false
	for li := 0; li < n; li++ {
		want := d.nodePolicy[c.nodes[li]]
		chosen := graph.ArcID(-1)
		if want >= 0 {
			for _, la := range c.g.OutArcs(graph.NodeID(li)) {
				if c.arcOrig[la] == want {
					chosen = la
					transferred = true
					break
				}
			}
		}
		if chosen < 0 {
			for _, la := range c.g.OutArcs(graph.NodeID(li)) {
				if chosen < 0 || c.g.Arc(la).Weight < c.g.Arc(chosen).Weight {
					chosen = la
				}
			}
			if chosen < 0 {
				return nil, false // no out-arc: not a cyclic component
			}
		}
		warm[li] = chosen
	}
	if !transferred {
		return nil, false
	}
	return warm, true
}

// refreshSnapshot (re)materializes the canonical snapshot lazily.
func (d *DynSession) refreshSnapshot() {
	if d.snapOK {
		return
	}
	d.snap, d.export = d.dg.Materialize()
	next := int(d.dg.NextArcID())
	if cap(d.origTo) < next {
		d.origTo = make([]graph.ArcID, next)
	}
	d.origTo = d.origTo[:next]
	for i := range d.origTo {
		d.origTo[i] = -1
	}
	for ci, orig := range d.export {
		d.origTo[orig] = graph.ArcID(ci)
	}
	d.snapOK = true
}

// Materialize returns the canonical immutable snapshot of the current graph
// — live arcs in ascending original-ID order — plus the export map from
// snapshot arc IDs back to original IDs. Both are shared with the session:
// treat them as read-only. Two sessions whose graphs have identical live
// content materialize to identical fingerprints regardless of edit history,
// which is what keys the serve layer's content-addressed result cache.
func (d *DynSession) Materialize() (*graph.Graph, []graph.ArcID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.refreshSnapshot()
	return d.snap, d.export
}

// Arc returns the current live arc with the given original ID.
func (d *DynSession) Arc(id graph.ArcID) (graph.Arc, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dg.Arc(id)
}

// Dims returns the current node count and live arc count.
func (d *DynSession) Dims() (nodes, arcs int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dg.NumNodes(), d.dg.NumLiveArcs()
}

// Stats returns a snapshot of the engine's counters.
func (d *DynSession) Stats() DynStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.stats
	s.LiveComponents = len(d.comps)
	return s
}
