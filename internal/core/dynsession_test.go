package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// dynOracle fresh-solves the session's materialized snapshot and returns the
// result with its cycle mapped onto original overlay arc IDs.
func dynOracle(t *testing.T, ds *DynSession, opt Options) (Result, error) {
	t.Helper()
	howard, err := ByName("howard")
	if err != nil {
		t.Fatal(err)
	}
	snap, export := ds.Materialize()
	res, err := MinimumCycleMean(snap, howard, opt)
	if err != nil {
		return Result{}, err
	}
	cycle := make([]graph.ArcID, len(res.Cycle))
	for i, id := range res.Cycle {
		cycle[i] = export[id]
	}
	res.Cycle = cycle
	return res, nil
}

// assertSameMean demands bit-identical rationals, the invariant every
// DynSession answer is held to.
func assertSameMean(t *testing.T, tag string, got, want Result) {
	t.Helper()
	if got.Mean.Num() != want.Mean.Num() || got.Mean.Den() != want.Mean.Den() {
		t.Fatalf("%s: λ* = %s, fresh solve says %s", tag, got.Mean, want.Mean)
	}
	if !got.Exact || !want.Exact {
		t.Fatalf("%s: exactness lost (got %v, want %v)", tag, got.Exact, want.Exact)
	}
}

// assertCycleAttains validates got.Cycle as a real cycle of the session's
// current graph (original arc IDs, consecutive arcs chained) attaining
// got.Mean exactly.
func assertCycleAttains(t *testing.T, tag string, ds *DynSession, got Result) {
	t.Helper()
	if len(got.Cycle) == 0 {
		t.Fatalf("%s: empty cycle", tag)
	}
	var sum int64
	for i, id := range got.Cycle {
		a, ok := ds.Arc(id)
		if !ok {
			t.Fatalf("%s: cycle references dead arc %d", tag, id)
		}
		next, ok := ds.Arc(got.Cycle[(i+1)%len(got.Cycle)])
		if !ok || a.To != next.From {
			t.Fatalf("%s: cycle breaks at position %d (%d -> %d vs %d)", tag, i, a.From, a.To, next.From)
		}
		sum += a.Weight
	}
	if mean := got.Mean; mean.Num()*int64(len(got.Cycle)) != sum*mean.Den() {
		t.Fatalf("%s: cycle mean %d/%d does not equal λ* %s", tag, sum, len(got.Cycle), mean)
	}
}

// TestDynSessionColdMatchesFresh: the first Solve of a pristine DynSession
// must be bit-identical — cycle included — to a fresh sequential
// MinimumCycleMean of the seed graph, certified and not.
func TestDynSessionColdMatchesFresh(t *testing.T) {
	howard, err := ByName("howard")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := gen.Sprand(gen.SprandConfig{N: 80, M: 320, MinWeight: -500, MaxWeight: 500, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := gen.MultiSCC(4, 10, 25, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, certify := range []bool{false, true} {
		for gi, g := range []*graph.Graph{sp, ms} {
			opt := Options{Certify: certify}
			want, err := MinimumCycleMean(g, howard, opt)
			if err != nil {
				t.Fatal(err)
			}
			ds := NewDynSession(g, opt)
			got, err := ds.Solve()
			if err != nil {
				t.Fatalf("graph %d certify=%v: %v", gi, certify, err)
			}
			assertSameMean(t, "cold", got, want)
			if len(got.Cycle) != len(want.Cycle) {
				t.Fatalf("graph %d certify=%v: cycle lengths differ: %v vs %v", gi, certify, got.Cycle, want.Cycle)
			}
			for i := range got.Cycle {
				if got.Cycle[i] != want.Cycle[i] {
					t.Fatalf("graph %d certify=%v: cold cycle not bit-identical: %v vs %v",
						gi, certify, got.Cycle, want.Cycle)
				}
			}
			if certify && got.Certificate == nil {
				t.Fatalf("graph %d: certified solve returned no certificate", gi)
			}
		}
	}
}

// TestDynSessionDeltaEquivalence drives a mixed random delta stream —
// weight changes, insertions, deletions, transit edits, node additions —
// and after every Update checks λ* bit-identical to a fresh certified solve
// of the materialized snapshot, plus a valid attaining witness cycle in
// original-ID space.
func TestDynSessionDeltaEquivalence(t *testing.T) {
	g, err := gen.Sprand(gen.SprandConfig{N: 50, M: 180, MinWeight: -300, MaxWeight: 300, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Certify: true}
	ds := NewDynSession(g, opt)
	if _, err := ds.Solve(); err != nil {
		t.Fatal(err)
	}

	live := make([]graph.ArcID, g.NumArcs())
	for i := range live {
		live[i] = graph.ArcID(i)
	}
	nodes := g.NumNodes()
	rng := rand.New(rand.NewSource(99))
	for step := 0; step < 250; step++ {
		var dl Delta
		switch p := rng.Intn(100); {
		case p < 45 && len(live) > 0:
			dl = Delta{Op: DeltaSetWeight, Arc: live[rng.Intn(len(live))], Weight: int64(rng.Intn(601) - 300)}
		case p < 65:
			dl = Delta{Op: DeltaInsertArc, From: graph.NodeID(rng.Intn(nodes)), To: graph.NodeID(rng.Intn(nodes)),
				Weight: int64(rng.Intn(601) - 300), Transit: 1}
		case p < 85 && len(live) > 0:
			i := rng.Intn(len(live))
			dl = Delta{Op: DeltaDeleteArc, Arc: live[i]}
		case p < 95 && len(live) > 0:
			dl = Delta{Op: DeltaSetTransit, Arc: live[rng.Intn(len(live))], Transit: int64(rng.Intn(4))}
		default:
			dl = Delta{Op: DeltaAddNode}
		}

		ids, got, err := ds.Update(context.Background(), []Delta{dl})
		switch dl.Op {
		case DeltaInsertArc:
			live = append(live, graph.ArcID(ids[0]))
		case DeltaDeleteArc:
			for i, id := range live {
				if id == dl.Arc {
					live = append(live[:i], live[i+1:]...)
					break
				}
			}
		case DeltaAddNode:
			nodes++
		}

		want, werr := dynOracle(t, ds, opt)
		if werr != nil {
			if !errors.Is(err, ErrAcyclic) || !errors.Is(werr, ErrAcyclic) {
				t.Fatalf("step %d (%s): error mismatch: session %v, fresh %v", step, dl.Op, err, werr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("step %d (%s): session failed %v but fresh solve works (λ*=%s)", step, dl.Op, err, want.Mean)
		}
		assertSameMean(t, dl.Op.String(), got, want)
		assertCycleAttains(t, dl.Op.String(), ds, got)
		if got.Certificate == nil {
			t.Fatalf("step %d: no certificate", step)
		}
		if got.Certificate.Witness[0] != got.Cycle[0] || len(got.Certificate.Witness) != len(got.Cycle) {
			t.Fatalf("step %d: certificate witness diverged from the reported cycle", step)
		}
	}
	st := ds.Stats()
	if st.Deltas != 250 {
		t.Fatalf("Deltas = %d, want 250", st.Deltas)
	}
	if st.WarmHits == 0 {
		t.Fatalf("no warm hits across a 250-delta stream: %+v", st)
	}
}

// TestDynSessionDeltaCountsBelowFresh streams 60 deltas through one certified
// DynSession over a SPRAND graph (n = 600, m = 2400): about 60% weight edits
// on seed arcs, 20% structural edits inside the cyclic core (insertions
// between random nodes, deletions of earlier insertions) and 20% free edits
// (a fresh node, or an arc onto the newest one, on no cycle). After every
// delta λ* must equal a fresh certified Howard solve of the same content,
// and over the stream the incremental solves must take fewer iterations and
// relaxations than the fresh ones (measured 64 vs 480 and 839 526 vs
// 1 745 965).
func TestDynSessionDeltaCountsBelowFresh(t *testing.T) {
	const (
		n, m   = 600, 2400
		deltas = 60
		seed   = 424299
	)
	g, err := gen.Sprand(gen.SprandConfig{N: n, M: m, MinWeight: -10000, MaxWeight: 10000, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Certify: true}
	ds := NewDynSession(g, opt)
	if _, err := ds.Solve(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed + 1))
	weight := func() int64 { return int64(rng.Intn(20001) - 10000) }
	var inserted []graph.ArcID // structural insertions eligible for deletion
	nodes := n
	var incIters, incRelax, freshIters, freshRelax int
	for step := 0; step < deltas; step++ {
		var dl Delta
		structural := false
		switch p := rng.Intn(10); {
		case p < 6:
			dl = Delta{Op: DeltaSetWeight, Arc: graph.ArcID(rng.Intn(m)), Weight: weight()}
		case p < 8:
			structural = true
			if len(inserted) > 0 && rng.Intn(2) == 0 {
				i := rng.Intn(len(inserted))
				dl = Delta{Op: DeltaDeleteArc, Arc: inserted[i]}
				inserted = append(inserted[:i], inserted[i+1:]...)
			} else {
				dl = Delta{Op: DeltaInsertArc, From: graph.NodeID(rng.Intn(n)), To: graph.NodeID(rng.Intn(n)),
					Weight: weight(), Transit: 1}
			}
		default:
			if rng.Intn(2) == 0 {
				dl = Delta{Op: DeltaAddNode}
			} else {
				dl = Delta{Op: DeltaInsertArc, From: graph.NodeID(rng.Intn(nodes)), To: graph.NodeID(rng.Intn(nodes)),
					Weight: weight(), Transit: 1}
				if nodes > n {
					dl.To = graph.NodeID(nodes - 1)
				}
			}
		}

		ids, got, err := ds.Update(context.Background(), []Delta{dl})
		if err != nil {
			t.Fatalf("step %d (%s): %v", step, dl.Op, err)
		}
		if dl.Op == DeltaAddNode {
			nodes++
		}
		if structural && dl.Op == DeltaInsertArc {
			inserted = append(inserted, graph.ArcID(ids[0]))
		}
		want, err := dynOracle(t, ds, opt)
		if err != nil {
			t.Fatalf("step %d (%s): fresh solve: %v", step, dl.Op, err)
		}
		assertSameMean(t, dl.Op.String(), got, want)
		incIters += got.Counts.Iterations
		incRelax += got.Counts.Relaxations
		freshIters += want.Counts.Iterations
		freshRelax += want.Counts.Relaxations
	}
	if incIters >= freshIters || incRelax >= freshRelax {
		t.Errorf("incremental stream took %d iterations and %d relaxations, fresh solves %d and %d",
			incIters, incRelax, freshIters, freshRelax)
	}
}

// TestDynSessionWitnessOriginalIDsAfterDeletions is the arc-ID remapping
// regression (PR 8 satellite): after insertions and deletions compact the
// overlay's internal storage, Result.Cycle must still reference the stable
// original arc IDs, bit-identically to what a fresh solve of the same
// content reports through the export map. The graph is built so the
// critical cycle is unique; cycles are compared after rotation
// canonicalization (a cycle's starting arc is representational freedom).
func TestDynSessionWitnessOriginalIDsAfterDeletions(t *testing.T) {
	// Two disjoint cycles: 0->1->2->0 (mean 10) and 3->4->3 (mean 2, the
	// unique optimum), plus chaff arcs that will be deleted to force
	// compaction below the surviving IDs.
	g := graph.FromArcs(6, []graph.Arc{
		{From: 0, To: 1, Weight: 10, Transit: 1}, // 0
		{From: 5, To: 5, Weight: 50, Transit: 1}, // 1: chaff self-loop
		{From: 1, To: 2, Weight: 10, Transit: 1}, // 2
		{From: 5, To: 0, Weight: 9, Transit: 1},  // 3: chaff
		{From: 2, To: 0, Weight: 10, Transit: 1}, // 4
		{From: 3, To: 4, Weight: 1, Transit: 1},  // 5
		{From: 4, To: 3, Weight: 3, Transit: 1},  // 6
	})
	opt := Options{Certify: true}
	ds := NewDynSession(g, opt)
	if _, err := ds.Solve(); err != nil {
		t.Fatal(err)
	}

	// Delete the chaff (IDs 1 and 3): every arc above slot 1 moves in the
	// compacted store, but IDs must not. Then insert a new arc and delete it
	// again, twice, so freshly assigned IDs also see compaction.
	if _, err := ds.Apply(Delta{Op: DeltaDeleteArc, Arc: 1}, Delta{Op: DeltaDeleteArc, Arc: 3}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		ids, err := ds.Apply(Delta{Op: DeltaInsertArc, From: 2, To: 1, Weight: 100, Transit: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ds.Apply(Delta{Op: DeltaDeleteArc, Arc: graph.ArcID(ids[0])}); err != nil {
			t.Fatal(err)
		}
	}

	got, err := ds.Solve()
	if err != nil {
		t.Fatal(err)
	}
	want, err := dynOracle(t, ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	assertSameMean(t, "after-compaction", got, want)

	gc := canonicalRotation(got.Cycle)
	wc := canonicalRotation(want.Cycle)
	if len(gc) != len(wc) {
		t.Fatalf("cycle lengths differ: %v vs %v", gc, wc)
	}
	for i := range gc {
		if gc[i] != wc[i] {
			t.Fatalf("witness cycle not bit-identical in original-ID space: %v vs %v", gc, wc)
		}
	}
	// The unique optimum is the 3->4->3 cycle: original IDs 5 and 6.
	if len(gc) != 2 || gc[0] != 5 || gc[1] != 6 {
		t.Fatalf("witness cycle = %v, want the original-ID cycle [5 6]", gc)
	}
	assertCycleAttains(t, "after-compaction", ds, got)
}

// canonicalRotation rotates cycle so its smallest arc ID leads.
func canonicalRotation(cycle []graph.ArcID) []graph.ArcID {
	if len(cycle) == 0 {
		return cycle
	}
	min := 0
	for i := 1; i < len(cycle); i++ {
		if cycle[i] < cycle[min] {
			min = i
		}
	}
	out := make([]graph.ArcID, 0, len(cycle))
	out = append(out, cycle[min:]...)
	out = append(out, cycle[:min]...)
	return out
}

// TestDynSessionMergeAndSplit walks a multi-component graph through a
// component merge (insertion closing a cross-component cycle) and back
// (deleting the bridge), checking answers and the merge/split counters.
func TestDynSessionMergeAndSplit(t *testing.T) {
	// Components {0,1} (mean 5) and {2,3} (mean 3); node 4 acyclic between.
	g := graph.FromArcs(5, []graph.Arc{
		{From: 0, To: 1, Weight: 4, Transit: 1}, // 0
		{From: 1, To: 0, Weight: 6, Transit: 1}, // 1
		{From: 2, To: 3, Weight: 2, Transit: 1}, // 2
		{From: 3, To: 2, Weight: 4, Transit: 1}, // 3
		{From: 1, To: 4, Weight: 0, Transit: 1}, // 4: into the acyclic middle
		{From: 4, To: 2, Weight: 0, Transit: 1}, // 5
	})
	opt := Options{Certify: true}
	ds := NewDynSession(g, opt)
	res, err := ds.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(3); res.Mean.Num() != want || res.Mean.Den() != 1 {
		t.Fatalf("initial λ* = %s, want 3", res.Mean)
	}
	if st := ds.Stats(); st.LiveComponents != 2 {
		t.Fatalf("LiveComponents = %d, want 2", st.LiveComponents)
	}

	// 3 -> 0 closes a big cycle through all five nodes: components merge.
	ids, res, err := ds.Update(context.Background(), []Delta{
		{Op: DeltaInsertArc, From: 3, To: 0, Weight: -20, Transit: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := dynOracle(t, ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	assertSameMean(t, "merge", res, want)
	st := ds.Stats()
	if st.LiveComponents != 1 || st.Merges != 1 {
		t.Fatalf("after merge: %+v", st)
	}

	// Deleting the bridge splits it back apart.
	_, res, err = ds.Update(context.Background(), []Delta{
		{Op: DeltaDeleteArc, Arc: graph.ArcID(ids[0])},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mean.Num() != 3 || res.Mean.Den() != 1 {
		t.Fatalf("after split λ* = %s, want 3", res.Mean)
	}
	st = ds.Stats()
	if st.LiveComponents != 2 || st.Splits != 1 {
		t.Fatalf("after split: %+v", st)
	}

	// A cross-component insertion that closes no cycle must invalidate
	// nothing: the next Solve does zero component work.
	before := ds.Stats().Components
	if _, _, err := ds.Update(context.Background(), []Delta{
		{Op: DeltaInsertArc, From: 0, To: 2, Weight: 1, Transit: 1},
	}); err != nil {
		t.Fatal(err)
	}
	if after := ds.Stats().Components; after != before {
		t.Fatalf("free insertion still re-solved %d components", after-before)
	}
}

// TestDynSessionErrorsAndRecovery: bad deltas are typed ErrBadDelta and
// leave the engine consistent; a weight pushing past the numeric range
// fails the solve but stays dirty, so fixing the weight recovers.
func TestDynSessionErrorsAndRecovery(t *testing.T) {
	g := graph.FromArcs(2, []graph.Arc{
		{From: 0, To: 1, Weight: 1, Transit: 1},
		{From: 1, To: 0, Weight: 1, Transit: 1},
	})
	ds := NewDynSession(g, Options{Certify: true})
	if _, err := ds.Solve(); err != nil {
		t.Fatal(err)
	}

	if _, err := ds.Apply(Delta{Op: DeltaDeleteArc, Arc: 99}); !errors.Is(err, ErrBadDelta) {
		t.Fatalf("dead-arc delete: got %v, want ErrBadDelta", err)
	}
	if _, err := ds.Apply(Delta{Op: DeltaInsertArc, From: 0, To: 7}); !errors.Is(err, ErrBadDelta) {
		t.Fatalf("out-of-range insert: got %v, want ErrBadDelta", err)
	}
	if _, err := ds.Apply(Delta{Op: DeltaOp(200)}); !errors.Is(err, ErrBadDelta) {
		t.Fatalf("unknown op: got %v, want ErrBadDelta", err)
	}

	// Weight out of the solver's numeric range: solve fails typed, then a
	// corrective delta restores service without rebuilding the session.
	if _, _, err := ds.Update(context.Background(), []Delta{
		{Op: DeltaSetWeight, Arc: 0, Weight: MaxWeightMagnitude + 1},
	}); err == nil {
		t.Fatal("out-of-range weight solved successfully")
	}
	_, res, err := ds.Update(context.Background(), []Delta{
		{Op: DeltaSetWeight, Arc: 0, Weight: 3},
	})
	if err != nil {
		t.Fatalf("recovery solve: %v", err)
	}
	if res.Mean.Num() != 2 || res.Mean.Den() != 1 {
		t.Fatalf("recovered λ* = %s, want 2", res.Mean)
	}

	// Deleting every arc leaves an acyclic graph: typed ErrAcyclic, and a
	// reinsertion brings it back.
	if _, _, err := ds.Update(context.Background(), []Delta{
		{Op: DeltaDeleteArc, Arc: 0},
	}); !errors.Is(err, ErrAcyclic) {
		t.Fatalf("after breaking the cycle: got %v, want ErrAcyclic", err)
	}
	_, res, err = ds.Update(context.Background(), []Delta{
		{Op: DeltaInsertArc, From: 0, To: 1, Weight: 5, Transit: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mean.Num() != 3 || res.Mean.Den() != 1 {
		t.Fatalf("after reinsertion λ* = %s, want 3", res.Mean)
	}
}

// TestDynSessionSolveContextCancel: a canceled solve returns ErrCanceled,
// leaves the touched component dirty, and the next call completes the work.
func TestDynSessionSolveContextCancel(t *testing.T) {
	g, err := gen.Sprand(gen.SprandConfig{N: 200, M: 800, MinWeight: -1000, MaxWeight: 1000, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	ds := NewDynSession(g, Options{Certify: true})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ds.SolveContext(ctx); !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-canceled solve: got %v, want ErrCanceled", err)
	}
	res, err := ds.Solve()
	if err != nil {
		t.Fatalf("follow-up solve: %v", err)
	}
	want, err := dynOracle(t, ds, Options{Certify: true})
	if err != nil {
		t.Fatal(err)
	}
	assertSameMean(t, "post-cancel", res, want)
}
