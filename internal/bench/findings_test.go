package bench

import "testing"

// TestPaperFindings gates the shapes of the study's count findings
// (EXPERIMENTS.md E-41 to E-44) on the paper's SPRAND grid at n ≤ 1024, two
// seeds per size. The counts are seeded and deterministic, so a change that
// moves one of these shapes is a change in an algorithm, not noise. Times
// (Table 2, the E-45 ranking) stay with mcmbench.
func TestPaperFindings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector slows the sweep severalfold; the counts do not depend on it")
	}
	var sizes [][2]int
	for _, n := range []int{512, 1024} {
		for _, half := range []int{2, 3, 4, 5, 6} { // m/n = 1, 1.5, 2, 2.5, 3
			sizes = append(sizes, [2]int{n, n * half / 2})
		}
	}
	rep, err := Run(Config{
		Sizes:      sizes,
		Seeds:      2,
		Algorithms: []string{"ko", "yto", "howard", "ho", "karp", "dg"},
		Verify:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range rep.Mismatches {
		t.Errorf("mismatch: %s", m)
	}

	prevSave, prevLambda := map[int]float64{}, map[int]float64{}
	for i, size := range rep.Sizes {
		n, m := size[0], size[1]
		cells := rep.Cells[i]
		for _, name := range rep.Config.Algorithms {
			if c := cells[name]; c.Skipped || c.Seeds != 2 {
				t.Fatalf("n=%d m=%d: %s skipped=%v seeds=%d", n, m, name, c.Skipped, c.Seeds)
			}
		}
		ko, yto := cells["ko"].Counts, cells["yto"].Counts

		// E-42: YTO pivots like KO, so it extracts the same minima, and it
		// saves heap inserts; the saving grows with density.
		if ko.HeapExtractMins != yto.HeapExtractMins {
			t.Errorf("E-42 n=%d m=%d: KO extracts %d minima, YTO %d", n, m, ko.HeapExtractMins, yto.HeapExtractMins)
		}
		if m > n {
			save := 1 - float64(yto.HeapInserts)/float64(ko.HeapInserts)
			if prev, ok := prevSave[n]; save <= 0 || ok && save <= prev {
				t.Errorf("E-42 n=%d m=%d: YTO insert saving %.1f%%, after %.1f%% at the next lower density", n, m, 100*save, 100*prev)
			}
			prevSave[n] = save
		}

		// E-43: KO and YTO take the same iterations, Howard one on a single
		// cycle, HO's level stays below n once the graph has chords, and no
		// count exceeds n.
		if ko.Iterations != yto.Iterations {
			t.Errorf("E-43 n=%d m=%d: KO took %d iterations, YTO %d", n, m, ko.Iterations, yto.Iterations)
		}
		if it := cells["howard"].Counts.Iterations; m == n && it != 1 {
			t.Errorf("E-43 n=%d m=%d: Howard took %d iterations, want 1", n, m, it)
		}
		if k := cells["ho"].Counts.Iterations; m > n && k >= n {
			t.Errorf("E-43 n=%d m=%d: HO reached level %d, want < n", n, m, k)
		}
		for _, name := range []string{"ko", "yto", "howard", "ho"} {
			if it := cells[name].Counts.Iterations; it > n {
				t.Errorf("E-43 n=%d m=%d: %s took %d iterations, more than n", n, m, name, it)
			}
		}

		// E-44: on a single cycle DG's unfolding visits each arc once where
		// Karp visits n·m; it must save at least 99.8% of Karp's visits.
		if karp, dg := cells["karp"].Counts.ArcsVisited, cells["dg"].Counts.ArcsVisited; m == n && 1000*dg > 2*karp {
			t.Errorf("E-44 n=%d: DG visited %d arcs, Karp %d; want a saving of at least 99.8%%", n, dg, karp)
		}

		// E-41: λ* falls as the density grows.
		lambda := cells["howard"].Lambda
		if prev, ok := prevLambda[n]; ok && lambda >= prev {
			t.Errorf("E-41 n=%d m=%d: mean λ* %.4f, not below %.4f at the next lower density", n, m, lambda, prev)
		}
		prevLambda[n] = lambda
	}
}
