package bench

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
)

// WriteTable2 renders the running-time grid in the layout of the paper's
// Table 2: one row per (n, m), one column per algorithm, times in seconds,
// N/A where the run was skipped for memory or time.
func (r *Report) WriteTable2(w io.Writer) {
	algos := r.Config.Algorithms
	fmt.Fprintf(w, "Table 2 reproduction: mean running time (seconds) over %d SPRAND instances per size\n", r.Config.Seeds)
	fmt.Fprintf(w, "%6s %7s", "n", "m")
	for _, a := range algos {
		fmt.Fprintf(w, " %10s", a)
	}
	fmt.Fprintln(w)
	for i, size := range r.Sizes {
		fmt.Fprintf(w, "%6d %7d", size[0], size[1])
		for _, a := range algos {
			cell := r.Cells[i][a]
			if cell.Skipped {
				fmt.Fprintf(w, " %10s", "N/A")
			} else {
				fmt.Fprintf(w, " %10.4f", cell.Seconds)
			}
		}
		fmt.Fprintln(w)
	}
	if len(r.Mismatches) > 0 {
		fmt.Fprintf(w, "!! %d cross-algorithm mismatches:\n", len(r.Mismatches))
		for _, m := range r.Mismatches {
			fmt.Fprintln(w, "  ", m)
		}
	}
}

// WriteMCMValues renders experiment E-41: the mean λ* per size, showing its
// near-independence from n and inverse relation to density m/n.
func (r *Report) WriteMCMValues(w io.Writer) {
	fmt.Fprintln(w, "E-41: mean minimum cycle mean per size (§4.1: near-constant in n, decreasing in m/n)")
	fmt.Fprintf(w, "%6s %7s %6s %14s\n", "n", "m", "m/n", "mean λ*")
	for i, size := range r.Sizes {
		var cell *Cell
		for _, a := range r.Config.Algorithms {
			if c := r.Cells[i][a]; !c.Skipped && c.Seeds > 0 {
				cell = c
				break
			}
		}
		if cell == nil {
			continue
		}
		fmt.Fprintf(w, "%6d %7d %6.1f %14.4f\n", size[0], size[1],
			float64(size[1])/float64(size[0]), cell.Lambda)
	}
}

// WriteHeapOps renders experiment E-42: KO versus YTO heap-operation
// counts (the YTO savings grow with density, §4.2).
func (r *Report) WriteHeapOps(w io.Writer) {
	fmt.Fprintln(w, "E-42: heap operations, KO vs YTO (§4.2: YTO saves inserts; savings grow with density)")
	fmt.Fprintf(w, "%6s %7s | %10s %10s %10s | %10s %10s %10s | %8s\n",
		"n", "m", "KO ins", "KO min", "KO dec", "YTO ins", "YTO min", "YTO dec", "ins save")
	for i, size := range r.Sizes {
		ko, okKO := r.Cells[i]["ko"]
		yto, okYTO := r.Cells[i]["yto"]
		if !okKO || !okYTO || ko.Skipped || yto.Skipped {
			continue
		}
		save := 0.0
		if ko.Counts.HeapInserts > 0 {
			save = 1 - float64(yto.Counts.HeapInserts)/float64(ko.Counts.HeapInserts)
		}
		fmt.Fprintf(w, "%6d %7d | %10d %10d %10d | %10d %10d %10d | %7.1f%%\n",
			size[0], size[1],
			ko.Counts.HeapInserts, ko.Counts.HeapExtractMins, ko.Counts.HeapDecreaseKeys,
			yto.Counts.HeapInserts, yto.Counts.HeapExtractMins, yto.Counts.HeapDecreaseKeys,
			100*save)
	}
}

// WriteIterations renders experiment E-43: main-loop iteration counts for
// Burns, KO, YTO and Howard, plus HO's terminating level k (§4.3).
func (r *Report) WriteIterations(w io.Writer) {
	fmt.Fprintln(w, "E-43: iteration counts (§4.3: all below n; Howard drastically small; HO's k is its level)")
	names := []string{"burns", "ko", "yto", "howard", "ho"}
	fmt.Fprintf(w, "%6s %7s", "n", "m")
	for _, a := range names {
		fmt.Fprintf(w, " %8s", a)
	}
	fmt.Fprintln(w)
	for i, size := range r.Sizes {
		fmt.Fprintf(w, "%6d %7d", size[0], size[1])
		for _, a := range names {
			cell, ok := r.Cells[i][a]
			if !ok || cell.Skipped || cell.Seeds == 0 {
				fmt.Fprintf(w, " %8s", "N/A")
				continue
			}
			fmt.Fprintf(w, " %8d", cell.Counts.Iterations)
		}
		fmt.Fprintln(w)
	}
}

// WriteKarpVariants renders experiment E-44: arcs visited by Karp vs DG
// (the DG saving) and the Karp2/Karp running-time ratio (§4.4: ≈ 2×).
func (r *Report) WriteKarpVariants(w io.Writer) {
	fmt.Fprintln(w, "E-44: Karp-variant behavior (§4.4: DG saves arc visits; Karp2 ≈ 2× Karp time)")
	fmt.Fprintf(w, "%6s %7s | %12s %12s %9s | %10s %10s %7s\n",
		"n", "m", "karp arcs", "dg arcs", "saved", "karp s", "karp2 s", "ratio")
	for i, size := range r.Sizes {
		karp, okK := r.Cells[i]["karp"]
		dg, okD := r.Cells[i]["dg"]
		if !okK || !okD || karp.Skipped || dg.Skipped {
			continue
		}
		saved := 0.0
		if karp.Counts.ArcsVisited > 0 {
			saved = 1 - float64(dg.Counts.ArcsVisited)/float64(karp.Counts.ArcsVisited)
		}
		// karp2 is optional: a sweep run without it prints 0 in its columns.
		karp2Sec, ratio := 0.0, 0.0
		if karp2, ok := r.Cells[i]["karp2"]; ok && !karp2.Skipped {
			karp2Sec = karp2.Seconds
			if karp.Seconds > 0 {
				ratio = karp2Sec / karp.Seconds
			}
		}
		fmt.Fprintf(w, "%6d %7d | %12d %12d %8.1f%% | %10.4f %10.4f %7.2f\n",
			size[0], size[1], karp.Counts.ArcsVisited, dg.Counts.ArcsVisited, 100*saved,
			karp.Seconds, karp2Sec, ratio)
	}
}

// WriteRanking renders experiment E-45: per-size speed ranks and the
// overall mean rank of each algorithm (§4.5: Howard first by a margin, HO
// second, Lawler last).
func (r *Report) WriteRanking(w io.Writer) {
	fmt.Fprintln(w, "E-45: speed ranking (§4.5); rank 1 = fastest, mean over sizes where the algorithm ran")
	type stat struct {
		name    string
		sumRank float64
		runs    int
	}
	stats := map[string]*stat{}
	for _, a := range r.Config.Algorithms {
		stats[a] = &stat{name: a}
	}
	for i := range r.Sizes {
		type entry struct {
			name string
			sec  float64
		}
		var entries []entry
		for _, a := range r.Config.Algorithms {
			cell := r.Cells[i][a]
			if !cell.Skipped && cell.Seeds > 0 {
				entries = append(entries, entry{a, cell.Seconds})
			}
		}
		sort.Slice(entries, func(x, y int) bool { return entries[x].sec < entries[y].sec })
		for rank, e := range entries {
			stats[e.name].sumRank += float64(rank + 1)
			stats[e.name].runs++
		}
	}
	ordered := make([]*stat, 0, len(stats))
	for _, s := range stats {
		if s.runs > 0 {
			ordered = append(ordered, s)
		}
	}
	sort.Slice(ordered, func(i, j int) bool {
		return ordered[i].sumRank/float64(ordered[i].runs) < ordered[j].sumRank/float64(ordered[j].runs)
	})
	fmt.Fprintf(w, "%10s %10s %6s\n", "algorithm", "mean rank", "sizes")
	for _, s := range ordered {
		fmt.Fprintf(w, "%10s %10.2f %6d\n", s.name, s.sumRank/float64(s.runs), s.runs)
	}
}

// WriteCircuits renders the E-C circuit table.
func WriteCircuits(w io.Writer, cases []CircuitCase, algorithms []string) {
	if algorithms == nil {
		algorithms = Table2Algorithms
	}
	fmt.Fprintln(w, "E-C: clock-period bound on synthetic sequential circuits (latch graphs; seconds)")
	fmt.Fprintf(w, "%-14s %6s %7s %7s %7s %9s", "circuit", "FFs", "gates", "lat n", "lat m", "period")
	for _, a := range algorithms {
		fmt.Fprintf(w, " %10s", a)
	}
	fmt.Fprintln(w)
	for _, c := range cases {
		fmt.Fprintf(w, "%-14s %6d %7d %7d %7d %9.2f", c.Name, c.FFs, c.Gates, c.LatchN, c.LatchM, c.Period)
		for _, a := range algorithms {
			if sec, ok := c.Seconds[a]; ok {
				fmt.Fprintf(w, " %10.4f", sec)
			} else {
				fmt.Fprintf(w, " %10s", "N/A")
			}
		}
		fmt.Fprintln(w)
	}
}

// Tables lists every table cmd/mcmbench regenerates: the six views of one
// SPRAND sweep, the circuit family, the three ablations, and "all".
var Tables = []string{
	"table2", "mcm", "heapops", "iters", "karp", "ranking",
	"circuits", "heapkinds", "variants", "ratio", "all",
}

// CheckTable returns an error naming every entry of Tables unless name is
// one of them.
func CheckTable(name string) error {
	if slices.Contains(Tables, name) {
		return nil
	}
	return fmt.Errorf("bench: unknown table %q (known: %s)", name, strings.Join(Tables, ", "))
}

// WriteAll renders every experiment view in order, separated by blank
// lines; the table argument selects one ("table2", "mcm", "heapops",
// "iters", "karp", "ranking", or "all").
func (r *Report) WriteAll(w io.Writer, table string) error {
	views := map[string]func(io.Writer){
		"table2":  r.WriteTable2,
		"mcm":     r.WriteMCMValues,
		"heapops": r.WriteHeapOps,
		"iters":   r.WriteIterations,
		"karp":    r.WriteKarpVariants,
		"ranking": r.WriteRanking,
	}
	if table == "all" {
		for _, name := range []string{"table2", "mcm", "heapops", "iters", "karp", "ranking"} {
			views[name](w)
			fmt.Fprintln(w)
		}
		return nil
	}
	view, ok := views[table]
	if !ok {
		if err := CheckTable(table); err != nil {
			return err
		}
		return fmt.Errorf("bench: table %q is not a view of the SPRAND sweep", table)
	}
	view(w)
	return nil
}
