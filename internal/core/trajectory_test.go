package core_test

import (
	"bufio"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/testutil"
)

// TestHowardTrajectoryPinned pins Howard's iteration trajectory on every
// graph of the mean equivalence corpus: the number of policy iterations and
// of policy cycles evaluated must equal the recorded values, so a change to
// value determination or the improvement sweep that alters a single policy
// choice shows here even when the final answer does not move.
func TestHowardTrajectoryPinned(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "howard_trajectory.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type counts struct{ iterations, cycles int }
	want := make(map[string]counts)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			t.Fatalf("malformed trajectory line %q", line)
		}
		it, err1 := strconv.Atoi(fields[1])
		cyc, err2 := strconv.Atoi(fields[2])
		if err1 != nil || err2 != nil {
			t.Fatalf("malformed trajectory line %q", line)
		}
		want[fields[0]] = counts{it, cyc}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	howard, err := core.ByName("howard")
	if err != nil {
		t.Fatal(err)
	}
	corpus := testutil.MeanCorpus(t)
	if len(corpus) != len(want) {
		t.Fatalf("corpus has %d graphs, trajectory file %d", len(corpus), len(want))
	}
	for name, g := range corpus {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no recorded trajectory", name)
			continue
		}
		r, err := core.MinimumCycleMean(g, howard, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := (counts{r.Counts.Iterations, r.Counts.CyclesExamined}); got != w {
			t.Errorf("%s: iterations=%d cycles=%d, recorded iterations=%d cycles=%d",
				name, got.iterations, got.cycles, w.iterations, w.cycles)
		}
	}
}
