package ratio_test

import (
	"bufio"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ratio"
	"repro/internal/testutil"
)

// TestRatioHowardTrajectoryPinned pins ratio howard's answer and iteration
// trajectory on every graph of the ratio equivalence corpus: ρ*, the number
// of policy iterations and of policy cycles evaluated must equal the
// recorded values, so a change to value determination or the improvement
// sweep that alters a single policy choice shows here even when ρ* does not
// move. It mirrors core's TestHowardTrajectoryPinned.
func TestRatioHowardTrajectoryPinned(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "howard_trajectory.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type record struct {
		rho                string
		iterations, cycles int
	}
	want := make(map[string]record)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 4 {
			t.Fatalf("malformed trajectory line %q", line)
		}
		it, err1 := strconv.Atoi(fields[2])
		cyc, err2 := strconv.Atoi(fields[3])
		if err1 != nil || err2 != nil {
			t.Fatalf("malformed trajectory line %q", line)
		}
		want[fields[0]] = record{fields[1], it, cyc}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	howard := mustByName(t, "howard")
	corpus := testutil.RatioCorpus(t)
	if len(corpus) != len(want) {
		t.Fatalf("corpus has %d graphs, trajectory file %d", len(corpus), len(want))
	}
	for name, g := range corpus {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no recorded trajectory", name)
			continue
		}
		r, err := ratio.MinimumCycleRatio(g, howard, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := (record{r.Ratio.String(), r.Counts.Iterations, r.Counts.CyclesExamined}); got != w {
			t.Errorf("%s: rho*=%s iterations=%d cycles=%d, recorded rho*=%s iterations=%d cycles=%d",
				name, got.rho, got.iterations, got.cycles, w.rho, w.iterations, w.cycles)
		}
	}
}
