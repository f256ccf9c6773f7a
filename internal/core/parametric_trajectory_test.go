package core_test

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/counter"
	"repro/internal/graph"
	"repro/internal/numeric"
	"repro/internal/pq"
	"repro/internal/ratio"
	"repro/internal/testutil"
)

// parametricTrajectoryFile holds KO's and YTO's recorded trajectories; see
// its header for the line format.
var parametricTrajectoryFile = filepath.Join("testdata", "parametric_trajectory.txt")

// TestParametricTrajectoryPinned pins the parametric engines' pivot
// trajectory: ko and yto, under every heap kind, on each graph of the mean
// corpus through core.MinimumCycleMean and of the ratio corpus through
// ratio.MinimumCycleRatio. The value, the witness cycle's arc IDs, the pivot
// count and the four heap-operation counts must equal the recorded ones, so
// a change that moves a single pivot, a tie-break or a heap update shows
// here even when every answer stays right. The test lives in core's
// external test package so that core's coverage counts the ratio-form
// parametric code the ratio solves reach.
func TestParametricTrajectoryPinned(t *testing.T) {
	want := readParametricTrajectory(t)
	got := parametricTrajectory(t)
	if len(got) != len(want) {
		t.Errorf("%d solves, trajectory file has %d", len(got), len(want))
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		w, ok := want[k]
		switch {
		case !ok:
			t.Errorf("%s: no recorded trajectory", k)
		case got[k] != w:
			t.Errorf("%s:\n got %s\nwant %s", k, got[k], w)
		}
	}
}

// parametricTrajectory solves every pinned case and returns its record,
// keyed by "<algo> <problem> <heap> <graph>".
func parametricTrajectory(t *testing.T) map[string]string {
	t.Helper()
	heaps := []pq.Kind{pq.Fibonacci, pq.Binary, pq.Pairing, pq.Linear}
	meanCorpus, ratioCorpus := testutil.MeanCorpus(t), testutil.RatioCorpus(t)
	out := make(map[string]string)
	for _, name := range []string{"ko", "yto"} {
		meanAlgo, err := core.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ratioAlgo, err := ratio.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, heap := range heaps {
			opt := core.Options{HeapKind: heap}
			for gname, g := range meanCorpus {
				key := fmt.Sprintf("%s mean %s %s", name, heap, gname)
				r, err := core.MinimumCycleMean(g, meanAlgo, opt)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				out[key] = trajectoryRecord(r.Mean, r.Cycle, r.Counts)
			}
			for gname, g := range ratioCorpus {
				key := fmt.Sprintf("%s ratio %s %s", name, heap, gname)
				r, err := ratio.MinimumCycleRatio(g, ratioAlgo, opt)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				out[key] = trajectoryRecord(r.Ratio, r.Cycle, r.Counts)
			}
		}
	}
	return out
}

// trajectoryRecord renders one solve as
// "<value> <iterations> <inserts> <extract-mins> <decrease-keys> <deletes> <witness arc IDs>".
func trajectoryRecord(value numeric.Rat, cycle []graph.ArcID, c counter.Counts) string {
	ids := make([]string, len(cycle))
	for i, id := range cycle {
		ids[i] = fmt.Sprint(id)
	}
	return fmt.Sprintf("%v %d %d %d %d %d %s", value, c.Iterations,
		c.HeapInserts, c.HeapExtractMins, c.HeapDecreaseKeys, c.HeapDeletes, strings.Join(ids, ","))
}

func readParametricTrajectory(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(parametricTrajectoryFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 11 {
			t.Fatalf("malformed trajectory line %q", line)
		}
		want[strings.Join(fields[:4], " ")] = strings.Join(fields[4:], " ")
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}
