package bench

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/counter"
)

// TestScaleCountsExhaustive fails when counter.Counts gains a field that
// scaleCounts does not divide — a silent aggregation bug where one counter
// would report seed totals while the rest report per-seed means.
func TestScaleCountsExhaustive(t *testing.T) {
	typ := reflect.TypeOf(counter.Counts{})
	var full counter.Counts
	v := reflect.ValueOf(&full).Elem()
	for i := 0; i < typ.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() != reflect.Int {
			t.Fatalf("Counts field %s is %s; scaleCounts assumes plain ints", typ.Field(i).Name, f.Kind())
		}
		f.SetInt(10)
	}
	scaled := scaleCounts(full, 2)
	sv := reflect.ValueOf(scaled)
	for i := 0; i < typ.NumField(); i++ {
		if got := sv.Field(i).Int(); got != 5 {
			t.Errorf("scaleCounts does not handle field %s: %d, want 5", typ.Field(i).Name, got)
		}
	}
}

func tinyConfig() Config {
	return Config{
		Sizes:     [][2]int{{32, 64}, {32, 96}},
		Seeds:     2,
		MinWeight: 1,
		MaxWeight: 100,
		Timeout:   time.Minute,
		Verify:    true,
	}
}

func TestRunSweepAndRenderAll(t *testing.T) {
	rep, err := Run(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Mismatches) != 0 {
		t.Fatalf("mismatches: %v", rep.Mismatches)
	}
	if len(rep.Cells) != 2 {
		t.Fatalf("cells for %d sizes", len(rep.Cells))
	}
	for _, name := range Table2Algorithms {
		cell := rep.Cells[0][name]
		if cell.Skipped || cell.Seeds != 2 {
			t.Fatalf("%s: skipped=%v seeds=%d", name, cell.Skipped, cell.Seeds)
		}
		if cell.Seconds <= 0 {
			t.Fatalf("%s: no time measured", name)
		}
	}
	var buf bytes.Buffer
	if err := rep.WriteAll(&buf, "all"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table 2", "E-41", "E-42", "E-43", "E-44", "E-45", "howard"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if err := rep.WriteAll(&buf, "bogus"); err == nil {
		t.Error("unknown table accepted")
	}
	if err := rep.WriteAll(&buf, "circuits"); err == nil {
		t.Error("circuits rendered as a view of the SPRAND sweep")
	}
}

func TestRunParallelSeedsDeterministic(t *testing.T) {
	seq, err := Run(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig()
	cfg.Parallelism = 4
	par, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Mismatches) != 0 {
		t.Fatalf("mismatches under parallel seeds: %v", par.Mismatches)
	}
	// Everything except wall-clock timing must be identical: parallel seed
	// evaluation is aggregated in seed order, so counts, λ values, and seed
	// tallies match the sequential sweep exactly.
	for i := range seq.Cells {
		for name, want := range seq.Cells[i] {
			got := par.Cells[i][name]
			if got == nil {
				t.Fatalf("size %d: %s missing from parallel report", i, name)
			}
			if got.Counts != want.Counts || got.Lambda != want.Lambda ||
				got.Seeds != want.Seeds || got.Skipped != want.Skipped {
				t.Fatalf("size %d %s: parallel cell %+v != sequential %+v", i, name, got, want)
			}
		}
	}
}

func TestBenchWorkers(t *testing.T) {
	for _, tc := range []struct{ p, seeds, want int }{
		{0, 10, 1}, {1, 10, 1}, {4, 10, 4}, {16, 10, 10},
	} {
		if got := benchWorkers(tc.p, tc.seeds); got != tc.want {
			t.Errorf("benchWorkers(%d, %d) = %d, want %d", tc.p, tc.seeds, got, tc.want)
		}
	}
	if got := benchWorkers(-1, 10); got < 1 || got > 10 {
		t.Errorf("benchWorkers(-1, 10) = %d, want in [1, 10]", got)
	}
}

func TestMemLimitProducesNA(t *testing.T) {
	cfg := tinyConfig()
	cfg.MemLimit = 1024 // absurdly small: all quadratic-space algorithms skip
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"karp", "dg", "ho"} {
		cell := rep.Cells[0][name]
		if !cell.Skipped || cell.Reason != "memory" {
			t.Errorf("%s: skipped=%v reason=%q, want memory N/A", name, cell.Skipped, cell.Reason)
		}
	}
	// Linear-space algorithms still ran.
	if rep.Cells[0]["howard"].Skipped || rep.Cells[0]["karp2"].Skipped {
		t.Error("linear-space algorithms must not be memory-limited")
	}
	var buf bytes.Buffer
	rep.WriteTable2(&buf)
	if !strings.Contains(buf.String(), "N/A") {
		t.Error("table must render N/A entries")
	}
}

func TestTimeoutCascadesToLargerN(t *testing.T) {
	cfg := Config{
		Sizes:     [][2]int{{32, 96}, {64, 192}},
		Seeds:     1,
		MinWeight: 1,
		MaxWeight: 100,
		Timeout:   time.Nanosecond, // everything "times out"
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// First size ran (timeouts only cascade to larger n).
	if rep.Cells[0]["howard"].Skipped {
		t.Error("first size must still run")
	}
	if cell := rep.Cells[1]["howard"]; !cell.Skipped || cell.Reason != "time" {
		t.Errorf("larger size should be N/A(time): %+v", cell)
	}
}

func TestRunCircuitsSmall(t *testing.T) {
	cases, err := RunCircuits([]string{"howard", "karp"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) == 0 {
		t.Fatal("no cases")
	}
	for _, c := range cases[:1] {
		if c.Period <= 0 {
			t.Errorf("%s: period %v", c.Name, c.Period)
		}
		if c.Seconds["howard"] <= 0 {
			t.Errorf("%s: no howard timing", c.Name)
		}
	}
	var buf bytes.Buffer
	WriteCircuits(&buf, cases, []string{"howard", "karp"})
	if !strings.Contains(buf.String(), "synth-ff32") {
		t.Error("circuit table missing rows")
	}
}

func TestReportJSON(t *testing.T) {
	rep, err := Run(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("emitted JSON invalid: %v", err)
	}
	cells, ok := decoded["cells"].([]any)
	if !ok || len(cells) != 2*len(Table2Algorithms) {
		t.Fatalf("cells = %v", decoded["cells"])
	}
}

// TestWriteAllWithoutKarp2 renders every view of a sweep that ran only
// Karp and DG; the E-44 view used to dereference the missing Karp2 cell.
func TestWriteAllWithoutKarp2(t *testing.T) {
	cfg := tinyConfig()
	cfg.Algorithms = []string{"karp", "dg"}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteAll(&buf, "all"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "E-44") {
		t.Errorf("output missing E-44:\n%s", buf.String())
	}
}
