package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"
)

// Verdicts of -compare, per workload and end-to-end metric.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	worse      = "worse"
	unresolved = "unresolved"
)

// minRuns is the fewest runs per side -compare judges on.
const minRuns = 5

// winShare is the share of base×new run pairs the new side must win for
// "improved"; ties count for neither side.
const winShare = 0.9

// runs maps workload → metric → one value per run, in file order; order
// keeps the workloads in the order they first appear.
type runs struct {
	values map[string]map[string][]float64
	order  []string
}

// readRuns parses saved benchmark output: every "workload metric value unit"
// line is one run's value. Comment lines (#) and JSON summary lines are
// skipped, so the concatenated output of several runs is a valid input.
func readRuns(r io.Reader) (runs, error) {
	out := runs{values: map[string]map[string][]float64{}}
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '{' {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 4 {
			return runs{}, fmt.Errorf("line %d: want \"workload metric value unit\", got %q", n, line)
		}
		v, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			return runs{}, fmt.Errorf("line %d: %w", n, err)
		}
		byMetric, ok := out.values[f[0]]
		if !ok {
			byMetric = map[string][]float64{}
			out.values[f[0]] = byMetric
			out.order = append(out.order, f[0])
		}
		byMetric[f[1]] = append(byMetric[f[1]], v)
	}
	return out, sc.Err()
}

func readRunsFile(path string) (runs, error) {
	f, err := os.Open(path)
	if err != nil {
		return runs{}, err
	}
	defer f.Close()
	r, err := readRuns(f)
	if err != nil {
		return runs{}, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// judge compares one metric's base and new runs. Improved: the new side
// wins at least winShare of all run pairs and the medians differ by more
// than the base's interquartile range. Otherwise, where either side's
// spread (IQR over median) exceeds the bound, the metric is unresolved,
// unless every new run reads better than every base run. Otherwise it is
// worse when the new median is worse than the base median by more than the
// bound, and unchanged if not.
func judge(base, next []float64, m metric) string {
	if len(base) < minRuns || len(next) < minRuns {
		return unresolved
	}
	better := func(a, b float64) bool { // a reads better than b
		if m.better == "higher" {
			return a > b
		}
		return a < b
	}
	wins, allBetter := 0, true
	for _, b := range base {
		for _, n := range next {
			if better(n, b) {
				wins++
			} else {
				allBetter = false
			}
		}
	}
	mb, mn := median(base), median(next)
	q1b, q3b := quartiles(base)
	q1n, q3n := quartiles(next)
	if float64(wins) >= winShare*float64(len(base)*len(next)) && better(mn, mb) && math.Abs(mn-mb) > q3b-q1b {
		return improved
	}
	spread := math.Max(relative(q3b-q1b, mb), relative(q3n-q1n, mn))
	if spread > m.bound && !allBetter {
		return unresolved
	}
	worseBy := relative(mn-mb, mb)
	if m.better == "higher" {
		worseBy = -worseBy
	}
	if worseBy > m.bound {
		return worse
	}
	return unchanged
}

// relative returns d as a share of the magnitude of base; any nonzero d on
// a zero base is infinitely large.
func relative(d, base float64) float64 {
	if base == 0 {
		if d == 0 {
			return 0
		}
		return math.Copysign(math.Inf(1), d)
	}
	return d / math.Abs(base)
}

// runCompare prints, for each workload and end-to-end metric, each side's
// median and quartiles and the verdict. It returns 1 if any verdict is
// worse, 2 if an input cannot be read, and 0 otherwise.
func runCompare(basePath, newPath string, stdout, stderr io.Writer) int {
	base, err := readRunsFile(basePath)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	next, err := readRunsFile(newPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbound\tbase runs\tbase median [q1, q3]\tnew runs\tnew median [q1, q3]\tchange\tverdict")
	code := 0
	for _, wl := range base.order {
		for _, m := range endToEnd {
			b, n := base.values[wl][m.name], next.values[wl][m.name]
			v := judge(b, n, m)
			if v == worse {
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.0f%%\t%d\t%s\t%d\t%s\t%+.1f%%\t%s\n", wl, m.name, m.unit, 100*m.bound,
				len(b), summary(b), len(n), summary(n), 100*relative(median(n)-median(b), median(b)), v)
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	return code
}

func summary(values []float64) string {
	q1, q3 := quartiles(values)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(values), q1, q3)
}
