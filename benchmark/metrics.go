package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
)

// metric describes one reported number. BENCHMARK.json at the repository
// root lists the same names, units, directions and bounds; a test keeps the
// two in step.
type metric struct {
	name, unit string
	// better is "lower" or "higher": the direction -compare judges in.
	better string
	// bound is the share of the base median an end-to-end metric may worsen
	// by before -compare calls it worse. Each is derived from the spread of
	// the runs in baseline/ (see README.md); setup_s carries the largest.
	bound float64
}

// endToEnd are the metrics a user of the library or of mcmd sees, reported
// by every untraced run of every workload.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p99_ms", "ms", "lower", 0.25},
	{"throughput_ops_s", "ops/s", "higher", 0.25},
	{"alloc_kib_per_op", "KiB", "lower", 0.05},
	{"live_heap_mib", "MiB", "lower", 0.10},
}

// Printed with the end-to-end metrics but not gated by a bound: error_rate
// is 0 on every correct run, so a relative bound means nothing (the summary
// line's "correct" and "failed" gate it instead), and latency_p99_ms_hi
// exists on serve-mixed only. latency_samples is the count p99 rests on.
const (
	errorRate      = "error_rate"
	latencyP99Hi   = "latency_p99_ms_hi"
	latencySamples = "latency_samples"
	// minSamples is the fewest operations an untraced window takes, so
	// that p99 has minBeyond samples beyond it.
	minSamples = 1000
)

// perLayer are the metrics of a traced run, one set per workload. A layer a
// workload does not use reports 0.
var perLayer = []metric{
	{"graph.decode_ms", "ms", "lower", 0},
	{"graph.decode_share", "ratio", "lower", 0},
	{"graph.scc_standalone_ms", "ms", "lower", 0},
	{"graph.cyclic_components", "count", "lower", 0},
	{"graph.fingerprint_standalone_ms", "ms", "lower", 0},
	{"prep.kernelize_standalone_ms", "ms", "lower", 0},
	{"prep.arc_reduction", "ratio", "higher", 0},
	{"prep.solved_share", "ratio", "higher", 0},
	{"core.solver_ms", "ms", "lower", 0},
	{"core.solver_share", "ratio", "lower", 0},
	{"core.iterations", "count", "lower", 0},
	{"core.relaxations", "count", "lower", 0},
	{"core.certify_ms", "ms", "lower", 0},
	{"core.certify_share", "ratio", "lower", 0},
	{"core.driver_self_ms", "ms", "lower", 0},
	{"core.session_warm_hit_ratio", "ratio", "higher", 0},
	{"core.dyn_warm_hit_ratio", "ratio", "higher", 0},
	{"ratio.probes_per_op", "count", "lower", 0},
	{"ratio.passes_per_probe", "count", "lower", 0},
	{"ratio.relaxations_per_probe", "count", "lower", 0},
	{"ratio.probe_ms", "ms", "lower", 0},
	{"ratio.probe_share", "ratio", "lower", 0},
	{"ratio.ns_per_relaxation", "ns", "lower", 0},
	{"ratio.negative_probe_share", "ratio", "lower", 0},
	{"serve.handler_p50_ms", "ms", "lower", 0},
	{"serve.handler_p99_ms", "ms", "lower", 0},
	{"serve.client_ms", "ms", "lower", 0},
	{"serve.graph_elapsed_ms", "ms", "lower", 0},
	{"serve.delta_elapsed_ms", "ms", "lower", 0},
	{"serve.rejected", "count", "lower", 0},
	{"servecache.hit_ratio", "ratio", "higher", 0},
	{"servecache.merges", "count", "lower", 0},
	{"servecache.evictions", "count", "lower", 0},
	{"loadgen.late_p99_ms", "ms", "lower", 0},
	{"loadgen.max_outstanding", "count", "lower", 0},
	{"trace.overhead", "ratio", "lower", 0},
}

// unitOf returns the unit of a catalogued metric name.
func unitOf(name string) string {
	for _, list := range [][]metric{endToEnd, perLayer} {
		for _, m := range list {
			if m.name == name {
				return m.unit
			}
		}
	}
	switch name {
	case errorRate:
		return "ratio"
	case latencyP99Hi:
		return "ms"
	case latencySamples:
		return "count"
	}
	panic("benchmark: uncatalogued metric " + name)
}

// result is what one workload run reports.
type result struct {
	workload string
	// correct is false when any answer disagreed with its reference.
	correct           bool
	attempted, failed int
	// values holds every metric measured, by name.
	values map[string]float64
	// traced selects the per-layer set for the summary line instead of
	// the end-to-end one.
	traced   bool
	firstErr error
}

func newResult(w workload, win window, values map[string]float64, traced bool) *result {
	return &result{workload: w.name, correct: win.wrong == 0, attempted: win.attempted,
		failed: win.failed, values: values, traced: traced, firstErr: win.firstErr}
}

// print writes one "workload metric value unit" line per metric in catalog
// order, then the JSON summary line holding the gated set.
func (r *result) print(w io.Writer) error {
	gated, extra := endToEnd, []string{latencySamples, latencyP99Hi, errorRate}
	if r.traced {
		gated, extra = perLayer, nil
	}
	summary := map[string]any{}
	line := func(name string) {
		if v, ok := r.values[name]; ok {
			fmt.Fprintf(w, "%s %s %s %s\n", r.workload, name, strconv.FormatFloat(v, 'g', -1, 64), unitOf(name))
		}
	}
	for _, m := range gated {
		line(m.name)
		if v, ok := r.values[m.name]; ok && !math.IsInf(v, 0) && !math.IsNaN(v) {
			summary[m.name] = map[string]any{"value": v, "unit": m.unit}
		}
	}
	for _, name := range extra {
		line(name)
	}
	out, err := json.Marshal(map[string]any{
		"correct":   r.correct,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   summary,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}
