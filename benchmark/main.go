// Command benchmark is the repository's end-to-end benchmark. It runs four
// workloads against the solver library and the mcmd service, using only
// their public entry points. It checks every answer against a reference
// computed by a different engine and prints each metric as one
// "workload metric value unit" line. The last line of each workload's
// output is a JSON summary:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
//
// From the repository root:
//
//	bash benchmark/run.sh -workload all -seed 1
//	bash benchmark/run.sh -workload ratio-sprand -seed 2 -trace 1
//	bash benchmark/run.sh -compare base.txt new.txt
//
// README.md in this directory lists the workloads and metrics with their
// reasons.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// setup generates the inputs from seed, computes their references and
	// readies the system; rec, when non-nil, receives the run's spans.
	setup func(seed uint64, rec *recorder) (instance, error)
}

var workloads = []workload{
	{"mean-sprand", setupMeanSprand},
	{"ratio-sprand", setupRatioSprand},
	{"circuit-kernel", setupCircuitKernel},
	{"serve-mixed", setupServeMixed},
}

// instance is one workload, set up and ready to measure.
type instance interface {
	// measure runs operations for d, and on until at least minOps have
	// completed.
	measure(d time.Duration, minOps int) (window, error)
	// verify runs, after the window, the checks of answers that had no
	// precomputed reference, and returns how many disagreed.
	verify() (int, error)
	// layers returns the per-layer metrics the instance measures itself
	// rather than from spans.
	layers() map[string]float64
	close()
}

// errWrongAnswer marks an operation whose answer disagreed with its
// reference.
var errWrongAnswer = errors.New("wrong answer")

// window is what one measured window observed.
type window struct {
	// latency holds each operation's time in ms; a failed operation is
	// +Inf. For serve-mixed it is the lo-rate phase and latencyHi the
	// hi-rate phase.
	latency, latencyHi       []float64
	attempted, failed, wrong int
	throughput               float64 // operations answered correctly per second
	firstErr                 error
}

// record adds one operation's outcome.
func (w *window) record(d time.Duration, err error) {
	w.attempted++
	if err == nil {
		w.latency = append(w.latency, float64(d)/1e6)
		return
	}
	w.failed++
	w.latency = append(w.latency, math.Inf(1))
	if errors.Is(err, errWrongAnswer) {
		w.wrong++
	}
	if w.firstErr == nil {
		w.firstErr = err
	}
}

// config is one invocation's settings.
type config struct {
	seed   uint64
	window time.Duration
	trace  bool
	// smoke sets up once and drops the sample minimum, so a short window
	// exercises every workload quickly.
	smoke bool
}

// setups is how many times an untraced run sets a workload up; setup_s is
// their median.
const setups = 5

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command; it returns the exit code: 0 on success, 1 on a usage
// or set-up error (or a "worse" verdict from -compare), 2 on a wrong answer.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: "+workloadNames()+", or all")
	seed := fs.Uint64("seed", 1, "seed every generated input derives from")
	seconds := fs.Float64("seconds", 25, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced window and prints the per-layer metrics")
	smoke := fs.Bool("smoke", false, "set up once and take any number of samples (for tests)")
	compare := fs.Bool("compare", false, "compare two files of saved run output: -compare BASE NEW")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two files: BASE NEW")
			return 1
		}
		return runCompare(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fs.Usage()
		return 1
	}
	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (want %s, or all)\n", *name, workloadNames())
		return 1
	}
	cfg := config{seed: *seed, window: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, smoke: *smoke}

	fmt.Fprintf(stdout, "# host go=%s goos=%s goarch=%s num_cpu=%d gomaxprocs=%d\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	code := 0
	for _, w := range selected {
		fmt.Fprintf(stdout, "# run workload=%s seed=%d seconds=%g trace=%d\n", w.name, cfg.seed, cfg.window.Seconds(), *trace)
		var res *result
		var err error
		if cfg.trace {
			res, err = traceWorkload(w, cfg)
		} else {
			res, err = measureWorkload(w, cfg)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		if res.firstErr != nil {
			fmt.Fprintf(stderr, "benchmark: %s: first failed operation: %v\n", w.name, res.firstErr)
		}
		if err := res.print(stdout); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		if !res.correct {
			code = 2
		}
	}
	return code
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func (c config) minOps() int {
	if c.smoke {
		return 0
	}
	return minSamples
}

// measureWorkload is an untraced run: it sets the workload up several
// times, measures one window on the last set-up and reports the end-to-end
// metrics.
func measureWorkload(w workload, cfg config) (*result, error) {
	n := setups
	if cfg.smoke {
		n = 1
	}
	var inst instance
	var setupTimes []float64
	for range n {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(cfg.seed, nil); err != nil {
			return nil, fmt.Errorf("set up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	defer inst.close()

	runtime.GC()
	var before, after, live runtime.MemStats
	runtime.ReadMemStats(&before)
	win, err := inst.measure(cfg.window, cfg.minOps())
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	runtime.GC()
	runtime.ReadMemStats(&live)
	if err := checkAfter(inst, &win); err != nil {
		return nil, err
	}

	values := map[string]float64{
		"setup_s":          median(setupTimes),
		"latency_p50_ms":   median(win.latency),
		"throughput_ops_s": win.throughput,
		"alloc_kib_per_op": frac(float64(after.TotalAlloc-before.TotalAlloc)/1024, float64(win.attempted)),
		"live_heap_mib":    float64(live.HeapInuse) / (1 << 20),
		errorRate:          frac(float64(win.failed), float64(win.attempted)),
		latencySamples:     float64(len(win.latency)),
	}
	if p, ok := percentile(win.latency, 0.99); ok {
		values["latency_p99_ms"] = p
	}
	if p, ok := percentile(win.latencyHi, 0.99); ok {
		values[latencyP99Hi] = p
	}
	return newResult(w, win, values, false), nil
}

// traceWorkload is a traced run. The first half of the window runs
// untraced and the second half traced, each on its own set-up, so
// trace.overhead compares the two throughputs.
func traceWorkload(w workload, cfg config) (*result, error) {
	half := cfg.window / 2
	plain, err := w.setup(cfg.seed, nil)
	if err != nil {
		return nil, fmt.Errorf("set up: %w", err)
	}
	runtime.GC()
	base, err := plain.measure(half, 0)
	if err == nil {
		err = checkAfter(plain, &base)
	}
	plain.close()
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	inst, err := w.setup(cfg.seed, rec)
	if err != nil {
		return nil, fmt.Errorf("set up: %w", err)
	}
	defer inst.close()
	rec.reset()
	runtime.GC()
	win, err := inst.measure(half, 0)
	if err != nil {
		return nil, err
	}
	values := rec.metrics()
	for k, v := range inst.layers() {
		values[k] = v
	}
	values["trace.overhead"] = frac(win.throughput, base.throughput) - 1
	for _, m := range perLayer {
		if _, ok := values[m.name]; !ok {
			values[m.name] = 0 // a layer this workload does not use
		}
	}
	if err := checkAfter(inst, &win); err != nil {
		return nil, err
	}
	win.merge(base)
	return newResult(w, win, values, true), nil
}

// checkAfter runs the instance's post-window checks and folds their
// mismatches into the window as failed, wrong operations.
func checkAfter(inst instance, win *window) error {
	wrong, err := inst.verify()
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	win.failed += wrong
	win.wrong += wrong
	if wrong > 0 && win.firstErr == nil {
		win.firstErr = fmt.Errorf("%w: %d answers failed the checks after the window", errWrongAnswer, wrong)
	}
	return nil
}

// merge adds another window's operations to w.
func (w *window) merge(o window) {
	w.latency = append(w.latency, o.latency...)
	w.attempted += o.attempted
	w.failed += o.failed
	w.wrong += o.wrong
	if w.firstErr == nil {
		w.firstErr = o.firstErr
	}
}
