// Command mcmbench regenerates the experiment tables of the DAC'99 study
// (see DESIGN.md's experiment index):
//
//	mcmbench -table table2            # E-T2: the running-time grid
//	mcmbench -table mcm               # E-41: MCM value vs graph parameters
//	mcmbench -table heapops           # E-42: KO vs YTO heap operations
//	mcmbench -table iters             # E-43: iteration counts
//	mcmbench -table karp              # E-44: Karp-variant behavior
//	mcmbench -table ranking           # E-45: overall speed ranking
//	mcmbench -table circuits          # E-C : benchmark-circuit family
//	mcmbench -table heapkinds         # A-1 : heap ablation inside KO/YTO
//	mcmbench -table variants          # A-2 : space-variant ablation
//	mcmbench -table ratio             # E-R : cost-to-time ratio solvers
//	mcmbench -table all               # everything from one sweep
//
// An unknown -table name exits 2 with the list above, before any sweep.
//
// -cpuprofile/-memprofile write pprof profiles of any sweep, so wins are
// attributable to specific hot paths; see docs/ALGORITHMS.md for the
// workflow.
//
// The full Table 2 grid (n up to 8192, 10 seeds) takes tens of minutes;
// -quick runs a reduced grid (n up to 2048, 3 seeds) in a couple of
// minutes. -verify cross-checks that all algorithms agree exactly on every
// instance while measuring.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on the default mux for -serve
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is mcmbench with its arguments and output streams made explicit; it
// returns the process exit code: 0 on success, 1 on a failed sweep, 2 on a
// bad flag, an unknown table or a -verify mismatch.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("mcmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		table      = fs.String("table", "table2", "which table to regenerate: "+strings.Join(bench.Tables, ", "))
		quick      = fs.Bool("quick", false, "reduced grid (n <= 2048) and 3 seeds")
		seeds      = fs.Int("seeds", 0, "instances per size (default 10, or 3 with -quick)")
		maxN       = fs.Int("maxn", 0, "limit the grid to sizes with n <= maxn")
		algos      = fs.String("algos", "", "comma-separated algorithm subset (default: the paper's Table 2 columns)")
		timeout    = fs.Duration("timeout", 60*time.Second, "per-instance budget; larger n are N/A once exceeded")
		memLimit   = fs.Int64("memlimit", 256<<20, "D-table memory budget in bytes for Karp/DG/HO (paper machine: 64 MB)")
		verify     = fs.Bool("verify", false, "cross-check all algorithms agree exactly on every instance")
		progress   = fs.Bool("progress", false, "print one line per completed run to stderr")
		jsonOut    = fs.Bool("json", false, "emit the sweep as JSON instead of a table")
		parallel   = fs.Int("parallel", 1, "seed instances solved concurrently per size (negative = NumCPU); results are aggregated deterministically, but per-run timings contend for cores")
		cpuprofile = fs.String("cpuprofile", "", "write a pprof CPU profile of the sweep to this file")
		memprofile = fs.String("memprofile", "", "write a pprof heap profile (post-sweep) to this file")
		serve      = fs.String("serve", "", "serve live metrics (/debug/vars) and profiling (/debug/pprof/) on this address, e.g. :8080, while the sweep runs; keeps serving after the sweep completes until interrupted")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "mcmbench:", err)
		return 1
	}
	if err := bench.CheckTable(*table); err != nil {
		fmt.Fprintln(stderr, "mcmbench:", err)
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(stderr, "mcmbench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the live-heap picture
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "mcmbench:", err)
			}
		}()
	}

	cfg := bench.Config{
		Seeds:       *seeds,
		Timeout:     *timeout,
		MemLimit:    *memLimit,
		Verify:      *verify,
		Parallelism: *parallel,
	}
	if *serve != "" {
		// Aggregate every solver run into expvar-published metrics and expose
		// them, together with net/http/pprof, for live inspection of a running
		// sweep. The listener is bound before the sweep starts (so a scraper
		// never sees a connection refused) and kept open after it completes
		// (so the final counters remain scrapable until interrupted).
		agg := obs.NewMetrics()
		agg.Publish("mcm_solver")
		cfg.Tracer = agg.Tracer()
		ln, err := net.Listen("tcp", *serve)
		if err != nil {
			return fail(err)
		}
		go func() {
			if err := http.Serve(ln, nil); err != nil {
				fmt.Fprintln(stderr, "mcmbench: serve:", err)
			}
		}()
		fmt.Fprintf(stderr, "mcmbench: serving /debug/vars and /debug/pprof/ on http://%s\n", ln.Addr())
		defer func() {
			if code != 0 {
				return
			}
			fmt.Fprintln(stderr, "mcmbench: sweep complete; still serving (interrupt to exit)")
			select {}
		}()
	}
	if *quick {
		if cfg.Seeds == 0 {
			cfg.Seeds = 3
		}
		if *maxN == 0 {
			*maxN = 2048
		}
	}
	if *algos != "" {
		cfg.Algorithms = strings.Split(*algos, ",")
	}
	if *maxN > 0 {
		cfg.Sizes = limitSizes(*maxN)
	}
	if *progress {
		cfg.Progress = stderr
	}

	switch *table {
	case "circuits":
		cases, err := bench.RunCircuits(cfg.Algorithms, cfg.Seeds)
		if err != nil {
			return fail(err)
		}
		bench.WriteCircuits(stdout, cases, cfg.Algorithms)
		return 0
	case "heapkinds":
		rows, err := bench.RunHeapKinds(cfg.Sizes, cfg.Seeds)
		if err != nil {
			return fail(err)
		}
		bench.WriteHeapKinds(stdout, rows)
		return 0
	case "variants":
		rows, err := bench.RunVariants(cfg.Sizes, cfg.Seeds)
		if err != nil {
			return fail(err)
		}
		bench.WriteVariants(stdout, rows)
		return 0
	case "ratio":
		rows, err := bench.RunRatioTable(cfg.Sizes, cfg.Seeds, 4)
		if err != nil {
			return fail(err)
		}
		bench.WriteRatioTable(stdout, rows)
		return 0
	}

	rep, err := bench.Run(cfg)
	if err != nil {
		return fail(err)
	}
	if *jsonOut {
		data, err := rep.JSON()
		if err != nil {
			return fail(err)
		}
		stdout.Write(data)
		fmt.Fprintln(stdout)
	} else {
		if err := rep.WriteAll(stdout, *table); err != nil {
			return fail(err)
		}
		if *table == "all" {
			cases, err := bench.RunCircuits(cfg.Algorithms, cfg.Seeds)
			if err != nil {
				return fail(err)
			}
			bench.WriteCircuits(stdout, cases, cfg.Algorithms)
		}
	}
	if *verify && len(rep.Mismatches) > 0 {
		return 2
	}
	return 0
}

func limitSizes(maxN int) [][2]int {
	var out [][2]int
	for _, n := range []int{512, 1024, 2048, 4096, 8192} {
		if n > maxN {
			continue
		}
		for _, num := range []int{2, 3, 4, 5, 6} {
			out = append(out, [2]int{n, n * num / 2})
		}
	}
	return out
}
