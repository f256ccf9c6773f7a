package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/numeric"
	"repro/internal/obs"
	"repro/internal/prep"
	"repro/internal/ratio"
)

// libraryInstance is a workload that calls the solver library in a closed
// loop with one caller: the next operation starts when the previous one
// returns, as a program using the library would.
type libraryInstance struct {
	rec *recorder // nil for an untraced run
	// inputs are the operations' graphs, or texts their text form when the
	// operation decodes it; both feed the standalone layer timings. refs
	// are their optima, computed by a different engine.
	inputs []*graph.Graph
	texts  [][]byte
	refs   []numeric.Rat
	mode   prep.Mode
	// op runs operation i with the given tracer on input k and returns the
	// answer: the optimum, whether it came certified, and the engine.
	op func(i int, tr *obs.Trace) (k int, a answer, err error)
}

type answer struct {
	value     numeric.Rat
	certified bool
	engine    string
}

func (l *libraryInstance) measure(d time.Duration, minOps int) (window, error) {
	var tr *obs.Trace
	if l.rec != nil {
		tr = l.rec.trace()
	}
	var w window
	start := time.Now()
	for i := 0; time.Since(start) < d || i < minOps; i++ {
		if l.rec != nil {
			l.rec.beginOp(i)
		}
		t0 := time.Now()
		k, a, err := l.op(i, tr)
		t1 := time.Now()
		if l.rec != nil {
			l.rec.endOp(t0, t1)
		}
		if err == nil && (!a.certified || !a.value.Equal(l.refs[k])) {
			err = fmt.Errorf("%w: %s on input %d got %v (certified %t), reference %v",
				errWrongAnswer, a.engine, k, a.value, a.certified, l.refs[k])
		}
		w.record(t1.Sub(t0), err)
	}
	w.throughput = float64(w.attempted-w.failed) / time.Since(start).Seconds()
	return w, nil
}

// verify has nothing to do: every operation was checked against its
// reference as it ran.
func (l *libraryInstance) verify() (int, error) { return 0, nil }
func (l *libraryInstance) close()               {}

func (l *libraryInstance) layers() map[string]float64 {
	inputs := l.inputs
	for _, text := range l.texts {
		g, err := graph.Read(bytes.NewReader(text))
		if err != nil {
			panic(err) // rendered by graph.Write in setup
		}
		inputs = append(inputs, g)
	}
	return standalone(inputs, l.mode)
}

// standalone times, on each input graph, the layers whose events carry no
// duration: SCC decomposition, fingerprinting and kernelization (on the
// cyclic components, as the driver runs it). Each is the mean over inputs.
func standalone(inputs []*graph.Graph, mode prep.Mode) map[string]float64 {
	var scc, fp, kern time.Duration
	for _, g := range inputs {
		comps := graph.CyclicComponents(g)
		t0 := time.Now()
		graph.StronglyConnectedComponents(g)
		t1 := time.Now()
		g.Fingerprint()
		t2 := time.Now()
		for _, c := range comps {
			prep.Kernelize(c.Graph, mode)
		}
		t3 := time.Now()
		scc += t1.Sub(t0)
		fp += t2.Sub(t1)
		kern += t3.Sub(t2)
	}
	n := float64(len(inputs))
	return map[string]float64{
		"graph.scc_standalone_ms":         frac(float64(scc)/1e6, n),
		"graph.fingerprint_standalone_ms": frac(float64(fp)/1e6, n),
		"prep.kernelize_standalone_ms":    frac(float64(kern)/1e6, n),
	}
}

func mustMean(name string) core.Algorithm {
	a, err := core.ByName(name)
	if err != nil {
		panic(err) // the names below are registered engines
	}
	return a
}

func mustRatio(name string) ratio.Algorithm {
	a, err := ratio.ByName(name)
	if err != nil {
		panic(err)
	}
	return a
}

// Pool sizes. SPRAND solve times vary about 30% from graph to graph, so
// the SPRAND pools are large enough that which graphs a seed draws moves
// the pool's median by only a few percent. Circuit graphs of one shape
// solve within 2% of each other.
const (
	meanPool, meanN, meanM    = 128, 2048, 8192
	ratioPool, ratioN, ratioM = 64, 256, 1024
	ratioMinT, ratioMaxT      = 1, 8
	circuitPool               = 8
)

// setupMeanSprand: the paper's headline experiment as a library or CLI user
// runs it — decode the graph text, then a certified Howard solve — checked
// against certified Madani.
func setupMeanSprand(seed uint64, rec *recorder) (instance, error) {
	rng := rngFor(seed, streamMeanPool)
	texts := make([][]byte, meanPool)
	refs := make([]numeric.Rat, meanPool)
	madani := mustMean("madani")
	for i := range texts {
		g, err := sprand(rng, meanN, meanM)
		if err != nil {
			return nil, err
		}
		if texts[i], err = render(g); err != nil {
			return nil, err
		}
		r, err := core.MinimumCycleMean(g, madani, core.Options{Certify: true})
		if err != nil {
			return nil, fmt.Errorf("reference for graph %d: %w", i, err)
		}
		refs[i] = r.Mean
	}
	howard := mustMean("howard")
	op := func(i int, tr *obs.Trace) (int, answer, error) {
		k := i % len(texts)
		t0 := time.Now()
		g, err := graph.Read(bytes.NewReader(texts[k]))
		if err != nil {
			return k, answer{}, err
		}
		if rec != nil {
			rec.add(decodeSpan, i, t0, time.Now())
		}
		r, err := core.MinimumCycleMean(g, howard, core.Options{Certify: true, Tracer: tr})
		return k, answer{r.Mean, r.Certificate != nil, "howard"}, err
	}
	return &libraryInstance{rec: rec, texts: texts, refs: refs, mode: prep.Mean, op: op}, nil
}

// setupRatioSprand: probe-bound exact ratio search — each operation
// alternates certified Stern–Brocot and certified BHK on an in-memory graph
// with transit times — checked against certified ratio Howard.
func setupRatioSprand(seed uint64, rec *recorder) (instance, error) {
	rng := rngFor(seed, streamRatioPool)
	pool, err := sprandPool(rng, ratioPool, ratioN, ratioM)
	if err != nil {
		return nil, err
	}
	refs := make([]numeric.Rat, len(pool))
	howard := mustRatio("howard")
	for i, g := range pool {
		pool[i] = withTransits(g, rng, ratioMinT, ratioMaxT)
		r, err := ratio.MinimumCycleRatio(pool[i], howard, core.Options{Certify: true})
		if err != nil {
			return nil, fmt.Errorf("reference for graph %d: %w", i, err)
		}
		refs[i] = r.Ratio
	}
	engines := []ratio.Algorithm{mustRatio("sternbrocot"), mustRatio("bhk")}
	op := func(i int, tr *obs.Trace) (int, answer, error) {
		// i/2 picks the graph so both engines see every graph.
		k, algo := (i/2)%len(pool), engines[i%2]
		r, err := ratio.MinimumCycleRatio(pool[k], algo, core.Options{Certify: true, Tracer: tr})
		return k, answer{r.Ratio, r.Certificate != nil, algo.Name()}, err
	}
	return &libraryInstance{rec: rec, inputs: pool, refs: refs, mode: prep.Ratio, op: op}, nil
}

// setupCircuitKernel: the clock-period bound of a multi-domain circuit —
// certified, kernelized maximum cycle mean over 16 SCCs on two goroutines —
// checked against certified Madani without kernelization.
func setupCircuitKernel(seed uint64, rec *recorder) (instance, error) {
	rng := rngFor(seed, streamCircuit)
	pool := make([]*graph.Graph, circuitPool)
	refs := make([]numeric.Rat, circuitPool)
	madani := mustMean("madani")
	for i := range pool {
		g, err := circuit(rng)
		if err != nil {
			return nil, err
		}
		r, err := core.MaximumCycleMean(g, madani, core.Options{Certify: true})
		if err != nil {
			return nil, fmt.Errorf("reference for graph %d: %w", i, err)
		}
		pool[i], refs[i] = g, r.Mean
	}
	howard := mustMean("howard")
	opt := core.Options{Kernelize: true, Parallelism: 2, Certify: true}
	op := func(i int, tr *obs.Trace) (int, answer, error) {
		k, o := i%len(pool), opt
		o.Tracer = tr
		r, err := core.MaximumCycleMean(pool[k], howard, o)
		return k, answer{r.Mean, r.Certificate != nil, "howard"}, err
	}
	return &libraryInstance{rec: rec, inputs: pool, refs: refs, mode: prep.Mean, op: op}, nil
}
