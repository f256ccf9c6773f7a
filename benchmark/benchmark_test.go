package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/numeric"
	"repro/internal/serve"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // descending, so percentile must sort
		}
		return s
	}
	if _, ok := percentile(samples(999), 0.99); ok {
		t.Error("p99 of 999 samples reported; only 9 lie beyond it")
	}
	p, ok := percentile(samples(1000), 0.99)
	if !ok || p != 990 {
		t.Errorf("p99 of 1..1000 = %v, %t; want 990, true", p, ok)
	}
	withFailures := append(samples(1000), math.Inf(1), math.Inf(1))
	if p, _ := percentile(withFailures, 0.99); p != 992 {
		t.Errorf("p99 with two failures = %v; failures must sit in the tail", p)
	}
}

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// Expected values from Python: statistics.median and
	// statistics.quantiles(values, n=4).
	cases := []struct {
		values         []float64
		median, q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 3, 1.5, 4.5},
		{[]float64{2, 1}, 1.5, 0.75, 2.25},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.values)
		if m := median(c.values); m != c.median || q1 != c.q1 || q3 != c.q3 {
			t.Errorf("%v: median %v quartiles %v %v; want %v %v %v", c.values, m, q1, q3, c.median, c.q1, c.q3)
		}
	}
}

func TestJudgeVerdicts(t *testing.T) {
	lower := metric{"latency_p50_ms", "ms", "lower", 0.10}
	higher := metric{"throughput_ops_s", "ops/s", "higher", 0.10}
	around := func(c float64) []float64 { return []float64{c - 1, c - 0.5, c, c + 0.5, c + 1} }
	cases := []struct {
		name      string
		base, new []float64
		m         metric
		want      string
	}{
		{"same", around(100), around(100.5), lower, unchanged},
		{"faster", around(100), around(80), lower, improved},
		{"slower", around(100), around(120), lower, worse},
		{"slower within bound", around(100), around(105), lower, unchanged},
		{"throughput down", around(100), around(80), higher, worse},
		{"throughput up", around(100), around(120), higher, improved},
		{"noisy base", []float64{60, 80, 100, 120, 140}, around(105), lower, unresolved},
		{"noisy but all better", []float64{60, 80, 100, 120, 140}, around(50), lower, unchanged},
		{"too few runs", around(100)[:4], around(100), lower, unresolved},
	}
	for _, c := range cases {
		if got := judge(c.base, c.new, c.m); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// writeRuns writes five runs of one workload whose latency_p50_ms values
// are p50s and whose other end-to-end metrics are steady.
func writeRuns(t *testing.T, p50s ...float64) string {
	t.Helper()
	var b strings.Builder
	for i, v := range p50s {
		b.WriteString("# run workload=w seed=1 seconds=1 trace=0\n")
		for _, m := range endToEnd {
			x := 10 + 0.01*float64(i)
			if m.name == "latency_p50_ms" {
				x = v
			}
			b.WriteString("w " + m.name + " " + strconv.FormatFloat(x, 'g', -1, 64) + " " + m.unit + "\n")
		}
		b.WriteString(`{"correct":true,"attempted":1,"failed":0,"metrics":{}}` + "\n")
	}
	path := filepath.Join(t.TempDir(), "runs.txt")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareExitsOneOnWorse(t *testing.T) {
	base := writeRuns(t, 10, 10.1, 9.9, 10, 10.05)
	for _, c := range []struct {
		p50s []float64
		code int
		want string
	}{
		{[]float64{10, 10.1, 9.9, 10, 10.05}, 0, unchanged},
		{[]float64{13, 13.1, 12.9, 13, 13.05}, 1, worse},
	} {
		var out, errOut bytes.Buffer
		code := run([]string{"-compare", base, writeRuns(t, c.p50s...)}, &out, &errOut)
		if code != c.code {
			t.Errorf("p50 %v: exit %d, want %d\n%s%s", c.p50s, code, c.code, out.String(), errOut.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, "latency_p50_ms") && !strings.HasSuffix(strings.TrimSpace(line), c.want) {
				t.Errorf("p50 %v: %q, want verdict %s", c.p50s, line, c.want)
			}
		}
	}
}

func TestWrongReferenceCountsAsFailure(t *testing.T) {
	inst, err := setupMeanSprand(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	l := inst.(*libraryInstance)
	l.refs[3] = l.refs[3].Add(numeric.NewRat(1, 7))
	w, err := l.measure(0, 2*len(l.refs))
	if err != nil {
		t.Fatal(err)
	}
	if w.wrong != 2 || w.failed != 2 || !errors.Is(w.firstErr, errWrongAnswer) {
		t.Fatalf("wrong %d, failed %d, first error %v; want 2 wrong answers", w.wrong, w.failed, w.firstErr)
	}
	res := newResult(workloads[0], w, map[string]float64{}, false)
	if res.correct {
		t.Error("a run with wrong answers reports correct")
	}
}

func TestServeChecksCatchWrongAnswers(t *testing.T) {
	inst, err := setupServeMixed(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := inst.(*serveInstance)
	defer s.close()
	if len(s.deltaLog) == 0 || len(s.perturbed) == 0 {
		t.Fatalf("warm-up logged %d deltas and %d perturbed answers; want some of each", len(s.deltaLog), len(s.perturbed))
	}
	if wrong, err := s.verify(); err != nil || wrong != 0 {
		t.Fatalf("verify on honest answers: %d wrong, %v", wrong, err)
	}
	last := &s.deltaLog[len(s.deltaLog)-1]
	last.value = last.value.Add(numeric.FromInt(1))
	s.perturbed[0].value = s.perturbed[0].value.Add(numeric.FromInt(1))
	if wrong, err := s.verify(); err != nil || wrong != 2 {
		t.Fatalf("verify after corrupting a delta and a perturbed answer: %d wrong, %v; want 2", wrong, err)
	}
	s.refs[0] = s.refs[0].Add(numeric.FromInt(1))
	if err := s.do(0, s.stream.hotRequest(0)); !errors.Is(err, errWrongAnswer) {
		t.Errorf("hot request against a wrong reference: %v, want a wrong answer", err)
	}
}

func TestSameSeedSameRequests(t *testing.T) {
	stream := func(seed uint64) ([]request, []time.Duration) {
		hot, err := sprandPool(rngFor(seed, streamServeHot), serveHot, serveN, serveM)
		if err != nil {
			t.Fatal(err)
		}
		s, err := newRequestStream(seed, hot, "s00000001", 8019)
		if err != nil {
			t.Fatal(err)
		}
		reqs := make([]request, 400)
		for i := range reqs {
			reqs[i] = s.next()
		}
		return reqs, poissonArrivals(rngFor(seed, streamServeArrivals), loRate, time.Second)
	}
	a, arrA := stream(7)
	b, arrB := stream(7)
	c, _ := stream(8)
	differ := false
	for i := range a {
		if a[i].path != b[i].path || !bytes.Equal(a[i].body, b[i].body) {
			t.Fatalf("request %d differs between two streams from seed 7", i)
		}
		differ = differ || !bytes.Equal(a[i].body, c[i].body)
	}
	if !differ {
		t.Error("seeds 7 and 8 produced the same requests")
	}
	if len(arrA) == 0 || len(arrA) != len(arrB) || arrA[len(arrA)-1] != arrB[len(arrB)-1] {
		t.Error("arrival times differ between two runs from seed 7")
	}
}

func TestPerturbedRequestChangesOneWeight(t *testing.T) {
	hot, err := sprandPool(rngFor(3, streamServeHot), serveHot, serveN, serveM)
	if err != nil {
		t.Fatal(err)
	}
	s, err := newRequestStream(3, hot, "s1", 8019)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for seen < 20 {
		r := s.next()
		if r.kind != kindPerturbed {
			continue
		}
		seen++
		var req serve.SolveRequest
		if err := json.Unmarshal(r.body, &req); err != nil || len(req.Requests) != 1 || !req.Requests[0].Certify {
			t.Fatalf("perturbed body does not decode as one certified solve: %v", err)
		}
		g, err := graph.Read(strings.NewReader(req.Requests[0].Text))
		if err != nil {
			t.Fatal(err)
		}
		want := hot[r.hot].Arcs()
		got := g.Arcs()
		for i := range want {
			w := want[i]
			if i == r.arc {
				w.Weight = r.weight
			}
			if got[i] != w {
				t.Fatalf("arc %d of perturbed graph = %+v, want %+v", i, got[i], w)
			}
		}
	}
}

func TestReduceTakesUnionAndSelfTime(t *testing.T) {
	r := newRecorder()
	at := func(ms int) time.Time { return r.epoch.Add(time.Duration(ms) * time.Millisecond) }
	r.add(decodeSpan, 0, at(0), at(2))
	r.add(solverSpan, 0, at(2), at(6))
	r.add(solverSpan, 0, at(4), at(8)) // overlaps: a parallel solve
	r.add(rootSpan, 0, at(0), at(10))
	r.add(solverSpan, unattributed, at(20), at(23))
	lt := r.reduce()
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	if lt.ops != 1 || ms(lt.opTime) != 10 || ms(lt.self) != 2 {
		t.Errorf("ops %d, op time %v ms, self %v ms; want 1, 10, 2", lt.ops, ms(lt.opTime), ms(lt.self))
	}
	if got := ms(lt.layer[solverSpan]); got != 6+3 {
		t.Errorf("solver time %v ms, want 6 (union) + 3 (unattributed)", got)
	}
}

// TestSmoke runs every workload briefly, untraced and traced, so that
// `go test` exercises the whole benchmark.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, trace := range []string{"0", "1"} {
		var out, errOut bytes.Buffer
		code := run([]string{"-workload", "all", "-seed", "1", "-seconds", "1", "-smoke", "-trace", trace}, &out, &errOut)
		if code != 0 {
			t.Fatalf("-trace %s: exit %d\n%s", trace, code, errOut.String())
		}
		want := endToEnd
		if trace == "1" {
			want = perLayer
		}
		for _, w := range workloads {
			for _, m := range want {
				if m.name == "latency_p99_ms" {
					continue // a one-second window may hold fewer than 1000 samples
				}
				if !strings.Contains(out.String(), "\n"+w.name+" "+m.name+" ") {
					t.Errorf("-trace %s: no %s %s line", trace, w.name, m.name)
				}
			}
		}
		for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
			if !strings.HasPrefix(line, "{") {
				continue
			}
			var sum struct {
				Correct           bool
				Attempted, Failed int
			}
			if err := json.Unmarshal([]byte(line), &sum); err != nil || !sum.Correct || sum.Failed != 0 || sum.Attempted < 1 {
				t.Errorf("-trace %s: summary %s", trace, line)
			}
		}
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json at the repository
// root in step with the metric and workload tables here.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []row `json:"end_to_end"`
		PerLayer  []row `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why == "" {
			t.Errorf("workload %d: %q, want %q with a reason", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, rows []row, want []metric, bounded bool) {
		if len(rows) != len(want) {
			t.Fatalf("%s: %d rows, want %d", kind, len(rows), len(want))
		}
		for i, r := range rows {
			m := want[i]
			if r.Name != m.name || r.Unit != m.unit || r.Better != m.better || (r.Bound != nil) != bounded ||
				(bounded && *r.Bound != m.bound) {
				t.Errorf("%s row %d: %+v, want %+v", kind, i, r, m)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
}
