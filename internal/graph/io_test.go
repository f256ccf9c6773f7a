package graph

import (
	"bufio"
	"bytes"
	"errors"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

func TestReadWriteRoundTrip(t *testing.T) {
	b := NewBuilder(3, 4)
	b.AddNodes(3)
	b.AddArc(0, 1, -5)
	b.AddArcTransit(1, 2, 7, 3)
	b.AddArc(2, 0, 10000)
	b.AddArc(0, 0, 0)
	g := b.Build()

	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumArcs() != g.NumArcs() {
		t.Fatalf("size changed: %d/%d", g2.NumNodes(), g2.NumArcs())
	}
	for i := 0; i < g.NumArcs(); i++ {
		if g.Arc(ArcID(i)) != g2.Arc(ArcID(i)) {
			t.Fatalf("arc %d changed: %+v vs %+v", i, g.Arc(ArcID(i)), g2.Arc(ArcID(i)))
		}
	}
}

func TestReadAcceptsCommentsAndBlank(t *testing.T) {
	src := `
c a comment line

p mcm 2 2
c another
a 1 2 5
a 2 1 -3 4
`
	g, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 2 || g.NumArcs() != 2 {
		t.Fatalf("size %d/%d", g.NumNodes(), g.NumArcs())
	}
	if a := g.Arc(1); a.Weight != -3 || a.Transit != 4 {
		t.Fatalf("arc 1 = %+v", a)
	}
}

func TestReadErrors(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"no problem line", "a 1 2 3\n"},
		{"missing problem", "c only comments\n"},
		{"double problem", "p mcm 1 0\np mcm 1 0\n"},
		{"bad record", "p mcm 1 0\nx 1 2\n"},
		{"node out of range", "p mcm 2 1\na 1 3 5\n"},
		{"node zero", "p mcm 2 1\na 0 1 5\n"},
		{"arc count mismatch", "p mcm 2 2\na 1 2 5\n"},
		{"bad weight", "p mcm 2 1\na 1 2 x\n"},
		{"negative size", "p mcm -1 0\n"},
		{"malformed problem", "p mcm 2\n"},
		{"wrong problem kind", "p sp 2 1\na 1 2 3\n"},
		{"negative node", "p mcm 2 1\na -1 2 5\n"},
		{"too many arcs", "p mcm 2 1\na 1 2 5\na 2 1 3\n"},
		{"huge node count", "p mcm 99999999999 0\n"},
		{"huge arc count", "p mcm 2 99999999999\n"},
		{"overflowing node count", "p mcm 99999999999999999999 0\n"},
		{"bad transit", "p mcm 2 1\na 1 2 5 x\n"},
		{"extra arc fields", "p mcm 2 1\na 1 2 5 1 9\n"},
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c.src)); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

// TestReadErrorsCarryLineNumbers pins that diagnostics point at the
// offending line, which is what makes them actionable on large files.
func TestReadErrorsCarryLineNumbers(t *testing.T) {
	src := "c header\np mcm 2 2\na 1 2 5\na 1 9 1\n"
	_, err := Read(strings.NewReader(src))
	if err == nil || !strings.Contains(err.Error(), "line 4") {
		t.Fatalf("err = %v, want a line 4 diagnostic", err)
	}
}

// TestReadSizeLimit pins the allocation guard: a hostile problem line
// promising huge dimensions must be rejected before any proportional
// allocation happens.
func TestReadSizeLimit(t *testing.T) {
	over := strconv.Itoa(maxReadDim + 1)
	for _, src := range []string{
		// Oversized n with no arcs: would allocate O(n) node arrays.
		"p mcm " + over + " 0\n",
		// Oversized m: would reserve O(m) arc capacity.
		"p mcm 2 " + over + "\n",
	} {
		if _, err := Read(strings.NewReader(src)); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
			t.Errorf("Read(%q) err = %v, want size-limit error", src[:20], err)
		}
	}
	// At the limit with a consistent (empty) arc list the header itself is
	// fine; the arc-count check still fires because no arcs follow.
	if _, err := Read(strings.NewReader("p mcm 16 1\n")); err == nil {
		t.Error("promised arcs missing: expected error")
	}
}

// TestReadLineLimit pins the line limit bufio.Scanner enforces: a line one
// byte under 2²⁴ parses, and a line of 2²⁴ bytes fails with
// bufio.ErrTooLong, exactly as in the reference parser.
func TestReadLineLimit(t *testing.T) {
	if testing.Short() {
		t.Skip("reads two 16 MiB lines")
	}
	for _, c := range []struct {
		lineLen int
		want    error
	}{{maxLineLen - 1, nil}, {maxLineLen, bufio.ErrTooLong}} {
		line := bytes.Repeat([]byte{' '}, c.lineLen)
		copy(line, "a 1 1 5")
		input := append(append([]byte("p mcm 1 1\n"), line...), '\n')
		if got, want := collectScan(scanText, bytes.NewReader(input)), collectScan(referenceScanText, bytes.NewReader(input)); got.Err != want.Err || len(got.Arcs) != len(want.Arcs) {
			t.Errorf("%d-byte line: scanText = %+v, reference = %+v", c.lineLen, got, want)
		}
		if _, err := Read(bytes.NewReader(input)); !errors.Is(err, c.want) {
			t.Errorf("%d-byte line: err = %v, want %v", c.lineLen, err, c.want)
		}
	}
}

// TestWriteMatchesReference pins Write's output byte for byte to the fmt
// serializer it replaced, on random graphs with transit ≠ 1, zero and
// negative weights and transits, and values at ±2⁶³.
func TestWriteMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	extremes := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, 2, math.MaxInt64 - 1, math.MaxInt64}
	value := func() int64 {
		switch rng.Intn(3) {
		case 0:
			return extremes[rng.Intn(len(extremes))]
		case 1:
			return rng.Int63() - rng.Int63()
		}
		return rng.Int63n(20001) - 5000
	}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		arcs := make([]Arc, rng.Intn(4*n))
		for i := range arcs {
			arcs[i] = Arc{From: NodeID(rng.Intn(n)), To: NodeID(rng.Intn(n)), Weight: value(), Transit: 1}
			if rng.Intn(2) == 0 {
				arcs[i].Transit = value()
			}
		}
		g := FromArcs(n, arcs)
		var got, want bytes.Buffer
		if err := Write(&got, g); err != nil {
			t.Fatal(err)
		}
		if err := referenceWrite(&want, g); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("trial %d: Write differs from the reference:\n%q\n%q", trial, got.Bytes(), want.Bytes())
		}
	}
}

func TestWriteDOT(t *testing.T) {
	b := NewBuilder(2, 2)
	b.AddNodes(2)
	e0 := b.AddArc(0, 1, 3)
	b.AddArcTransit(1, 0, 4, 2)
	g := b.Build()
	var buf bytes.Buffer
	if err := WriteDOT(&buf, g, "my graph!", map[ArcID]bool{e0: true}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"digraph my_graph_", "n0 -> n1", `label="3"`, `label="4/2"`, "color=red"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
}

func TestSummarize(t *testing.T) {
	b := NewBuilder(3, 5)
	b.AddNodes(3)
	b.AddArc(0, 1, 5)
	b.AddArc(0, 1, 9) // parallel
	b.AddArc(1, 1, 2) // self loop
	b.AddArc(1, 2, -4)
	b.AddArc(2, 0, 3)
	g := b.Build()
	st := Summarize(g)
	if st.SelfLoops != 1 || st.ParallelPairs != 1 {
		t.Fatalf("selfloops=%d parallel=%d", st.SelfLoops, st.ParallelPairs)
	}
	if st.MinWeight != -4 || st.MaxWeight != 9 {
		t.Fatalf("weights [%d,%d]", st.MinWeight, st.MaxWeight)
	}
	if st.SCCs != 1 || st.LargestSCC != 3 {
		t.Fatalf("sccs=%d largest=%d", st.SCCs, st.LargestSCC)
	}
	if !strings.Contains(st.String(), "n=3 m=5") {
		t.Fatalf("String() = %q", st.String())
	}
}

func TestSortedArcIDs(t *testing.T) {
	b := NewBuilder(2, 3)
	b.AddNodes(2)
	b.AddArc(1, 0, 7)
	b.AddArc(0, 1, 9)
	b.AddArc(0, 1, 2)
	g := b.Build()
	ids := SortedArcIDs(g)
	want := []ArcID{2, 1, 0} // (0,1,2), (0,1,9), (1,0,7)
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids = %v, want %v", ids, want)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	b := NewBuilder(3, 4)
	b.AddNodes(3)
	b.AddArc(0, 1, -5)
	b.AddArcTransit(1, 2, 7, 3)
	b.AddArcTransit(2, 0, 9, 0) // zero transit must survive the round trip
	b.AddArc(0, 0, 1)
	g := b.Build()

	var buf bytes.Buffer
	if err := WriteJSON(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumArcs() != g.NumArcs() {
		t.Fatalf("size changed")
	}
	for i := 0; i < g.NumArcs(); i++ {
		if g.Arc(ArcID(i)) != g2.Arc(ArcID(i)) {
			t.Fatalf("arc %d changed: %+v vs %+v", i, g.Arc(ArcID(i)), g2.Arc(ArcID(i)))
		}
	}
}

func TestJSONErrors(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader(`{"nodes":-1,"arcs":[]}`)); err == nil {
		t.Error("negative node count accepted")
	}
	if _, err := ReadJSON(strings.NewReader(`{"nodes":2,"arcs":[{"from":0,"to":5,"weight":1}]}`)); err == nil {
		t.Error("out-of-range arc accepted")
	}
	if _, err := ReadJSON(strings.NewReader(`not json`)); err == nil {
		t.Error("malformed JSON accepted")
	}
}
