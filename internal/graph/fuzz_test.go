package graph

import (
	"bytes"
	"io"
	"reflect"
	"testing"
	"testing/iotest"
)

// FuzzGraphRead throws arbitrary bytes at the text-format reader. Any input
// must either fail with an error or produce a graph that survives the full
// pipeline: summarization, re-serialization, and an exact re-read round
// trip. No input may panic or allocate unboundedly. The parser must also
// agree with referenceScanText on every input — header, arcs yielded before
// any error, and error text byte for byte — whether the input arrives
// whole, one byte per Read, or from a reader that fails halfway through.
func FuzzGraphRead(f *testing.F) {
	f.Add([]byte("p mcm 2 2\na 1 2 5\na 2 1 -3 4\n"))
	f.Add([]byte("c comment\n\np mcm 3 3\na 1 2 2\na 2 3 4\na 3 1 3\n"))
	f.Add([]byte("p mcm 1 1\na 1 1 -9 2\n"))
	f.Add([]byte("p mcm 2 1\na 1 3 5\n"))
	f.Add([]byte("p mcm 99999999999 0\n"))
	f.Add([]byte("a 1 2 3\n"))
	f.Add([]byte("p mcm -1 -1\n"))
	f.Add([]byte(""))
	f.Add([]byte("p mcm 2 2\r\na 1 2 5\r\na 2 1 -3 4\r\n"))
	f.Add([]byte("p\tmcm\v2\f2\na\t1\v2\f5\r\n\ta 2\v\f1 -3\t4 \r\n"))
	f.Add([]byte("p mcm +2 +2\na +1 +2 +5\na 2 1 -3 +4\n"))
	f.Add([]byte("p mcm 1 3\na 1 1 123456789012345678\na 1 1 1234567890123456789\na 1 1 12345678901234567890\n"))
	f.Add([]byte("p mcm 1 2\na 1 1 9223372036854775807 1\na 1 1 -9223372036854775808 9223372036854775807\n"))
	f.Add([]byte("p mcm 1 1\na 1 1 9223372036854775808\n"))
	f.Add([]byte("p mcm 1 1\na 1 1 -9223372036854775809\n"))
	f.Add([]byte("p mcm 2 2\na 1 2 5\na 2 1 7"))
	f.Add([]byte("p mcm 2 1\na1 2 3\n"))
	f.Add([]byte("p mcm 2 1\na\n"))
	f.Add([]byte("a\n"))
	f.Add([]byte("p mcm 2 1\na 1 2 5 \n"))
	f.Add([]byte("p mcm 2 1\na 1 2 \x005\n"))
	f.Add([]byte("p mcm 2 1\na 1 2 +\n"))
	f.Add([]byte("p mcm 2 1\na x 2 3 4 5\n"))
	f.Add([]byte("p mcm 2 1 9\n"))
	f.Add([]byte("p\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, feed := range []struct {
			name string
			r    func() io.Reader
		}{
			{"whole", func() io.Reader { return bytes.NewReader(data) }},
			{"one byte", func() io.Reader { return iotest.OneByteReader(bytes.NewReader(data)) }},
			{"failing", func() io.Reader {
				half := len(data) / 2
				return iotest.TimeoutReader(io.MultiReader(bytes.NewReader(data[:half]), bytes.NewReader(data[half:])))
			}},
		} {
			got, want := collectScan(scanText, feed.r()), collectScan(referenceScanText, feed.r())
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: scanText = %+v, reference = %+v", feed.name, got, want)
			}
		}

		g, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		st := Summarize(g)
		if st.Nodes != g.NumNodes() || st.Arcs != g.NumArcs() {
			t.Fatalf("summary disagrees with graph: %+v", st)
		}
		var buf, ref bytes.Buffer
		if err := Write(&buf, g); err != nil {
			t.Fatalf("Write of parsed graph failed: %v", err)
		}
		if err := referenceWrite(&ref, g); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), ref.Bytes()) {
			t.Fatalf("Write = %q, reference = %q", buf.Bytes(), ref.Bytes())
		}
		g2, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-read of written graph failed: %v", err)
		}
		if g2.NumNodes() != g.NumNodes() || g2.NumArcs() != g.NumArcs() {
			t.Fatalf("round trip changed size: %d/%d vs %d/%d",
				g.NumNodes(), g.NumArcs(), g2.NumNodes(), g2.NumArcs())
		}
		for i := 0; i < g.NumArcs(); i++ {
			if g.Arc(ArcID(i)) != g2.Arc(ArcID(i)) {
				t.Fatalf("round trip changed arc %d: %+v vs %+v", i, g.Arc(ArcID(i)), g2.Arc(ArcID(i)))
			}
		}
	})
}

// scanResult is everything a text parser reports about one input.
type scanResult struct {
	N, M    int
	Headers int
	Arcs    []Arc
	IDs     []ArcID
	Err     string
}

// collectScan runs a parser over r and records the header, each yielded arc
// and its ID, and the error text.
func collectScan(scan func(io.Reader, func(n, m int) bool, func(ArcID, Arc) bool) error, r io.Reader) scanResult {
	var res scanResult
	err := scan(r, func(n, m int) bool {
		res.N, res.M = n, m
		res.Headers++
		return true
	}, func(id ArcID, a Arc) bool {
		res.IDs = append(res.IDs, id)
		res.Arcs = append(res.Arcs, a)
		return true
	})
	if err != nil {
		res.Err = err.Error()
	}
	return res
}
