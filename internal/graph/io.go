package graph

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// The text format is a DIMACS-inspired line format:
//
//	c  free-text comment
//	p  mcm <n> <m>
//	a  <from> <to> <weight> [transit]
//
// Nodes are 1-based in the file (DIMACS convention) and 0-based in memory.
// transit defaults to 1 when omitted. Blank lines are ignored.

// Write serializes g in the text format.
func Write(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	line := make([]byte, 0, 80) // the longest arc line is 68 bytes
	line = append(line, "p mcm "...)
	line = strconv.AppendInt(line, int64(g.NumNodes()), 10)
	line = append(line, ' ')
	line = strconv.AppendInt(line, int64(g.NumArcs()), 10)
	line = append(line, '\n')
	if _, err := bw.Write(line); err != nil {
		return err
	}
	for _, a := range g.Arcs() {
		line = append(line[:0], "a "...)
		line = strconv.AppendInt(line, int64(a.From+1), 10)
		line = append(line, ' ')
		line = strconv.AppendInt(line, int64(a.To+1), 10)
		line = append(line, ' ')
		line = strconv.AppendInt(line, a.Weight, 10)
		if a.Transit != 1 {
			line = append(line, ' ')
			line = strconv.AppendInt(line, a.Transit, 10)
		}
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// maxReadDim bounds the node and arc counts Read accepts. Every consumer
// pays per-node costs proportional to the declared dimensions (adjacency
// index arrays in FromArcs, the SCC working set), so a hostile problem line
// buys damage by the dimension, not the byte: a one-line header declaring
// 2^26 nodes used to stall the pipeline for several seconds on hundreds of
// MB of index builds. 2^24 (≈16.7M) keeps 4x headroom over the largest
// instance in the repo (the 2^22-arc approximation-tier flagship) while
// capping the worst header-driven allocation near 10^8 bytes.
const maxReadDim = 1 << 24

// MaxDim is the exported form of the Read size limit, for front ends (the
// batch solve service, decoders of other wire formats) that must reject
// oversized node or arc counts before allocating anything, with the same
// threshold the text reader enforces.
const MaxDim = maxReadDim

// maxArcPrealloc caps the arc-slice capacity reserved on the problem line's
// say-so; beyond it, growth is paid only as arcs actually arrive.
const maxArcPrealloc = 1 << 16

// Read parses a graph in the text format produced by Write. It validates as
// it goes — malformed records, out-of-range or negative node ids, counts
// that disagree with the problem line, duplicate headers, and oversized
// dimensions all produce line-numbered errors, never panics or unbounded
// allocations.
//
// Read is a thin collector over the streaming scanText parser that also
// backs ReadStream: parsing works in O(1) buffers, and the only
// size-proportional allocation is the arc slice itself, grown at most once
// (capped prealloc, then a single jump to the promised count) and handed to
// FromArcs without copying.
func Read(r io.Reader) (*Graph, error) {
	var (
		n, m int
		arcs []Arc
	)
	err := scanText(r, func(hn, hm int) bool {
		n, m = hn, hm
		prealloc := m
		if prealloc > maxArcPrealloc {
			prealloc = maxArcPrealloc
		}
		arcs = make([]Arc, 0, prealloc)
		return true
	}, func(id ArcID, a Arc) bool {
		if len(arcs) == cap(arcs) && cap(arcs) < m {
			// The capped prealloc is full and the header promised more:
			// grow straight to the final size instead of letting append
			// double its way there (~2x the final footprint in transient
			// garbage on large files). scanText never yields more than m
			// arcs, so this single growth is also the last.
			grown := make([]Arc, len(arcs), m)
			copy(grown, arcs)
			arcs = grown
		}
		arcs = append(arcs, a)
		return true
	})
	if err != nil {
		return nil, err
	}
	return FromArcs(n, arcs), nil
}

// maxLineLen bounds one line of the text format. bufio.Scanner enforces it:
// a line of maxLineLen bytes or more fails with bufio.ErrTooLong.
const maxLineLen = 1 << 24

// scanText is the streaming core of the text-format parser, shared by Read,
// ReadStream, and TextSource.Scan. It never retains arcs: each parsed record
// is handed to yield and forgotten, so working memory is O(1) regardless of
// file size. onHeader is called once with the validated problem-line
// dimensions; returning false stops the scan immediately (header-only
// probes). yield returning false (or being nil) likewise stops the scan
// early; both early stops return nil. A complete pass additionally enforces
// that the number of arc records matches the problem line.
//
// bufio.Scanner splits the lines; each line is then read in one
// left-to-right byte pass that skips separators, dispatches on the record
// letter and parses every field's integer as the field is scanned. Errors
// are decided after the whole line is scanned, in a fixed order (record
// kind, field count, each field left to right, then ranges), and a field
// that is not an int64 gets strconv's own message.
func scanText(r io.Reader, onHeader func(n, m int) bool, yield func(id ArcID, a Arc) bool) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), maxLineLen)
	var (
		n, m    int
		arcSeen int
		sawProb bool
		lineNo  int
		f       fields
	)
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		start := 0
		for start < len(line) && isSep(line[start]) {
			start++
		}
		if start == len(line) || line[start] == 'c' {
			continue
		}
		kind := line[start]
		if kind != 'p' && kind != 'a' || start+1 < len(line) && !isSep(line[start+1]) {
			end := start + 1
			for end < len(line) && !isSep(line[end]) {
				end++
			}
			return fmt.Errorf("graph: line %d: unknown record %q", lineNo, line[start:end])
		}
		line = line[start:]
		f.scan(line)
		if kind == 'p' {
			if sawProb {
				return fmt.Errorf("graph: line %d: duplicate problem line", lineNo)
			}
			if f.n != 3 || f.more || string(f.bytes(line, 0)) != "mcm" {
				return fmt.Errorf("graph: line %d: want %q, got %q", lineNo, "p mcm <n> <m>", trimRightSep(line))
			}
			if !f.ok[1] {
				return fmt.Errorf("graph: line %d: bad node count: %v", lineNo, atoiErr(f.bytes(line, 1)))
			}
			if !f.ok[2] {
				return fmt.Errorf("graph: line %d: bad arc count: %v", lineNo, atoiErr(f.bytes(line, 2)))
			}
			hn, hm := f.val[1], f.val[2]
			if hn < 0 || hm < 0 {
				return fmt.Errorf("graph: line %d: negative size", lineNo)
			}
			if hn > maxReadDim || hm > maxReadDim {
				return fmt.Errorf("graph: line %d: size %dx%d exceeds limit %d", lineNo, hn, hm, maxReadDim)
			}
			n, m = int(hn), int(hm)
			sawProb = true
			if !onHeader(n, m) {
				return nil
			}
			continue
		}
		if !sawProb {
			return fmt.Errorf("graph: line %d: arc before problem line", lineNo)
		}
		if f.n < 3 || f.more {
			return fmt.Errorf("graph: line %d: want %q, got %q", lineNo, "a <from> <to> <weight> [transit]", trimRightSep(line))
		}
		switch {
		case !f.ok[0]:
			return fmt.Errorf("graph: line %d: bad from node: %v", lineNo, atoiErr(f.bytes(line, 0)))
		case !f.ok[1]:
			return fmt.Errorf("graph: line %d: bad to node: %v", lineNo, atoiErr(f.bytes(line, 1)))
		case !f.ok[2]:
			return fmt.Errorf("graph: line %d: bad weight: %v", lineNo, parseIntErr(f.bytes(line, 2)))
		case f.n == 4 && !f.ok[3]:
			return fmt.Errorf("graph: line %d: bad transit: %v", lineNo, parseIntErr(f.bytes(line, 3)))
		}
		u, v, t := f.val[0], f.val[1], int64(1)
		if f.n == 4 {
			t = f.val[3]
		}
		if u < 1 || u > int64(n) || v < 1 || v > int64(n) {
			return fmt.Errorf("graph: line %d: node out of range [1,%d]", lineNo, n)
		}
		if arcSeen == m {
			return fmt.Errorf("graph: line %d: more arcs than the %d promised by the problem line", lineNo, m)
		}
		a := Arc{From: NodeID(u - 1), To: NodeID(v - 1), Weight: f.val[2], Transit: t}
		id := ArcID(arcSeen)
		arcSeen++
		if yield == nil || !yield(id, a) {
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if !sawProb {
		return fmt.Errorf("graph: missing problem line")
	}
	if arcSeen != m {
		return fmt.Errorf("graph: problem line promises %d arcs, found %d", m, arcSeen)
	}
	return nil
}

// fields holds the fields that follow a record letter, up to the four an
// arc line may have. Each field is located and parsed as a base-10 int64 in
// the same byte pass, with strconv's syntax: an optional sign, then one or
// more digits.
type fields struct {
	start, end [4]int
	val        [4]int64
	ok         [4]bool // val is the field's value; false for any field strconv rejects
	n          int     // fields found
	more       bool    // a fifth field follows
}

// scan reads the fields of line after its one-byte record letter.
func (f *fields) scan(line []byte) {
	f.n, f.more = 0, false
	i := 1
	for {
		for i < len(line) && isSep(line[i]) {
			i++
		}
		if i == len(line) {
			return
		}
		k := f.n
		if k == len(f.val) {
			f.more = true
			return
		}
		start := i
		neg := line[i] == '-'
		if neg || line[i] == '+' {
			i++
		}
		digits := i
		var u uint64
		for i < len(line) {
			d := line[i] - '0'
			if d > 9 {
				break
			}
			u = u*10 + uint64(d)
			i++
		}
		ok := i > digits
		if i < len(line) && !isSep(line[i]) {
			ok = false
			for i < len(line) && !isSep(line[i]) {
				i++
			}
		}
		v := int64(u)
		if neg {
			v = -v
		}
		if ok && i-digits > 18 {
			// Up to 18 digits cannot overflow u; strconv reads a longer
			// run exactly.
			var err error
			v, err = strconv.ParseInt(string(line[start:i]), 10, 64)
			ok = err == nil
		}
		f.start[k], f.end[k], f.val[k], f.ok[k] = start, i, v, ok
		f.n = k + 1
	}
}

// bytes returns field k of line.
func (f *fields) bytes(line []byte, k int) []byte { return line[f.start[k]:f.end[k]] }

// isSep matches the six ASCII field separators of the text format: space,
// \t, \n, \v, \f and \r. Any other byte, a Unicode space included, belongs
// to a field and fails its numeric parse with a line-numbered error.
func isSep(c byte) bool { return c == ' ' || c-'\t' <= '\r'-'\t' }

// trimRightSep returns line without its trailing separators.
func trimRightSep(line []byte) []byte {
	for len(line) > 0 && isSep(line[len(line)-1]) {
		line = line[:len(line)-1]
	}
	return line
}

// atoiErr and parseIntErr return strconv's error for a field the one-pass
// parse rejected, so node, count, weight and transit diagnostics keep
// strconv's wording and function name. They run only on the error path.
func atoiErr(b []byte) error {
	_, err := strconv.Atoi(string(b))
	return err
}

func parseIntErr(b []byte) error {
	_, err := strconv.ParseInt(string(b), 10, 64)
	return err
}

// WriteDOT emits g in Graphviz DOT syntax. highlight, if non-nil, is a set
// of arc IDs (e.g. a critical cycle) drawn in bold red.
func WriteDOT(w io.Writer, g *Graph, name string, highlight map[ArcID]bool) error {
	bw := bufio.NewWriter(w)
	if name == "" {
		name = "G"
	}
	fmt.Fprintf(bw, "digraph %s {\n", sanitizeDOTName(name))
	fmt.Fprintf(bw, "  rankdir=LR;\n  node [shape=circle];\n")
	for id := ArcID(0); int(id) < g.NumArcs(); id++ {
		a := g.Arc(id)
		label := strconv.FormatInt(a.Weight, 10)
		if a.Transit != 1 {
			label += "/" + strconv.FormatInt(a.Transit, 10)
		}
		attrs := fmt.Sprintf("label=%q", label)
		if highlight != nil && highlight[id] {
			attrs += ", color=red, penwidth=2.0"
		}
		fmt.Fprintf(bw, "  n%d -> n%d [%s];\n", a.From, a.To, attrs)
	}
	fmt.Fprintf(bw, "}\n")
	return bw.Flush()
}

func sanitizeDOTName(s string) string {
	var b strings.Builder
	for _, r := range s {
		if r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9') {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "G"
	}
	return b.String()
}

// Stats summarizes structural properties of a graph; used by the benchmark
// harness's table headers and by cmd/mcmgen -describe.
type Stats struct {
	Nodes, Arcs   int
	MinOutDegree  int
	MaxOutDegree  int
	SelfLoops     int
	ParallelPairs int // arcs sharing (from,to) with an earlier arc
	MinWeight     int64
	MaxWeight     int64
	SCCs          int
	LargestSCC    int
}

// Summarize computes Stats for g.
func Summarize(g *Graph) Stats {
	st := Stats{Nodes: g.NumNodes(), Arcs: g.NumArcs()}
	st.MinWeight, st.MaxWeight = g.WeightRange()
	if st.Nodes > 0 {
		st.MinOutDegree = g.OutDegree(0)
	}
	seen := make(map[[2]NodeID]bool, g.NumArcs())
	for v := NodeID(0); int(v) < st.Nodes; v++ {
		d := g.OutDegree(v)
		if d < st.MinOutDegree {
			st.MinOutDegree = d
		}
		if d > st.MaxOutDegree {
			st.MaxOutDegree = d
		}
	}
	for _, a := range g.Arcs() {
		if a.From == a.To {
			st.SelfLoops++
		}
		key := [2]NodeID{a.From, a.To}
		if seen[key] {
			st.ParallelPairs++
		}
		seen[key] = true
	}
	scc := StronglyConnectedComponents(g)
	st.SCCs = scc.Count
	for _, members := range scc.Members {
		if len(members) > st.LargestSCC {
			st.LargestSCC = len(members)
		}
	}
	return st
}

// String renders the stats on one line.
func (s Stats) String() string {
	return fmt.Sprintf("n=%d m=%d outdeg=[%d,%d] selfloops=%d parallel=%d w=[%d,%d] sccs=%d largest=%d",
		s.Nodes, s.Arcs, s.MinOutDegree, s.MaxOutDegree, s.SelfLoops, s.ParallelPairs,
		s.MinWeight, s.MaxWeight, s.SCCs, s.LargestSCC)
}

// SortedArcIDs returns all arc IDs ordered by (From, To, Weight); useful for
// deterministic test output over multigraphs.
func SortedArcIDs(g *Graph) []ArcID {
	ids := make([]ArcID, g.NumArcs())
	for i := range ids {
		ids[i] = ArcID(i)
	}
	sort.Slice(ids, func(i, j int) bool {
		a, b := g.Arc(ids[i]), g.Arc(ids[j])
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Weight < b.Weight
	})
	return ids
}
