package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
)

// referenceScanText is the text parser scanText replaced: it trims each
// line, splits it into a [][]byte field list and parses the fields one by
// one. It is the reference the one-pass parser must match exactly — the
// same header, the same arcs yielded in the same order, and the same error
// text and line numbers.
func referenceScanText(r io.Reader, onHeader func(n, m int) bool, yield func(id ArcID, a Arc) bool) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	var (
		n, m    int
		arcSeen int
		sawProb bool
		lineNo  int
		fields  [][]byte
	)
	for sc.Scan() {
		lineNo++
		line := trimSpaceASCII(sc.Bytes())
		if len(line) == 0 || line[0] == 'c' {
			continue
		}
		fields = splitFieldsASCII(fields[:0], line)
		f0 := fields[0]
		switch {
		case len(f0) == 1 && f0[0] == 'p':
			if sawProb {
				return fmt.Errorf("graph: line %d: duplicate problem line", lineNo)
			}
			if len(fields) != 4 || string(fields[1]) != "mcm" {
				return fmt.Errorf("graph: line %d: want %q, got %q", lineNo, "p mcm <n> <m>", line)
			}
			var err error
			if n, err = atoiField(fields[2]); err != nil {
				return fmt.Errorf("graph: line %d: bad node count: %v", lineNo, err)
			}
			if m, err = atoiField(fields[3]); err != nil {
				return fmt.Errorf("graph: line %d: bad arc count: %v", lineNo, err)
			}
			if n < 0 || m < 0 {
				return fmt.Errorf("graph: line %d: negative size", lineNo)
			}
			if n > maxReadDim || m > maxReadDim {
				return fmt.Errorf("graph: line %d: size %dx%d exceeds limit %d", lineNo, n, m, maxReadDim)
			}
			sawProb = true
			if !onHeader(n, m) {
				return nil
			}
		case len(f0) == 1 && f0[0] == 'a':
			if !sawProb {
				return fmt.Errorf("graph: line %d: arc before problem line", lineNo)
			}
			if len(fields) != 4 && len(fields) != 5 {
				return fmt.Errorf("graph: line %d: want %q, got %q", lineNo, "a <from> <to> <weight> [transit]", line)
			}
			u, err := atoiField(fields[1])
			if err != nil {
				return fmt.Errorf("graph: line %d: bad from node: %v", lineNo, err)
			}
			v, err := atoiField(fields[2])
			if err != nil {
				return fmt.Errorf("graph: line %d: bad to node: %v", lineNo, err)
			}
			w, err := int64Field(fields[3])
			if err != nil {
				return fmt.Errorf("graph: line %d: bad weight: %v", lineNo, err)
			}
			t := int64(1)
			if len(fields) == 5 {
				if t, err = int64Field(fields[4]); err != nil {
					return fmt.Errorf("graph: line %d: bad transit: %v", lineNo, err)
				}
			}
			if u < 1 || u > n || v < 1 || v > n {
				return fmt.Errorf("graph: line %d: node out of range [1,%d]", lineNo, n)
			}
			if arcSeen == m {
				return fmt.Errorf("graph: line %d: more arcs than the %d promised by the problem line", lineNo, m)
			}
			a := Arc{From: NodeID(u - 1), To: NodeID(v - 1), Weight: w, Transit: t}
			id := ArcID(arcSeen)
			arcSeen++
			if yield == nil || !yield(id, a) {
				return nil
			}
		default:
			return fmt.Errorf("graph: line %d: unknown record %q", lineNo, f0)
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

// isSpaceASCII matches the whitespace the text format uses as a field
// separator.
func isSpaceASCII(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r'
}

// trimSpaceASCII returns b without leading/trailing ASCII whitespace.
func trimSpaceASCII(b []byte) []byte {
	for len(b) > 0 && isSpaceASCII(b[0]) {
		b = b[1:]
	}
	for len(b) > 0 && isSpaceASCII(b[len(b)-1]) {
		b = b[:len(b)-1]
	}
	return b
}

// splitFieldsASCII appends the whitespace-separated fields of line to dst
// (subslices of line, no copies) and returns it.
func splitFieldsASCII(dst [][]byte, line []byte) [][]byte {
	i := 0
	for i < len(line) {
		for i < len(line) && isSpaceASCII(line[i]) {
			i++
		}
		if i == len(line) {
			break
		}
		start := i
		for i < len(line) && !isSpaceASCII(line[i]) {
			i++
		}
		dst = append(dst, line[start:i])
	}
	return dst
}

// parseIntBytes parses a base-10 signed integer without allocating. ok is
// false on any syntax or range trouble (and, conservatively, for the few
// values within a digit of ±2⁶³); callers then fall back to strconv.
func parseIntBytes(b []byte) (int64, bool) {
	i := 0
	neg := false
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		neg = b[0] == '-'
		i = 1
	}
	if i == len(b) {
		return 0, false
	}
	var v uint64
	for ; i < len(b); i++ {
		c := b[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		if v > (1<<63-9)/10 {
			return 0, false
		}
		v = v*10 + uint64(c-'0')
	}
	if neg {
		if v > 1<<63 {
			return 0, false
		}
		return -int64(v), true
	}
	if v >= 1<<63 {
		return 0, false
	}
	return int64(v), true
}

func atoiField(b []byte) (int, error) {
	if v, ok := parseIntBytes(b); ok {
		return int(v), nil
	}
	return strconv.Atoi(string(b))
}

func int64Field(b []byte) (int64, error) {
	if v, ok := parseIntBytes(b); ok {
		return v, nil
	}
	return strconv.ParseInt(string(b), 10, 64)
}

// referenceWrite is the fmt-based serializer Write replaced; Write's output
// must equal it byte for byte.
func referenceWrite(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "p mcm %d %d\n", g.NumNodes(), g.NumArcs())
	for _, a := range g.Arcs() {
		if a.Transit == 1 {
			fmt.Fprintf(bw, "a %d %d %d\n", a.From+1, a.To+1, a.Weight)
		} else {
			fmt.Fprintf(bw, "a %d %d %d %d\n", a.From+1, a.To+1, a.Weight, a.Transit)
		}
	}
	return bw.Flush()
}
