package ratio

import "repro/internal/core"

// ko and yto are the Karp–Orlin and Young–Tarjan–Orlin parametric
// shortest-path algorithms in ratio form: core's one KO and one YTO run
// through core.KORatio and core.YTORatio, with each arc's transit in place
// of 1. A tree path's distance in G_λ is a(v) − λ·b(v), with a the path
// weight and b the path transit, and a non-tree arc (u, v) becomes tight at
// λ = (a(u)+w−a(v)) / (b(u)+t−b(v)); a pivot that closes a cycle terminates
// with ρ* equal to the breakpoint (exact rational). This is the direction
// the paper notes is always available ("it is also possible to solve MCRP
// using an algorithm for MCMP" and vice versa [Gondran & Minoux]); here the
// parametric algorithms solve MCRP natively (docs/ALGORITHMS.md, "ko /
// yto").
func init() {
	register("ko", func() Algorithm { return coreAlg{"ko", core.KORatio} })
	register("yto", func() Algorithm { return coreAlg{"yto", core.YTORatio} })
}
