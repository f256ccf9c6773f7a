package ratio

import "repro/internal/core"

// howard is Howard's policy-iteration algorithm in its original
// cost-to-time ratio form [Cochet-Terrasson et al. 1997]. It runs core's one
// Howard through core.HowardRatio: the iteration the mean solver runs, with
// each arc's transit in place of 1 — multichain value determination with
// exact rational gains, lexicographic improvement, and an exact proof of
// the fixed point (docs/ALGORITHMS.md, "howard").
func init() {
	register("howard", func() Algorithm { return coreAlg{"howard", core.HowardRatio} })
}
