package ratio_test

// External test package: the enrollment harness (internal/testutil) imports
// ratio, so internal test files cannot use it. Every new ratio engine adds
// its one-line Enroll here — the checklist item ALGORITHMS.md requires.

import (
	"testing"

	"repro/internal/testutil"
)

func TestEnrollBHK(t *testing.T) { testutil.Enroll(t, "bhk") }

// TestEnrollSternBrocot keeps the PR 9 engine under the shared harness — the
// corpus here supersedes the hand-copied sternBrocotCorpus it enrolled with.
func TestEnrollSternBrocot(t *testing.T) { testutil.Enroll(t, "sternbrocot") }

// TestEnrollKO and TestEnrollYTO run the parametric engines through both
// front ends: Enroll resolves each name in the core and the ratio registry,
// so the mean and the ratio form each meet the option matrix, brute force
// and the ±(2³¹−1) suites, NearLimitRatioGraphs among them.
func TestEnrollKO(t *testing.T) { testutil.Enroll(t, "ko") }

func TestEnrollYTO(t *testing.T) { testutil.Enroll(t, "yto") }
