package prep

// CheckExpansion lets the external test package check a kernel's expansion
// map with the same invariants the internal tests use.
var CheckExpansion = checkExpansion

// ReferenceKernelize and KernelDiff let the external test package compare
// kernels with the reference contraction.
var (
	ReferenceKernelize = referenceKernelize
	KernelDiff         = kernelDiff
)
