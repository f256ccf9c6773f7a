package prep

// CheckExpansion lets the external test package check a kernel's expansion
// map with the same invariants the internal tests use.
var CheckExpansion = checkExpansion
