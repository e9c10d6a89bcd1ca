package core

// Test helpers shared with the external test package core_test, whose
// tests compare this package against internal/oracle (which imports
// core, so they cannot live in package core).
var (
	MkAnalysis     = mkAnalysis
	RandomAnalysis = randomAnalysis
)
