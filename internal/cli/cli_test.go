package cli

import (
	"testing"

	"repro/internal/core"
)

// TestParseEngine pins the engine names the -engine flags and the
// daemon's engine= parameter accept: the exact engines only.
func TestParseEngine(t *testing.T) {
	for name, want := range map[string]core.Engine{
		"":          core.EngineBranchBound,
		"bb":        core.EngineBranchBound,
		"milp":      core.EngineMILP,
		"portfolio": core.EnginePortfolio,
	} {
		if got, err := ParseEngine(name); err != nil || got != want {
			t.Errorf("ParseEngine(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, name := range []string{"anneal", "quantum"} {
		if got, err := ParseEngine(name); err == nil {
			t.Errorf("ParseEngine(%q) = %v, want an error", name, got)
		}
	}
}
