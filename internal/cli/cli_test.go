package cli

import (
	"testing"

	"repro/internal/core"
)

// TestParseEngine pins the engine names the -engine flags and the
// daemon's engine= parameter accept: the branch and bound and its
// anytime mode. The retired annealing and literal-MILP engines are
// unknown names.
func TestParseEngine(t *testing.T) {
	for name, want := range map[string]core.Engine{
		"":          core.EngineBranchBound,
		"bb":        core.EngineBranchBound,
		"portfolio": core.EnginePortfolio,
	} {
		if got, err := ParseEngine(name); err != nil || got != want {
			t.Errorf("ParseEngine(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, name := range []string{"anneal", "milp", "quantum"} {
		if got, err := ParseEngine(name); err == nil {
			t.Errorf("ParseEngine(%q) = %v, want an error", name, got)
		}
	}
}
