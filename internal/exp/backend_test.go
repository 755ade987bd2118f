package exp_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
)

// TestExperimentsBackendParity is the tentpole's end-to-end differential
// gate: every registered experiment — every Table 1 cell, figure, and
// decision-time theorem — must render the exact same table under the
// Agent path and on the dense struct-of-arrays kernel.
func TestExperimentsBackendParity(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are integration-scale; skipped with -short")
	}
	prev := core.ForceAgents(true)
	defer core.ForceAgents(prev)
	for _, e := range exp.All() {
		e := e
		t.Run(strings.ReplaceAll(e.ID, "/", "_"), func(t *testing.T) {
			core.ForceAgents(true)
			agents := e.Run().Render()
			core.ForceAgents(false)
			dense := e.Run().Render()
			if agents != dense {
				t.Fatalf("experiment %s renders differently across execution paths\n--- agents ---\n%s\n--- dense ---\n%s",
					e.ID, agents, dense)
			}
		})
	}
}
