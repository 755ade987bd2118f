package valency_test

import (
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/valency"
)

// settleCases are model/algorithm/configuration triples covering dense
// settle loops with and without auxiliary planes, plus the non-dense
// fallback (opaque agents built by hand are exercised elsewhere).
func settleCases() []struct {
	name   string
	m      *model.Model
	alg    core.Algorithm
	inputs []float64
	convex bool
} {
	return []struct {
		name   string
		m      *model.Model
		alg    core.Algorithm
		inputs []float64
		convex bool
	}{
		{"twoagent/twothirds", model.TwoAgent(), algorithms.TwoThirds{}, []float64{0, 1}, true},
		{"deafK3/midpoint", model.DeafModel(graph.Complete(3)), algorithms.Midpoint{}, []float64{0, 1, 0.5}, true},
		{"deafK3/amortized", model.DeafModel(graph.Complete(3)), algorithms.AmortizedMidpoint{}, []float64{0, 1, 0.5}, true},
	}
}

// TestEngineDenseSettleMatchesAgents runs the full valency exploration
// on both execution paths and requires bit-identical intervals: the dense
// settle loop must be transparent, including its transposition-table
// pre-fill (same entries from the shared fingerprint encoding).
func TestEngineDenseSettleMatchesAgents(t *testing.T) {
	prev := core.ForceAgents(true)
	defer core.ForceAgents(prev)
	for _, tc := range settleCases() {
		t.Run(tc.name, func(t *testing.T) {
			c := core.NewConfig(tc.alg, tc.inputs)
			for _, depth := range []int{0, 1, 2} {
				core.ForceAgents(true)
				engA := valency.NewEngine(tc.m, valency.DefaultParams(depth, tc.convex))
				innerA := engA.Inner(c)
				outerA := engA.Outer(c)

				core.ForceAgents(false)
				engD := valency.NewEngine(tc.m, valency.DefaultParams(depth, tc.convex))
				innerD := engD.Inner(c)
				outerD := engD.Outer(c)

				if innerA != innerD {
					t.Fatalf("depth %d: Inner differs: agents %v, dense %v", depth, innerA, innerD)
				}
				if outerA != outerD {
					t.Fatalf("depth %d: Outer differs: agents %v, dense %v", depth, outerA, outerD)
				}
				statsA, statsD := engA.Stats(), engD.Stats()
				if statsA.LimitEntries != statsD.LimitEntries {
					t.Fatalf("depth %d: limit-table pre-fill differs: agents %d entries, dense %d",
						depth, statsA.LimitEntries, statsD.LimitEntries)
				}
			}
		})
	}
}

// TestEngineDenseSettleMatchesReference pins the dense-settling engine
// against the retained naive recursion — the end-to-end oracle.
func TestEngineDenseSettleMatchesReference(t *testing.T) {
	prev := core.ForceAgents(false)
	defer core.ForceAgents(prev)
	for _, tc := range settleCases() {
		t.Run(tc.name, func(t *testing.T) {
			c := core.NewConfig(tc.alg, tc.inputs)
			est := valency.NewEstimator(tc.m, 2, tc.convex)
			if got, want := est.Inner(c), est.ReferenceInner(c); got != want {
				t.Fatalf("dense engine Inner %v differs from naive reference %v", got, want)
			}
		})
	}
}

// TestLimitOfConstantDenseParity compares memoized constant-graph limits
// across execution paths graph by graph, including the cold (uncached) path.
func TestLimitOfConstantDenseParity(t *testing.T) {
	prev := core.ForceAgents(true)
	defer core.ForceAgents(prev)
	for _, tc := range settleCases() {
		t.Run(tc.name, func(t *testing.T) {
			c := core.NewConfig(tc.alg, tc.inputs)
			for k := 0; k < tc.m.Size(); k++ {
				core.ForceAgents(true)
				limA, okA := valency.NewEngine(tc.m, valency.DefaultParams(2, tc.convex)).LimitOfConstant(c, k)
				core.ForceAgents(false)
				limD, okD := valency.NewEngine(tc.m, valency.DefaultParams(2, tc.convex)).LimitOfConstant(c, k)
				if okA != okD || limA != limD {
					t.Fatalf("graph %d: limit differs: agents (%v,%v), dense (%v,%v)", k, limA, okA, limD, okD)
				}
			}
		})
	}
}
