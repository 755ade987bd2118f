package approx_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/model"
)

// TestDecidingDenseMatchesAgents pins the dense deciding wrapper against
// the agent wrapper: trace outputs, decision values, and the full
// approximate-consensus check must agree bit for bit, including across
// the decision round.
func TestDecidingDenseMatchesAgents(t *testing.T) {
	prev := core.ForceAgents(false)
	defer core.ForceAgents(prev)
	inputs := []float64{0, 1, 0.5, 0.25, 0.75}
	m := model.DeafModel(graph.Complete(5))
	for _, decideAt := range []int{0, 1, 3, 10} {
		alg := approx.DecidingAlgorithm{Inner: algorithms.Midpoint{}, DecisionRound: decideAt}
		if _, ok := core.AsDense(alg); !ok {
			t.Fatal("deciding wrapper around a dense algorithm is not dense-capable")
		}
		mk := func() core.PatternSource {
			return core.RandomFromModel{Model: m, Rng: rand.New(rand.NewSource(3))}
		}
		core.ForceAgents(true)
		agents := core.Run(alg, inputs, mk(), 15)
		core.ForceAgents(false)
		dense := core.Run(alg, inputs, mk(), 15)
		for round := range agents.Outputs {
			for i := range agents.Outputs[round] {
				a, d := agents.Outputs[round][i], dense.Outputs[round][i]
				if math.Float64bits(a) != math.Float64bits(d) {
					t.Fatalf("decideAt %d round %d agent %d: %v != %v", decideAt, round, i, a, d)
				}
			}
		}
		// The materialized final configuration must carry the decision state:
		// Decisions and CheckRun see no difference between the paths.
		av, aok := approx.Decisions(agents.Final)
		dv, dok := approx.Decisions(dense.Final)
		for i := range av {
			if aok[i] != dok[i] || math.Float64bits(av[i]) != math.Float64bits(dv[i]) {
				t.Fatalf("decideAt %d agent %d: decision state differs (%v/%v vs %v/%v)",
					decideAt, i, av[i], aok[i], dv[i], dok[i])
			}
		}
		if errA, errD := approx.CheckRun(agents, 1.0), approx.CheckRun(dense, 1.0); (errA == nil) != (errD == nil) {
			t.Fatalf("decideAt %d: CheckRun verdicts differ: %v vs %v", decideAt, errA, errD)
		}
	}
}

// TestDecidingDenseUnavailableForOpaqueInner checks the capability
// plumbing: wrapping a non-dense inner algorithm yields no dense view and
// Run silently stays on the Agent path.
func TestDecidingDenseUnavailableForOpaqueInner(t *testing.T) {
	prev := core.ForceAgents(false)
	defer core.ForceAgents(prev)
	opaque := opaqueAlgorithm{algorithms.Midpoint{}}
	alg := approx.DecidingAlgorithm{Inner: opaque, DecisionRound: 2}
	if _, ok := core.AsDense(alg); ok {
		t.Fatal("deciding wrapper claims dense support for an opaque inner algorithm")
	}
	tr := core.Run(alg, []float64{0, 1}, core.Fixed{G: graph.Complete(2)}, 4)
	if err := approx.CheckRun(tr, 1.0); err != nil {
		t.Fatalf("agent-path fallback broke the deciding run: %v", err)
	}
}

// opaqueAlgorithm hides the dense capability of the algorithm it wraps
// (no embedding: promoted methods would re-expose the capability).
type opaqueAlgorithm struct{ inner algorithms.Midpoint }

func (opaqueAlgorithm) Name() string { return "opaque-midpoint" }

func (o opaqueAlgorithm) Convex() bool { return o.inner.Convex() }

func (o opaqueAlgorithm) NewAgent(id, n int, initial float64) core.Agent {
	return o.inner.NewAgent(id, n, initial)
}
