package vector_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/vector"
)

// TestRunnerBackendParity runs the d-dimensional lift on both execution
// paths on the same pattern and requires bit-identical positions coordinate by
// coordinate, for algorithms with and without auxiliary planes.
func TestRunnerBackendParity(t *testing.T) {
	prev := core.ForceAgents(false)
	defer core.ForceAgents(prev)
	rng := rand.New(rand.NewSource(21))
	const n, dim, rounds = 6, 3, 25
	inputs := make([]vector.Point, n)
	for i := range inputs {
		p := make(vector.Point, dim)
		for c := range p {
			p[c] = rng.Float64()*2 - 1
		}
		inputs[i] = p
	}
	m := model.DeafModel(graph.Complete(n))
	for _, alg := range []core.Algorithm{algorithms.Midpoint{}, algorithms.AmortizedMidpoint{}} {
		t.Run(alg.Name(), func(t *testing.T) {
			core.ForceAgents(true)
			agents, err := vector.NewRunner(alg, inputs)
			if err != nil {
				t.Fatal(err)
			}
			core.ForceAgents(false)
			dense, err := vector.NewRunner(alg, inputs)
			if err != nil {
				t.Fatal(err)
			}
			mk := func() core.PatternSource {
				return core.RandomFromModel{Model: m, Rng: rand.New(rand.NewSource(4))}
			}
			agents.Run(mk(), rounds)
			dense.Run(mk(), rounds)
			if agents.Round() != rounds || dense.Round() != rounds {
				t.Fatalf("round counters differ: agents %d, dense %d", agents.Round(), dense.Round())
			}
			pa, pd := agents.Positions(), dense.Positions()
			for i := range pa {
				for c := range pa[i] {
					if math.Float64bits(pa[i][c]) != math.Float64bits(pd[i][c]) {
						t.Fatalf("agent %d coord %d: %v != %v", i, c, pa[i][c], pd[i][c])
					}
				}
			}
			if da, dd := agents.Diameter(), dense.Diameter(); math.Float64bits(da) != math.Float64bits(dd) {
				t.Fatalf("diameters differ: %v != %v", da, dd)
			}
		})
	}
}

// TestRunnerDenseAdaptiveSource checks that a configuration-inspecting
// source still works on the dense path: it receives a materialized
// configuration, never nil, and the run matches the Agent path.
func TestRunnerDenseAdaptiveSource(t *testing.T) {
	prev := core.ForceAgents(false)
	defer core.ForceAgents(prev)
	inputs := []vector.Point{{0, 1}, {1, 0}, {0.5, 0.5}}
	adaptive := func() core.PatternSource {
		return core.Func(func(round int, c *core.Config) graph.Graph {
			if c == nil {
				t.Fatal("dense runner handed a nil configuration to an adaptive source")
			}
			if c.Output(0) < c.Output(1) {
				return graph.Complete(3)
			}
			return graph.Cycle(3)
		})
	}
	core.ForceAgents(true)
	agents, err := vector.NewRunner(algorithms.Midpoint{}, inputs)
	if err != nil {
		t.Fatal(err)
	}
	core.ForceAgents(false)
	dense, err := vector.NewRunner(algorithms.Midpoint{}, inputs)
	if err != nil {
		t.Fatal(err)
	}
	agents.Run(adaptive(), 10)
	dense.Run(adaptive(), 10)
	pa, pd := agents.Positions(), dense.Positions()
	for i := range pa {
		for c := range pa[i] {
			if math.Float64bits(pa[i][c]) != math.Float64bits(pd[i][c]) {
				t.Fatalf("agent %d coord %d: %v != %v", i, c, pa[i][c], pd[i][c])
			}
		}
	}
}
