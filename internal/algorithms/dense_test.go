package algorithms_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graph"
)

// denseCase pairs an algorithm with a system size and seeded inputs.
type denseCase struct {
	alg    core.Algorithm
	n      int
	inputs []float64
}

// drawInputs draws n inputs uniformly from [-1, 1).
func drawInputs(rng *rand.Rand, n int) []float64 {
	in := make([]float64, n)
	for i := range in {
		in[i] = rng.Float64()*2 - 1
	}
	return in
}

// denseCases returns every algorithm of the package paired with a system
// size and seeded inputs, covering all dense steppers.
func denseCases(rng *rand.Rand) []denseCase {
	randomInputs := func(n int) []float64 { return drawInputs(rng, n) }
	g7 := graph.Random(rng, 7, 0.4)
	return []denseCase{
		{algorithms.Midpoint{}, 6, randomInputs(6)},
		{algorithms.TwoThirds{}, 2, []float64{0, 1}},
		{algorithms.Mean{}, 5, randomInputs(5)},
		{algorithms.SelfWeighted{Alpha: 0.25}, 5, randomInputs(5)},
		{algorithms.AmortizedMidpoint{}, 6, randomInputs(6)},
		{algorithms.QuantizedMidpoint{Q: 0.125}, 5, randomInputs(5)},
		{algorithms.FloodRoot{Root: 2}, 6, randomInputs(6)},
		{algorithms.FlowSumFor(g7), 7, randomInputs(7)},
	}
}

// wordBoundarySizes straddle the 64-agent mask-word boundary: one word
// with its top bit clear, exactly one full word, one agent into the
// second word, and a three-word row.
var wordBoundarySizes = []int{63, 64, 65, 130}

// wordBoundaryCases pairs every algorithm defined beyond n = 2 with each
// of wordBoundarySizes, so one-word, full-word and multi-word rows are
// all pinned for every stepper. FloodRoot's root is the last agent,
// which sits in the last row word.
func wordBoundaryCases(rng *rand.Rand) []denseCase {
	var cases []denseCase
	for _, n := range wordBoundarySizes {
		for _, alg := range []core.Algorithm{
			algorithms.Midpoint{},
			algorithms.Mean{},
			algorithms.SelfWeighted{Alpha: 0.25},
			algorithms.AmortizedMidpoint{},
			algorithms.QuantizedMidpoint{Q: 0.125},
			algorithms.FloodRoot{Root: n - 1},
			algorithms.FlowSumFor(graph.Random(rng, n, 0.4)),
		} {
			cases = append(cases, denseCase{alg, n, drawInputs(rng, n)})
		}
	}
	return cases
}

// TestDenseMatchesAgentsRandomized is the tentpole's differential gate at
// the algorithms layer: on randomized graph sequences, the dense backend
// must reproduce the Agent path bit for bit — every agent's output after
// every round, and the full hidden state via the fingerprint encodings.
func TestDenseMatchesAgentsRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, tc := range denseCases(rng) {
		t.Run(tc.alg.Name(), func(t *testing.T) {
			denseAgentsParity(t, tc, rng, 20, 24)
		})
	}
	brng := rand.New(rand.NewSource(4242))
	for _, tc := range wordBoundaryCases(brng) {
		t.Run(fmt.Sprintf("%s/n=%d", tc.alg.Name(), tc.n), func(t *testing.T) {
			denseAgentsParity(t, tc, brng, 4, 12)
		})
	}
}

// denseAgentsParity runs trials of up to maxRounds random graphs each
// through the Agent path and the dense backend, comparing every output
// and the full state fingerprint after every round.
func denseAgentsParity(t *testing.T, tc denseCase, rng *rand.Rand, trials, maxRounds int) {
	t.Helper()
	d, ok := core.AsDense(tc.alg)
	if !ok {
		t.Fatalf("%s does not implement the dense backend", tc.alg.Name())
	}
	for trial := 0; trial < trials; trial++ {
		c := core.NewConfig(tc.alg, tc.inputs)
		r := core.NewDenseRunner(d, tc.inputs)
		rounds := 1 + rng.Intn(maxRounds)
		for round := 1; round <= rounds; round++ {
			g := graph.Random(rng, tc.n, 0.15+0.7*rng.Float64())
			c = c.Step(g)
			r.Step(g)
			for i := 0; i < tc.n; i++ {
				want, got := c.Output(i), r.Output(i)
				if math.Float64bits(want) != math.Float64bits(got) {
					t.Fatalf("trial %d round %d agent %d: dense output %v != agent output %v",
						trial, round, i, got, want)
				}
			}
			assertSameFingerprint(t, c, d, r.State(),
				fmt.Sprintf("trial %d round %d", trial, round))
		}
	}
}

// assertSameFingerprint compares the full hidden state of the two
// backends via the canonical fingerprints (when the algorithm supports
// them).
func assertSameFingerprint(t *testing.T, c *core.Config, d core.DenseAlgorithm, st *core.DenseState, ctx string) {
	t.Helper()
	agentFP, okA := c.AppendFingerprint(nil)
	denseFP, okD := core.AppendDenseFingerprint(d, st, nil)
	if okA != okD {
		t.Fatalf("%s: fingerprint support differs: agents %v, dense %v", ctx, okA, okD)
	}
	if okA && !bytes.Equal(agentFP, denseFP) {
		t.Fatalf("%s: dense fingerprint differs from agent fingerprint\nagents: %x\ndense:  %x",
			ctx, agentFP, denseFP)
	}
}

// TestDenseBridgeRoundTrip drives the agent path for a prefix, bridges
// the configuration into dense state mid-run, continues both backends,
// and checks the dense continuation and its re-materialized configuration
// stay bit-identical to the pure agent run.
func TestDenseBridgeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range denseCases(rng) {
		t.Run(tc.alg.Name(), func(t *testing.T) {
			c := core.NewConfig(tc.alg, tc.inputs)
			prefix := make([]graph.Graph, 4)
			for i := range prefix {
				prefix[i] = graph.Random(rng, tc.n, 0.5)
				c = c.Step(prefix[i])
			}
			r, ok := core.DenseRunnerFromConfig(c)
			if !ok {
				t.Fatalf("%s: configuration did not bridge into dense state", tc.alg.Name())
			}
			if r.Round() != c.Round() {
				t.Fatalf("bridge lost the round counter: %d != %d", r.Round(), c.Round())
			}
			for round := 0; round < 12; round++ {
				g := graph.Random(rng, tc.n, 0.5)
				c = c.Step(g)
				r.Step(g)
			}
			mat := r.Config()
			for i := 0; i < tc.n; i++ {
				if math.Float64bits(c.Output(i)) != math.Float64bits(r.Output(i)) {
					t.Fatalf("agent %d: dense continuation diverged", i)
				}
				if math.Float64bits(mat.Output(i)) != math.Float64bits(c.Output(i)) {
					t.Fatalf("agent %d: materialized configuration diverged", i)
				}
			}
			d, _ := core.AsDense(tc.alg)
			assertSameFingerprint(t, c, d, r.State(), "post-continuation")
			if fpA, okA := c.AppendFingerprint(nil); okA {
				fpM, okM := mat.AppendFingerprint(nil)
				if !okM || !bytes.Equal(fpA, fpM) {
					t.Fatal("materialized configuration fingerprint differs from the agent run")
				}
			}
		})
	}
}

// TestDenseForkIndependence checks the dense fork semantics the valency
// machinery relies on: a fork is an independent copy and the parent's
// subsequent steps do not leak into it (and vice versa).
func TestDenseForkIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	inputs := []float64{0, 1, 0.25, 0.75, 0.5, -0.5}
	d, _ := core.AsDense(algorithms.AmortizedMidpoint{})
	r := core.NewDenseRunner(d, inputs)
	g1 := graph.Random(rng, 6, 0.5)
	g2 := graph.Random(rng, 6, 0.5)
	r.Step(g1)
	fork := r.Fork()
	// Diverge the parent; the fork must be unaffected.
	r.Step(g2)
	want := core.NewConfig(algorithms.AmortizedMidpoint{}, inputs).Step(g1)
	for i := 0; i < 6; i++ {
		if math.Float64bits(fork.Output(i)) != math.Float64bits(want.Output(i)) {
			t.Fatalf("fork agent %d corrupted by parent step", i)
		}
	}
	// Diverge the fork; the parent's successor must match the reference.
	fork.Step(g1)
	wantParent := want.Step(g2)
	for i := 0; i < 6; i++ {
		if math.Float64bits(r.Output(i)) != math.Float64bits(wantParent.Output(i)) {
			t.Fatalf("parent agent %d corrupted by fork step", i)
		}
	}
}
