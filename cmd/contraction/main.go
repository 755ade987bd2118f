// Command contraction runs an asymptotic consensus algorithm against a
// pattern source — the greedy lower-bound adversary, a random scheduler,
// or a round-robin — and reports the per-round value diameters, the
// certified valency-diameter floor, and the fitted contraction rate next
// to the model's proven lower bound.
//
// It is a thin shell over the public consensus facade: one streaming
// session with the valency floor enabled.
//
// Usage:
//
//	contraction -model twoagent -alg twothirds -inputs 0,1 -rounds 8
//	contraction -model deaf:3 -alg midpoint -adversary greedy -depth 3
//	contraction -model psi:5 -alg amortized -adversary random -rounds 30
//	contraction -model deaf:8 -alg midpoint -adversary cycle
//
// Runs step on the flat struct-of-arrays kernel whenever the algorithm has
// a dense form and the scheduler ignores the configuration, and on the
// interface-based Agent path otherwise (always under REPRO_BACKEND=agents,
// the test lanes' reference switch); results are bit-identical.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/consensus"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "contraction:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("contraction", flag.ContinueOnError)
	fs.SetOutput(out)
	modelSpec := fs.String("model", "twoagent", "model spec (see the consensus Models registry)")
	algSpec := fs.String("alg", "midpoint", "algorithm spec")
	advKind := fs.String("adversary", "greedy", "pattern source: greedy | random | cycle | ...")
	inputsStr := fs.String("inputs", "", "comma-separated initial values (default: 0,1,0.5,...)")
	rounds := fs.Int("rounds", 8, "number of rounds")
	depth := fs.Int("depth", 3, "valency exploration depth for the greedy adversary")
	seed := fs.Int64("seed", 1, "seed for the random scheduler")
	if err := fs.Parse(args); err != nil {
		return err
	}

	opts := []consensus.Option{
		consensus.WithModel(*modelSpec),
		consensus.WithAlgorithm(*algSpec),
		consensus.WithAdversary(*advKind),
		consensus.WithRounds(*rounds),
		consensus.WithDepth(*depth),
		consensus.WithSeed(*seed),
		consensus.WithValencyFloor(),
	}
	if *inputsStr != "" {
		inputs, err := consensus.ParseFloats(*inputsStr)
		if err != nil {
			return err
		}
		opts = append(opts, consensus.WithInputs(inputs...))
	}
	session, err := consensus.New(opts...)
	if err != nil {
		return err
	}

	_, n, graphs, _ := session.ModelInfo()
	rate, theorem, _, _ := session.ContractionBound()
	fmt.Fprintf(out, "model %s (n=%d, %d graphs), algorithm %s, adversary %s\n",
		*modelSpec, n, graphs, session.Algorithm(), *advKind)
	fmt.Fprintf(out, "proven contraction lower bound: %.6g via %s\n\n", rate, theorem)

	fmt.Fprintf(out, "%5s  %-28s  %12s  %12s\n", "round", "graph", "Δ(y)", "δ-floor")
	printRound := func(round int, name string, diam, floor float64) {
		if name == "" {
			name = "-"
		}
		if len(name) > 28 {
			name = name[:25] + "..."
		}
		fmt.Fprintf(out, "%5d  %-28s  %12.6g  %12.6g\n", round, name, diam, floor)
	}

	// One streaming pass: the per-round table and the fitted contraction
	// come from the same race.
	var diameters []float64
	for snap, err := range session.Rounds(context.Background()) {
		if err != nil {
			return err
		}
		printRound(snap.Round, snap.Graph, snap.Diameter, snap.Floor)
		diameters = append(diameters, snap.Diameter)
	}

	fmt.Fprintf(out, "\nfitted per-round value contraction: %.6g (worst single round %.6g)\n",
		consensus.GeometricRate(diameters), consensus.WorstRoundRatio(diameters))
	return nil
}
