package core_test

import (
	"math"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/model"
)

// TestReferenceSwitchEnv starts the test binary with no tests to run
// under each REPRO_BACKEND value: unset, empty and "agents" start, and
// anything else panics at start-up rather than silently running the
// dense path in a lane meant to exercise the reference path.
func TestReferenceSwitchEnv(t *testing.T) {
	for _, tc := range []struct {
		env  string
		okay bool
	}{
		{"", true},
		{"REPRO_BACKEND=", true},
		{"REPRO_BACKEND=agents", true},
		{"REPRO_BACKEND=simd", false},
		{"REPRO_BACKEND=dense", false},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		env := os.Environ()
		for i := len(env) - 1; i >= 0; i-- {
			if strings.HasPrefix(env[i], "REPRO_BACKEND=") {
				env = append(env[:i], env[i+1:]...)
			}
		}
		if tc.env != "" {
			env = append(env, tc.env)
		}
		cmd.Env = env
		out, err := cmd.CombinedOutput()
		if tc.okay && err != nil {
			t.Errorf("%q: start-up failed: %v\n%s", tc.env, err, out)
		}
		if !tc.okay && (err == nil || !strings.Contains(string(out), "invalid REPRO_BACKEND")) {
			t.Errorf("%q: start-up not rejected (err %v)\n%s", tc.env, err, out)
		}
	}
}

func TestForceAgentsRoundTrip(t *testing.T) {
	prev := core.ForceAgents(true)
	defer core.ForceAgents(prev)
	if _, ok := core.DenseFor(algorithms.Midpoint{}, nil); ok {
		t.Fatal("ForceAgents(true) did not take effect")
	}
	if got := core.ForceAgents(false); !got {
		t.Fatalf("ForceAgents returned %v, want true", got)
	}
	if _, ok := core.DenseFor(algorithms.Midpoint{}, nil); !ok {
		t.Fatal("ForceAgents(false) did not take effect")
	}
}

// TestDenseFor pins the one path-selection table: the dense kernel runs
// exactly when the algorithm has a dense form, the source ignores the
// configuration (or the caller picks the graphs itself) and the reference
// switch is off.
func TestDenseFor(t *testing.T) {
	prev := core.ForceAgents(false)
	defer core.ForceAgents(prev)
	adaptive := core.Func(func(int, *core.Config) graph.Graph { return graph.Complete(3) })
	for _, tc := range []struct {
		name  string
		alg   core.Algorithm
		src   core.PatternSource
		force bool
		dense bool
	}{
		{"oblivious", algorithms.Midpoint{}, core.Fixed{G: graph.Complete(3)}, false, true},
		{"adaptive", algorithms.Midpoint{}, adaptive, false, false},
		{"nil-source", algorithms.Midpoint{}, nil, false, true},
		{"reference-switch", algorithms.Midpoint{}, core.Fixed{G: graph.Complete(3)}, true, false},
		{"no-dense-form", struct{ core.Algorithm }{algorithms.Midpoint{}}, core.Fixed{G: graph.Complete(3)}, false, false},
	} {
		core.ForceAgents(tc.force)
		d, ok := core.DenseFor(tc.alg, tc.src)
		if ok != tc.dense || (d != nil) != tc.dense {
			t.Errorf("%s: DenseFor = (%v, %v), want dense %v", tc.name, d, ok, tc.dense)
		}
	}
}

func TestObliviousSources(t *testing.T) {
	m := model.TwoAgent()
	for _, src := range []core.PatternSource{
		core.Fixed{G: graph.Complete(2)},
		core.Cycle{Graphs: m.Graphs()},
		core.Sequence{Graphs: m.Graphs()},
		core.RandomFromModel{Model: m, Rng: rand.New(rand.NewSource(1))},
	} {
		if !core.IsOblivious(src) {
			t.Errorf("%T is not marked oblivious", src)
		}
	}
	adaptive := core.Func(func(round int, c *core.Config) graph.Graph {
		if c.Output(0) > c.Output(1) {
			return graph.Complete(2)
		}
		return graph.New(2)
	})
	if core.IsOblivious(adaptive) {
		t.Error("Func sources must not be oblivious: they may inspect the configuration")
	}
}

// TestRunBackendsBitIdentical pins Run's two execution paths against
// each other on every kind of oblivious source, and checks that an
// adaptive source with the reference switch off safely falls back to the
// Agent path instead of receiving a nil configuration.
func TestRunBackendsBitIdentical(t *testing.T) {
	prev := core.ForceAgents(false)
	defer core.ForceAgents(prev)
	inputs := []float64{0, 1, 0.25, 0.75, 0.5}
	m := model.DeafModel(graph.Complete(5))
	newSources := func() []func() core.PatternSource {
		return []func() core.PatternSource{
			func() core.PatternSource { return core.Fixed{G: graph.Deaf(graph.Complete(5), 0)} },
			func() core.PatternSource { return core.Cycle{Graphs: m.Graphs()} },
			func() core.PatternSource {
				return core.RandomFromModel{Model: m, Rng: rand.New(rand.NewSource(5))}
			},
		}
	}
	for _, mk := range newSources() {
		core.ForceAgents(true)
		agents := core.Run(algorithms.Midpoint{}, inputs, mk(), 40)
		core.ForceAgents(false)
		dense := core.Run(algorithms.Midpoint{}, inputs, mk(), 40)
		assertTracesEqual(t, agents, dense)
	}
	// Adaptive source: both selections must take the Agent path and agree.
	adaptive := func() core.PatternSource {
		return core.Func(func(round int, c *core.Config) graph.Graph {
			if c.Output(0) < c.Output(4) {
				return graph.Deaf(graph.Complete(5), round%5)
			}
			return graph.Complete(5)
		})
	}
	core.ForceAgents(true)
	agents := core.Run(algorithms.Midpoint{}, inputs, adaptive(), 20)
	core.ForceAgents(false)
	dense := core.Run(algorithms.Midpoint{}, inputs, adaptive(), 20)
	assertTracesEqual(t, agents, dense)
}

func assertTracesEqual(t *testing.T, a, b *core.Trace) {
	t.Helper()
	if len(a.Outputs) != len(b.Outputs) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a.Outputs), len(b.Outputs))
	}
	for round := range a.Outputs {
		for i := range a.Outputs[round] {
			x, y := a.Outputs[round][i], b.Outputs[round][i]
			if math.Float64bits(x) != math.Float64bits(y) {
				t.Fatalf("round %d agent %d: %v != %v", round, i, x, y)
			}
		}
	}
	for i := 0; i < a.Final.N(); i++ {
		if math.Float64bits(a.Final.Output(i)) != math.Float64bits(b.Final.Output(i)) {
			t.Fatalf("final output %d differs", i)
		}
	}
	if a.Final.Round() != b.Final.Round() {
		t.Fatalf("final rounds differ: %d vs %d", a.Final.Round(), b.Final.Round())
	}
}

// TestRunConfigBackendContinuation continues a half-run configuration
// on both execution paths and pins the traces against each other.
func TestRunConfigBackendContinuation(t *testing.T) {
	prev := core.ForceAgents(true)
	defer core.ForceAgents(prev)
	inputs := []float64{0, 1, 0.5, 0.25}
	c := core.NewConfig(algorithms.AmortizedMidpoint{}, inputs)
	pool := model.DeafModel(graph.Complete(4)).Graphs()
	for _, g := range pool[:2] {
		c = c.Step(g)
	}
	src := func() core.PatternSource { return core.Cycle{Graphs: pool} }
	agents := core.RunConfig("amid", c, src(), 30)
	core.ForceAgents(false)
	dense := core.RunConfig("amid", c, src(), 30)
	assertTracesEqual(t, agents, dense)
	if got := agents.Final.Round(); got != c.Round()+30 {
		t.Fatalf("final round %d, want %d", got, c.Round()+30)
	}
}

func TestDenseStateShape(t *testing.T) {
	st := &core.DenseState{}
	st.Resize(4, 2)
	if st.N() != 4 || st.Planes() != 2 || len(st.Y) != 4 || len(st.Aux) != 8 {
		t.Fatalf("Resize produced unexpected shape: %+v", st)
	}
	p0, p1 := st.Plane(0), st.Plane(1)
	p0[3] = 7
	p1[0] = 9
	if st.Aux[3] != 7 || st.Aux[4] != 9 {
		t.Fatal("planes are not laid out plane-major")
	}
	var fromZero core.DenseState
	fromZero.CopyFrom(st)
	if fromZero.Plane(1)[0] != 9 {
		t.Fatal("CopyFrom lost plane contents")
	}
	fromZero.Plane(1)[0] = 1
	if st.Plane(1)[0] != 9 {
		t.Fatal("CopyFrom shares storage with its source")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Plane out of range did not panic")
		}
	}()
	st.Plane(2)
}

func TestWriteDenseUnsupported(t *testing.T) {
	// A hand-assembled configuration has no algorithm and must refuse the
	// bridge rather than guess.
	c := core.NewConfig(algorithms.Midpoint{}, []float64{0, 1})
	var st core.DenseState
	if !c.WriteDense(&st) {
		t.Fatal("dense-capable configuration refused WriteDense")
	}
	if st.N() != 2 || st.Round() != 0 {
		t.Fatalf("WriteDense shaped %d agents round %d", st.N(), st.Round())
	}
}
