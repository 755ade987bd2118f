package consensus

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"repro/consensus/scenario"
	"repro/internal/core"
)

// TestRecordedGreedyReplayExact is the PR's acceptance differential: a
// greedy-adversary run (adaptive, agent-path) is recorded, and its trace
// replayed through WithScenario must reproduce the original run's
// per-round outputs AND per-round configuration fingerprints exactly —
// on both the Agent path and the dense kernel.
func TestRecordedGreedyReplayExact(t *testing.T) {
	prev := core.ForceAgents(false)
	defer core.ForceAgents(prev)
	const rounds = 8
	ctx := context.Background()
	rec, err := New(WithModel("psi:4"), WithAlgorithm("midpoint"),
		WithAdversary("greedy"), WithRounds(rounds))
	if err != nil {
		t.Fatal(err)
	}
	orig, sch, err := rec.RunRecorded(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sch.PrefixLen() != rounds || !sch.Finite() {
		t.Fatalf("recorded schedule shape prefix=%d loop=%d", sch.PrefixLen(), sch.LoopLen())
	}

	// Reference per-round fingerprints: step an agent configuration
	// through the recorded graphs.
	alg, err := Algorithms.New("midpoint", rec.N())
	if err != nil {
		t.Fatal(err)
	}
	wantFPs := make([][]byte, 0, rounds+1)
	c := core.NewConfig(alg, rec.Inputs())
	fp, ok := c.AppendFingerprint(nil)
	if !ok {
		t.Fatal("midpoint configuration not fingerprintable")
	}
	wantFPs = append(wantFPs, fp)
	for round := 1; round <= rounds; round++ {
		c = c.Step(sch.At(round))
		fp, _ := c.AppendFingerprint(nil)
		wantFPs = append(wantFPs, fp)
	}

	for _, path := range []string{"agents", "dense"} {
		t.Run(path, func(t *testing.T) {
			core.ForceAgents(path == "agents")
			replay, err := New(WithScenario(sch), WithAlgorithm("midpoint"),
				WithRounds(rounds))
			if err != nil {
				t.Fatal(err)
			}
			res, err := replay.Run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round <= rounds; round++ {
				want, got := orig.Outputs(round), res.Outputs(round)
				for i := range want {
					if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
						t.Fatalf("round %d agent %d: replay %v != original %v", round, i, got[i], want[i])
					}
				}
			}

			// Per-round fingerprints through the engine-level replay.
			if path == "agents" {
				c := core.NewConfig(alg, rec.Inputs())
				for round := 1; round <= rounds; round++ {
					c = c.Step(sch.At(round))
					fp, _ := c.AppendFingerprint(nil)
					if !bytes.Equal(fp, wantFPs[round]) {
						t.Fatalf("round %d: agent-path replay fingerprint differs", round)
					}
				}
			} else {
				d, ok := core.AsDense(alg)
				if !ok {
					t.Fatal("midpoint must be dense-capable")
				}
				r := core.NewDenseRunner(d, rec.Inputs())
				for round := 1; round <= rounds; round++ {
					r.Step(sch.At(round))
					fp, ok := core.AppendDenseFingerprint(d, r.State(), nil)
					if !ok {
						t.Fatal("dense state not fingerprintable")
					}
					if !bytes.Equal(fp, wantFPs[round]) {
						t.Fatalf("round %d: dense replay fingerprint differs", round)
					}
				}
			}
		})
	}

	// The trace round-trips through the codec without changing identity.
	reloaded, err := scenario.Decode(sch.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.Fingerprint() != sch.Fingerprint() {
		t.Fatal("fingerprint changed across encode/decode")
	}
}

// TestScenarioSweepBatchParity runs a 64-scenario grid through the
// batched sweep and the per-session sweep; summaries must be identical
// (per-run schedules inside one BatchRunner tile vs. independent runs).
func TestScenarioSweepBatchParity(t *testing.T) {
	const B, rounds = 64, 50
	specs := make([]RunSpec, B)
	for i := range specs {
		specs[i] = RunSpec{
			Scenario:  fmt.Sprintf("churn:16,%d,5,4,4", i+1),
			Algorithm: "midpoint",
			Rounds:    rounds,
		}
	}
	assertSweepBatchParity(t, specs)
}

// assertSweepBatchParity sweeps specs through the batched path (with
// any extra sweep options, e.g. SweepBatchParallelism) and the
// per-session path and requires bit-identical summaries.
func assertSweepBatchParity(t *testing.T, specs []RunSpec, batchOpts ...SweepOption) {
	t.Helper()
	ctx := context.Background()
	opts := append([]SweepOption{WithSweepCache(NewSweepCache())}, batchOpts...)
	batched, err := Sweep(ctx, specs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	single, err := Sweep(ctx, specs, WithSweepCache(NewSweepCache()), SweepBatchSize(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		b, s := batched[i], single[i]
		if b.Err != "" || s.Err != "" {
			t.Fatalf("spec %d errored: batch=%q single=%q", i, b.Err, s.Err)
		}
		if b.Summary == nil || s.Summary == nil {
			t.Fatalf("spec %d missing summary", i)
		}
		if len(b.Summary.FinalOutputs) != len(s.Summary.FinalOutputs) {
			t.Fatalf("spec %d output length mismatch", i)
		}
		for j := range b.Summary.FinalOutputs {
			if math.Float64bits(b.Summary.FinalOutputs[j]) != math.Float64bits(s.Summary.FinalOutputs[j]) {
				t.Fatalf("spec %d agent %d: batch %v != single %v", i, j,
					b.Summary.FinalOutputs[j], s.Summary.FinalOutputs[j])
			}
		}
		if b.Summary.FinalDiameter != s.Summary.FinalDiameter ||
			b.Summary.GeometricRate != s.Summary.GeometricRate ||
			b.Summary.WorstRoundRatio != s.Summary.WorstRoundRatio ||
			b.Summary.Validity != s.Summary.Validity {
			t.Fatalf("spec %d summary mismatch:\nbatch:  %+v\nsingle: %+v", i, *b.Summary, *s.Summary)
		}
	}
}

// TestScenarioResolutionCache pins the registry-level resolution memo:
// re-resolving a spec returns the identical schedule object (not a
// re-materialization) and counts as a cache hit, while distinct specs
// miss and errors are not cached.
func TestScenarioResolutionCache(t *testing.T) {
	r := NewScenarioRegistry()
	if err := r.Register(ScenarioFactory{
		Name: "testchurn", Usage: "testchurn:SEED",
		New: func(arg string, env ScenarioEnv) (*scenario.Schedule, error) {
			v, err := parseInts("testchurn", arg, 1)
			if err != nil {
				return nil, err
			}
			return scenario.Churn(8, v[0], 3, 4, 2)
		},
	}); err != nil {
		t.Fatal(err)
	}
	env := ScenarioEnv{Models: Models, Scenarios: r}
	a, err := r.New("testchurn:1", env)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.New("testchurn:1", env)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("re-resolving the same spec re-materialized the schedule")
	}
	if _, err := r.New("testchurn:2", env); err != nil {
		t.Fatal(err)
	}
	if _, err := r.New("testchurn:bogus", env); err == nil {
		t.Fatal("bad arg must error")
	}
	if _, err := r.New("testchurn:bogus", env); err == nil {
		t.Fatal("bad arg must error on re-resolution too (errors are not cached)")
	}
	hits, misses, entries := r.ResolveCacheStats()
	if hits != 1 || entries != 2 {
		t.Fatalf("stats hits=%d misses=%d entries=%d, want hits=1 entries=2", hits, misses, entries)
	}
}

// TestScenarioSweepBatchParityBlended mixes shared-schedule and per-run-
// schedule runs in one sweep: groups of runs replaying one schedule
// (some under distinct spec strings resolving to the same fingerprint,
// so they only meet through fingerprint-sorted tiling), interleaved with
// runs playing their own. The clustered stepper must collapse the shared
// groups onto common plans and keep every summary bit-identical to the
// per-session path.
func TestScenarioSweepBatchParityBlended(t *testing.T) {
	const rounds = 40
	shared, err := Scenarios.New("churn:16,7,5,8,4", ScenarioEnv{Models: Models, Scenarios: Scenarios})
	if err != nil {
		t.Fatal(err)
	}
	sharedTrace := "trace:" + EncodeTraceString(shared)
	var specs []RunSpec
	for i := 0; i < 48; i++ {
		var spec string
		switch i % 4 {
		case 0:
			// One shared schedule under its generator spec...
			spec = "churn:16,7,5,8,4"
		case 1:
			// ...and under the trace spelling of the same fingerprint,
			// interleaved so only schedule-sorted tiling reunites them.
			spec = sharedTrace
		default:
			// Everyone else plays their own schedule.
			spec = fmt.Sprintf("churn:16,%d,5,8,4", 100+i)
		}
		specs = append(specs, RunSpec{Scenario: spec, Algorithm: "midpoint", Rounds: rounds})
	}
	assertSweepBatchParity(t, specs)
}

// TestScenarioSweepBatchParityParallel exercises the intra-step
// parallel path through the public sweep surface: the same blended
// shared/per-run schedule mix as the Blended parity test, swept with
// SweepBatchParallelism at several levels (including workers above the
// tile sizes), plus the session-level WithBatchParallelism carrier via
// the process default. Summaries must stay bit-identical to the
// sequential per-session path at every level.
func TestScenarioSweepBatchParityParallel(t *testing.T) {
	const rounds = 40
	shared, err := Scenarios.New("churn:16,5,5,8,4", ScenarioEnv{Models: Models, Scenarios: Scenarios})
	if err != nil {
		t.Fatal(err)
	}
	sharedTrace := "trace:" + EncodeTraceString(shared)
	var specs []RunSpec
	for i := 0; i < 48; i++ {
		var spec string
		switch i % 4 {
		case 0:
			spec = "churn:16,5,5,8,4"
		case 1:
			spec = sharedTrace
		default:
			spec = fmt.Sprintf("churn:16,%d,5,8,4", 300+i)
		}
		specs = append(specs, RunSpec{Scenario: spec, Algorithm: "midpoint", Rounds: rounds})
	}
	for _, par := range []int{2, 3, 17} {
		t.Run(fmt.Sprintf("par%d", par), func(t *testing.T) {
			assertSweepBatchParity(t, specs, SweepBatchParallelism(par))
		})
	}
	t.Run("process-default", func(t *testing.T) {
		prev := SetProcessBatchParallelism(3)
		defer SetProcessBatchParallelism(prev)
		assertSweepBatchParity(t, specs)
	})
}

// TestScenarioSweepBatchParityCacheOverflow runs schedules whose joint
// distinct-graph count far exceeds the runner's plan-cache cap (churn
// with period 1 changes graph every round), so the batched sweep evicts
// and recycles plans continuously. Summaries must stay bit-identical to
// the per-session path.
func TestScenarioSweepBatchParityCacheOverflow(t *testing.T) {
	const B, rounds = 16, 120
	// 16 runs x 120 single-round epochs ~ 1920 distinct graphs, against
	// a default cap of 512.
	specs := make([]RunSpec, B)
	for i := range specs {
		specs[i] = RunSpec{
			Scenario:  fmt.Sprintf("churn:16,%d,1,%d,4", i+1, rounds),
			Algorithm: "midpoint",
			Rounds:    rounds,
		}
	}
	assertSweepBatchParity(t, specs)
}

// TestScenarioSweepCachedByFingerprint re-sweeps distinct spec strings
// resolving to the same trace; the second pass must be served from the
// sweep cache (keyed by the schedule fingerprint, not the spec string).
func TestScenarioSweepCachedByFingerprint(t *testing.T) {
	cache := NewSweepCache()
	ctx := context.Background()
	a := []RunSpec{{Scenario: "eventuallyrooted:5,2", Algorithm: "midpoint", Rounds: 12}}
	first, err := Sweep(ctx, a, WithSweepCache(cache))
	if err != nil || first[0].Err != "" {
		t.Fatalf("first sweep: %v %s", err, first[0].Err)
	}
	// The same schedule inlined as a trace spec: different spec string,
	// same fingerprint, so the cache must hit.
	sch, err := Scenarios.New("eventuallyrooted:5,2", ScenarioEnv{Models: Models, Scenarios: Scenarios})
	if err != nil {
		t.Fatal(err)
	}
	b := []RunSpec{{Scenario: "trace:" + EncodeTraceString(sch), Algorithm: "midpoint", Rounds: 12}}
	second, err := Sweep(ctx, b, WithSweepCache(cache))
	if err != nil || second[0].Err != "" {
		t.Fatalf("second sweep: %v %s", err, second[0].Err)
	}
	if !second[0].Cached {
		t.Fatal("trace-spec rerun of an identical schedule missed the cache")
	}
	if second[0].Summary.FinalDiameter != first[0].Summary.FinalDiameter {
		t.Fatal("cached summary differs")
	}
}

// TestWithScenarioSessionValidation covers the option interplay.
func TestWithScenarioSessionValidation(t *testing.T) {
	sch, err := Scenarios.New("partitionheal:6,2,3", ScenarioEnv{Models: Models, Scenarios: Scenarios})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(WithScenario(sch), WithAdversary("cycle")); err == nil {
		t.Error("scenario plus adversary accepted")
	}
	if _, err := New(WithScenario(sch), WithScenarioSpec("eventuallyrooted:6,1")); err == nil {
		t.Error("scenario plus scenario spec accepted")
	}
	if _, err := New(WithScenario(sch), WithInputs(0, 1)); err == nil {
		t.Error("input count mismatching the scenario accepted")
	}
	if _, err := New(WithScenario(sch), WithModel("deaf:4")); err == nil {
		t.Error("model on a different agent count accepted")
	}
	if _, err := New(WithScenario(sch), WithGreedyTrace()); err == nil {
		t.Error("greedy trace on a scenario replay accepted silently")
	}
	s, err := New(WithScenario(sch))
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != 6 {
		t.Fatalf("scenario did not fix the agent count: n=%d", s.N())
	}
	if s.Scenario() != sch {
		t.Fatal("Scenario accessor lost the schedule")
	}
	if got := s.Adversary(); got != "scenario:"+sch.Fingerprint() {
		t.Fatalf("Adversary() = %q, want the trace fingerprint form", got)
	}
}

// TestCompositeSpecNesting resolves composites whose operands are
// themselves composites: bracketed operands protect their '+' from the
// outer split.
func TestCompositeSpecNesting(t *testing.T) {
	env := ScenarioEnv{Models: Models, Scenarios: Scenarios}
	inner, err := Scenarios.New("concat:frommodel:psi:4;1;2+frommodel:psi:4;2;3", env)
	if err != nil {
		t.Fatal(err)
	}
	nested, err := Scenarios.New("interleave:[concat:frommodel:psi:4;1;2+frommodel:psi:4;2;3]+eventuallyrooted:4,3", env)
	if err != nil {
		t.Fatal(err)
	}
	outer, err := Scenarios.New("eventuallyrooted:4,3", env)
	if err != nil {
		t.Fatal(err)
	}
	// Round 2t-1 must be the bracketed concat's round t.
	for tt := 1; tt <= 8; tt++ {
		if !nested.At(2*tt - 1).Equal(inner.At(tt)) {
			t.Fatalf("odd round %d is not the nested concat's round %d", 2*tt-1, tt)
		}
		if !nested.At(2 * tt).Equal(outer.At(tt)) {
			t.Fatalf("even round %d is not the second operand's round %d", 2*tt, tt)
		}
	}
	// An unbracketed nested composite is ambiguous and must error, not
	// silently regroup.
	if _, err := Scenarios.New("interleave:concat:frommodel:psi:4;1;2+frommodel:psi:4;2;3+eventuallyrooted:4,3", env); err == nil {
		t.Fatal("ambiguous unbracketed nesting accepted")
	}
}

// TestScenarioResolutionBounded: hostile nested composites must be
// rejected by the shared depth/round budget, not ground through — each
// "repeat:1;" level re-copies the inner schedule, so without the budget
// a kilobyte-scale spec costs minutes of CPU.
func TestScenarioResolutionBounded(t *testing.T) {
	env := ScenarioEnv{Models: Models, Scenarios: Scenarios}
	deep := strings.Repeat("repeat:1;", 100) + "eventuallyrooted:2,1"
	if _, err := Scenarios.New(deep, env); err == nil {
		t.Error("over-deep nesting accepted")
	}
	wide := strings.Repeat("repeat:2;", 30) + "eventuallyrooted:2,8"
	if _, err := Scenarios.New(wide, env); err == nil {
		t.Error("budget-exceeding composition accepted")
	}
	// Legitimate nesting still resolves.
	if _, err := Scenarios.New("repeat:3;repeat:2;eventuallyrooted:4,1", env); err != nil {
		t.Errorf("modest nesting rejected: %v", err)
	}
}

// TestSweepResolvesScenarioOnce: grid entries sharing a scenario spec
// must resolve it through the sweep-wide memo, not once per entry.
func TestSweepResolvesScenarioOnce(t *testing.T) {
	var calls atomic.Int64
	reg := NewScenarioRegistry()
	if err := reg.Register(ScenarioFactory{
		Name: "counted", Usage: "counted", Summary: "test",
		New: func(arg string, env ScenarioEnv) (*scenario.Schedule, error) {
			calls.Add(1)
			return Scenarios.New("eventuallyrooted:4,1", ScenarioEnv{Models: Models, Scenarios: Scenarios})
		},
	}); err != nil {
		t.Fatal(err)
	}
	lib := &Library{Scenarios: reg}
	specs := ScenarioGrid([]string{"counted"}, []string{"midpoint", "mean", "selfweighted:0.25", "amortized"}, 10)
	results, err := Sweep(context.Background(), specs,
		WithSweepCache(NewSweepCache()), SweepLibrary(lib))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != "" {
			t.Fatalf("spec %d: %s", r.Index, r.Err)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("scenario resolved %d times for a 4-entry grid, want 1", got)
	}
}

// TestScenarioGridShape checks the cross-product expansion.
func TestScenarioGridShape(t *testing.T) {
	specs := ScenarioGrid(
		[]string{"eventuallyrooted:4,1", "partitionheal:4,2,2"},
		[]string{"midpoint", "mean"}, 30)
	if len(specs) != 4 {
		t.Fatalf("got %d specs, want 4", len(specs))
	}
	if specs[0].Scenario != "eventuallyrooted:4,1" || specs[1].Algorithm != "mean" || specs[3].Rounds != 30 {
		t.Fatalf("grid misordered: %+v", specs)
	}
}

// TestRunScenarioQuery exercises the query helper end to end: spec
// resolution, certification, trace round trip, and an executed replay.
func TestRunScenarioQuery(t *testing.T) {
	ctx := context.Background()
	rep, err := RunScenario(ctx, ScenarioRequest{
		Scenario: "partitionheal:6,2,4",
		Run:      true, Algorithm: "midpoint", Rounds: 12,
		// Disagreement across the two blocks: inside a block everyone
		// agrees, so no contraction can happen before healing.
		Inputs: []float64{0, 0, 0, 1, 1, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.N != 6 || rep.PrefixRounds != 4 || rep.LoopRounds != 1 {
		t.Fatalf("report shape wrong: %+v", rep)
	}
	if rep.Certificate.Rooted || rep.Certificate.FirstUnrooted != 1 {
		t.Fatalf("partition rounds not flagged unrooted: %+v", rep.Certificate)
	}
	if rep.Summary == nil || rep.Summary.Rounds != 12 || len(rep.Diameters) != 13 {
		t.Fatalf("run summary missing or wrong: %+v", rep.Summary)
	}
	// The partition never mixes the blocks, so the cross-block diameter
	// survives every partitioned round and contracts only after healing.
	if rep.Diameters[4] != 1 {
		t.Fatalf("diameter %v after the partition, want 1", rep.Diameters[4])
	}
	if rep.Diameters[12] >= rep.Diameters[4] {
		t.Fatal("healing did not contract the diameter")
	}

	// Round trip: upload the returned trace instead of the spec.
	rep2, err := RunScenario(ctx, ScenarioRequest{Trace: rep.Trace})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Fingerprint != rep.Fingerprint {
		t.Fatal("uploaded trace resolved to a different schedule")
	}

	if _, err := RunScenario(ctx, ScenarioRequest{}); err == nil {
		t.Error("empty request accepted")
	}
	if _, err := RunScenario(ctx, ScenarioRequest{Scenario: "eventuallyrooted:4,1", Trace: rep.Trace}); err == nil {
		t.Error("spec plus trace accepted")
	}
}
