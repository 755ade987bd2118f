package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"testing"

	"repro/consensus"
	"repro/consensus/distributed"
)

// oracleFixture computes references for two small specs and returns
// them with a fresh, correct batch of results for the same specs.
func oracleFixture(t *testing.T) ([]reference, []consensus.SweepResult) {
	t.Helper()
	specs := []consensus.RunSpec{
		{Model: "deaf:4", Algorithm: "midpoint", Adversary: "cycle", Rounds: 12, Seed: 7},
		{Scenario: "churn:16,3,10,2,4", Algorithm: "midpoint", Rounds: 20},
	}
	refs, err := computeReferences(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := consensus.Sweep(context.Background(), specs, consensus.WithSweepCache(consensus.NewSweepCache()))
	if err != nil {
		t.Fatal(err)
	}
	return refs, got
}

func TestOracleAcceptsTheBatchPath(t *testing.T) {
	refs, got := oracleFixture(t)
	if err := checkResults(got, refs); err != nil {
		t.Fatalf("correct results rejected: %v", err)
	}
}

func TestOracleRejectsOneFlippedOutputBit(t *testing.T) {
	refs, got := oracleFixture(t)
	outs := append([]float64(nil), got[1].Summary.FinalOutputs...)
	outs[3] = math.Float64frombits(math.Float64bits(outs[3]) ^ 1)
	sum := *got[1].Summary
	sum.FinalOutputs = outs
	got[1].Summary = &sum
	err := checkResults(got, refs)
	if err == nil || !isWrong(err) {
		t.Fatalf("flipped low bit: err = %v, want a wrong result", err)
	}
}

func TestOracleRejectsBadResults(t *testing.T) {
	for name, mutate := range map[string]func(*consensus.SweepResult){
		"error":       func(r *consensus.SweepResult) { r.Err = "boom" },
		"validity":    func(r *consensus.SweepResult) { s := *r.Summary; s.Validity = false; r.Summary = &s },
		"fingerprint": func(r *consensus.SweepResult) { r.Fingerprint = "00" + r.Fingerprint[2:] },
		"no summary":  func(r *consensus.SweepResult) { r.Summary = nil },
	} {
		refs, got := oracleFixture(t)
		mutate(&got[0])
		if err := checkResults(got, refs); err == nil || !isWrong(err) {
			t.Errorf("%s: err = %v, want a wrong result", name, err)
		}
	}
	refs, got := oracleFixture(t)
	if err := checkResults(got[:1], refs); err == nil {
		t.Error("missing result accepted")
	}
}

func TestOracleCountsARefusalAsFailedNotWrong(t *testing.T) {
	refs, got := oracleFixture(t)
	body, err := json.Marshal(distributed.SweepResponse{Results: got})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkReply(http.StatusOK, body, refs); err != nil {
		t.Fatalf("correct reply rejected: %v", err)
	}
	err = checkReply(http.StatusTooManyRequests, []byte(`{"error":"busy"}`), refs)
	if err == nil {
		t.Fatal("429 accepted")
	}
	if isWrong(err) {
		t.Errorf("429 counted as a wrong result: %v", err)
	}
	m := &e2e{}
	m.record(err)
	m.record(nil)
	if m.attempted != 2 || m.failed != 1 || m.wrong != 0 {
		t.Errorf("after a 429 and a success: attempted %d failed %d wrong %d", m.attempted, m.failed, m.wrong)
	}
	if err := checkReply(http.StatusOK, []byte("{"), refs); err == nil || !isWrong(err) {
		t.Errorf("garbled 200 reply: err = %v, want a wrong result", err)
	}
}
