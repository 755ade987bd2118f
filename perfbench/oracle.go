package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"

	"repro/consensus"
	"repro/consensus/distributed"
)

// reference is one spec's expected result: its content fingerprint and
// a SHA-256 digest of its final outputs' IEEE-754 bits, so results are
// compared bit for bit while a long request stream's references stay
// small in the heap of the process being measured.
type reference struct {
	fingerprint [32]byte
	outputs     [32]byte
}

// referenceOf validates a result and reduces it to a reference.
func referenceOf(r consensus.SweepResult) (reference, error) {
	var ref reference
	if err := validResult(r); err != nil {
		return ref, err
	}
	if n, err := hex.Decode(ref.fingerprint[:], []byte(r.Fingerprint)); err != nil || n != len(ref.fingerprint) {
		return ref, fmt.Errorf("malformed fingerprint %q", r.Fingerprint)
	}
	ref.outputs = outputsDigest(r.Summary.FinalOutputs)
	return ref, nil
}

// outputsDigest hashes the values' exact bits, length included.
func outputsDigest(xs []float64) [32]byte {
	buf := make([]byte, 8*(len(xs)+1))
	binary.LittleEndian.PutUint64(buf, uint64(len(xs)))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(buf[8*(i+1):], math.Float64bits(x))
	}
	return sha256.Sum256(buf)
}

// referenceChunk bounds the specs per reference sweep, so a long
// request stream's references do not all sit in one sweep's memory.
const referenceChunk = 1024

// computeReferences runs specs in-process through the per-session path
// (SweepBatchSize(1), private cache), so the references do not come
// from the batch kernel or any cache the timed operations use.
func computeReferences(ctx context.Context, specs []consensus.RunSpec) ([]reference, error) {
	refs := make([]reference, 0, len(specs))
	for lo := 0; lo < len(specs); lo += referenceChunk {
		chunk := specs[lo:min(lo+referenceChunk, len(specs))]
		res, err := consensus.Sweep(ctx, chunk, consensus.WithSweepCache(consensus.NewSweepCache()), consensus.SweepBatchSize(1))
		if err != nil {
			return nil, err
		}
		for i, r := range res {
			ref, err := referenceOf(r)
			if err != nil {
				return nil, fmt.Errorf("reference for spec %d: %w", lo+i, err)
			}
			refs = append(refs, ref)
		}
	}
	return refs, nil
}

// validResult rejects results with an error, no summary, or a failed
// validity check.
func validResult(r consensus.SweepResult) error {
	switch {
	case r.Err != "":
		return fmt.Errorf("error %q", r.Err)
	case r.Summary == nil:
		return fmt.Errorf("no summary")
	case !r.Summary.Validity:
		return fmt.Errorf("validity violated")
	case r.Fingerprint == "":
		return fmt.Errorf("no fingerprint")
	}
	return nil
}

// wrongError marks an operation that returned results which are not
// the reference results, as opposed to one that failed or was refused.
type wrongError struct{ error }

func wrong(format string, args ...any) error { return wrongError{fmt.Errorf(format, args...)} }

func isWrong(err error) bool { return errors.As(err, new(wrongError)) }

// checkResults compares results with their references.
func checkResults(got []consensus.SweepResult, want []reference) error {
	if len(got) != len(want) {
		return wrong("%d results for %d specs", len(got), len(want))
	}
	for i, r := range got {
		ref, err := referenceOf(r)
		switch {
		case err != nil:
			return wrong("spec %d: %v", i, err)
		case ref.fingerprint != want[i].fingerprint:
			return wrong("spec %d: fingerprint %s differs from the reference", i, r.Fingerprint)
		case ref.outputs != want[i].outputs:
			return wrong("spec %d: final outputs differ from the reference", i)
		}
	}
	return nil
}

// checkReply decodes a coordinator reply and compares its results with
// the references. Any status but 200, a refusal (429) included, fails.
func checkReply(status int, body []byte, want []reference) error {
	if status != http.StatusOK {
		return fmt.Errorf("refused with status %d", status)
	}
	var resp distributed.SweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return wrong("decode reply: %v", err)
	}
	return checkResults(resp.Results, want)
}
