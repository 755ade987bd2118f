package main

import (
	"context"
	"encoding/json"
	"math/rand"

	"repro/consensus"
	"repro/consensus/distributed"
	"repro/perfbench/loadgen"
)

// The serve-mixed spec population.
var (
	serveModels = []string{"deaf:4", "deaf:6", "deaf:8", "psi:5"}
	serveAlgs   = []string{"midpoint", "amortized", "mean"}
	serveAdvs   = []string{"cycle", "random"}
	serveScens  = []string{"eventuallyrooted:5,2", "partitionheal:6,2,4"}
)

// compactSpec is one serve-mixed spec in 16 bytes. The request streams
// live in the heap of the process that also runs the fleet, whose
// garbage collector scans them, so they are kept small.
type compactSpec struct {
	seed   int64
	rounds uint8
	alg    uint8
	model  int8  // index into serveModels; -1 for a scenario run
	adv    uint8 // index into serveAdvs, or serveScens for a scenario run
}

func (c compactSpec) spec() consensus.RunSpec {
	s := consensus.RunSpec{Algorithm: serveAlgs[c.alg], Rounds: int(c.rounds), Seed: c.seed}
	if c.model < 0 {
		s.Scenario = serveScens[c.adv]
	} else {
		s.Model = serveModels[c.model]
		s.Adversary = serveAdvs[c.adv]
	}
	return s
}

// requestStream is a pre-generated request sequence with a reference
// per distinct spec. Phases consume it in order.
type requestStream struct {
	fresh []compactSpec
	refs  []reference         // index-aligned with fresh
	reqs  [][serveSpecs]int32 // per request, indices into fresh
	next  int
}

// newRequestStream generates k requests of serveSpecs specs: three
// quarters model runs (deaf:4/6/8, psi:5 × midpoint/amortized/mean ×
// cycle/random), one quarter scenario runs, 10-29 rounds, spec seeds
// from [1, 2^40], and half of all specs an exact repeat of an earlier
// one; then computes the references.
func newRequestStream(ctx context.Context, seed int64, k int) (*requestStream, error) {
	rng := rand.New(rand.NewSource(seed))
	s := &requestStream{reqs: make([][serveSpecs]int32, k)}
	for i := range s.reqs {
		for j := range s.reqs[i] {
			if len(s.fresh) > 0 && rng.Intn(2) == 0 {
				s.reqs[i][j] = int32(rng.Intn(len(s.fresh)))
				continue
			}
			c := compactSpec{alg: uint8(rng.Intn(len(serveAlgs))), rounds: uint8(10 + rng.Intn(20)), seed: 1 + rng.Int63n(1<<40)}
			if rng.Intn(4) == 0 {
				c.model, c.adv = -1, uint8(rng.Intn(len(serveScens)))
			} else {
				c.model, c.adv = int8(rng.Intn(len(serveModels))), uint8(rng.Intn(len(serveAdvs)))
			}
			s.reqs[i][j] = int32(len(s.fresh))
			s.fresh = append(s.fresh, c)
		}
	}
	specs := make([]consensus.RunSpec, len(s.fresh))
	for i, c := range s.fresh {
		specs[i] = c.spec()
	}
	refs, err := computeReferences(ctx, specs)
	if err != nil {
		return nil, err
	}
	s.refs = refs
	return s, nil
}

// specs returns request i's specs.
func (s *requestStream) specs(i int) []consensus.RunSpec {
	out := make([]consensus.RunSpec, serveSpecs)
	for j, k := range s.reqs[i] {
		out[j] = s.fresh[k].spec()
	}
	return out
}

// refsOf returns request i's references.
func (s *requestStream) refsOf(i int) []reference {
	out := make([]reference, serveSpecs)
	for j, k := range s.reqs[i] {
		out[j] = s.refs[k]
	}
	return out
}

// rounds returns request i's total spec rounds.
func (s *requestStream) rounds(i int) int64 {
	var r int64
	for _, k := range s.reqs[i] {
		r += int64(s.fresh[k].rounds)
	}
	return r
}

// body returns request i's JSON body.
func (s *requestStream) body(i int) []byte {
	b, err := json.Marshal(distributed.SweepRequest{Specs: s.specs(i)})
	if err != nil {
		panic(err) // a RunSpec always marshals
	}
	return b
}

// take reserves the next n requests (fewer when the stream runs out)
// and returns them as a loadgen sequence, with the stream index of its
// first request.
func (s *requestStream) take(n int) (loadgen.Requests, int) {
	lo := s.next
	n = min(n, len(s.reqs)-lo)
	s.next += n
	return loadgen.Requests{
		N:    n,
		Body: func(i int) []byte { return s.body(lo + i) },
		Check: func(i, status int, reply []byte) error {
			return checkReply(status, reply, s.refsOf(lo+i))
		},
	}, lo
}

// giveBack returns the last n reserved requests unsent, so the next
// phase sends them.
func (s *requestStream) giveBack(n int) { s.next -= n }
