package algorithms

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/core"
	"repro/internal/graph"
)

// This file implements the dense struct-of-arrays backend
// (core.DenseAlgorithm) for every algorithm in the package, plus the
// agent<->dense state bridges (core.DenseStateWriter/Reader) and the dense
// fingerprints that keep the valency engine's transposition tables shared
// between backends. Every stepper reads the graph through graph.InRow at
// every width — an n <= 64 row is a one-word slice — and folds through
// the row folds of fold.go.
//
// Bit-identity contract: each stepper performs exactly the float
// operations of the corresponding Agent's Deliver, visiting senders in
// ascending index — the order Step builds the inbox in. min/max folds may
// start from a different element of the same multiset (math.Min/Max are
// exact selections, so the result is order-independent); sums and
// averaged updates replicate the Deliver expressions verbatim. The
// differential tests in dense_test.go pin the equivalence on randomized
// graph sequences, and TestDenseFingerprintParity pins the fingerprint
// encodings.

// Plane indices of the algorithms with auxiliary state.
const (
	amortizedPlaneLo = 0
	amortizedPlaneHi = 1

	floodPlaneInformed = 0
	floodPlaneRoot     = 1
)

// fmin and fmax are inlinable replacements for math.Min and math.Max,
// which are plain function calls on this toolchain and dominate the
// dense stepper profile. They are pointwise bit-identical to the math
// versions — same canonical NaN on NaN inputs, same -0/+0 tie-breaks —
// which TestFminFmaxMatchMath pins over the special values. The ordered
// comparisons and the nonzero-tie case (contracted states hit the tie
// on every fold) stay on the inlined path; only zero ties and unordered
// (NaN) inputs fall through to the outlined slow halves, keeping fmin
// and fmax themselves within the inliner's budget so folds pay no call
// per element.

func fmin(x, y float64) float64 {
	if x < y || (x == y && x != 0) {
		return x
	}
	return fminSlow(x, y)
}

// fminSlow takes over when x is not the ordered-or-nonzero-tie winner:
// a new running minimum (the common outlined case, one cheap branch),
// zero ties (math.Min prefers -0), and unordered inputs (a NaN is
// involved, but math.Min ranks -Inf above it).
func fminSlow(x, y float64) float64 {
	if y < x {
		return y
	}
	if x == y {
		if math.Signbit(x) {
			return x
		}
		return y
	}
	if x == math.Inf(-1) || y == math.Inf(-1) {
		return math.Inf(-1)
	}
	return math.NaN()
}

func fmax(x, y float64) float64 {
	if x > y || (x == y && x != 0) {
		return x
	}
	return fmaxSlow(x, y)
}

// fmaxSlow takes over when x is not the ordered-or-nonzero-tie winner:
// a new running maximum, zero ties (math.Max prefers +0), and unordered
// inputs (a NaN is involved, but math.Max ranks +Inf above it).
func fmaxSlow(x, y float64) float64 {
	if y > x {
		return y
	}
	if x == y {
		if !math.Signbit(x) {
			return x
		}
		return y
	}
	if x == math.Inf(1) || y == math.Inf(1) {
		return math.Inf(1)
	}
	return math.NaN()
}

// ---- Midpoint ----

// DensePlanes implements core.DenseAlgorithm.
func (Midpoint) DensePlanes() int { return 0 }

// InitDense implements core.DenseAlgorithm.
func (Midpoint) InitDense(*core.DenseState) {}

// StepDense implements core.DenseAlgorithm.
func (Midpoint) StepDense(dst, src *core.DenseState, g graph.Graph) {
	stepMidpoint(dst, src, g, 0)
}

// stepMidpoint is the single-run stepper of both midpoint algorithms:
// every receiver adopts midValue of its received interval. Receivers
// with equal in-rows (ubiquitous in the paper's families: complete,
// deaf, Psi, silence blocks) share one fold via the last-row memo, whose
// nil start equals no row.
func stepMidpoint(dst, src *core.DenseState, g graph.Graph, q float64) {
	y, out := src.Y, dst.Y
	var last []uint64
	var v float64
	for j := range out {
		if row := g.InRow(j); !graph.SetsEqual(row, last) {
			lo, hi := foldInterval(y, y, row)
			v = midValue(lo, hi, q)
			last = row
		}
		out[j] = v
	}
}

// midValue is the update of both midpoint algorithms on a received
// interval [lo, hi]: the midpoint itself for q == 0 (Midpoint), snapped
// down to the q-grid otherwise (QuantizedMidpoint, whose Q is positive).
func midValue(lo, hi, q float64) float64 {
	if q == 0 {
		return (lo + hi) / 2
	}
	return math.Floor((lo+hi)/(2*q)) * q
}

// OutputsDense implements core.DenseAlgorithm.
func (Midpoint) OutputsDense(st *core.DenseState, out []float64) { copy(out, st.Y) }

// AppendDenseFingerprint implements core.DenseFingerprinter.
func (Midpoint) AppendDenseFingerprint(dst []byte, st *core.DenseState, i int) ([]byte, bool) {
	dst = append(dst, tagMidpoint)
	return core.AppendFloat(dst, st.Y[i]), true
}

func (a *midpointAgent) WriteDense(st *core.DenseState, i int) bool {
	st.Y[i] = a.y
	return true
}

func (a *midpointAgent) ReadDense(st *core.DenseState, i int) bool {
	a.y = st.Y[i]
	return true
}

// ---- TwoThirds ----

// DensePlanes implements core.DenseAlgorithm.
func (TwoThirds) DensePlanes() int { return 0 }

// InitDense implements core.DenseAlgorithm. It panics unless n == 2,
// mirroring NewAgent.
func (TwoThirds) InitDense(st *core.DenseState) {
	if st.N() != 2 {
		panic(fmt.Sprintf("algorithms: TwoThirds requires n = 2, got %d", st.N()))
	}
}

// StepDense implements core.DenseAlgorithm.
func (TwoThirds) StepDense(dst, src *core.DenseState, g graph.Graph) {
	for j := 0; j < 2; j++ {
		o := 1 - j
		if graph.SetHas(g.InRow(j), o) {
			dst.Y[j] = src.Y[j]/3 + 2*src.Y[o]/3
		} else {
			dst.Y[j] = src.Y[j]
		}
	}
}

// OutputsDense implements core.DenseAlgorithm.
func (TwoThirds) OutputsDense(st *core.DenseState, out []float64) { copy(out, st.Y) }

// AppendDenseFingerprint implements core.DenseFingerprinter.
func (TwoThirds) AppendDenseFingerprint(dst []byte, st *core.DenseState, i int) ([]byte, bool) {
	dst = append(dst, tagTwoThirds)
	dst = core.AppendInt(dst, i)
	return core.AppendFloat(dst, st.Y[i]), true
}

func (a *twoThirdsAgent) WriteDense(st *core.DenseState, i int) bool {
	st.Y[i] = a.y
	return true
}

func (a *twoThirdsAgent) ReadDense(st *core.DenseState, i int) bool {
	a.y = st.Y[i]
	return true
}

// ---- Mean ----

// DensePlanes implements core.DenseAlgorithm.
func (Mean) DensePlanes() int { return 0 }

// InitDense implements core.DenseAlgorithm.
func (Mean) InitDense(*core.DenseState) {}

// StepDense implements core.DenseAlgorithm. The received mean is a pure
// function of the in-row, so receivers sharing a row share the fold.
func (Mean) StepDense(dst, src *core.DenseState, g graph.Graph) {
	y, out := src.Y, dst.Y
	var last []uint64
	var mean float64
	for j := range out {
		if row := g.InRow(j); !graph.SetsEqual(row, last) {
			mean = foldMean(y, row)
			last = row
		}
		out[j] = mean
	}
}

// OutputsDense implements core.DenseAlgorithm.
func (Mean) OutputsDense(st *core.DenseState, out []float64) { copy(out, st.Y) }

// AppendDenseFingerprint implements core.DenseFingerprinter.
func (Mean) AppendDenseFingerprint(dst []byte, st *core.DenseState, i int) ([]byte, bool) {
	dst = append(dst, tagMean)
	return core.AppendFloat(dst, st.Y[i]), true
}

func (a *meanAgent) WriteDense(st *core.DenseState, i int) bool {
	st.Y[i] = a.y
	return true
}

func (a *meanAgent) ReadDense(st *core.DenseState, i int) bool {
	a.y = st.Y[i]
	return true
}

// ---- SelfWeighted ----

// DensePlanes implements core.DenseAlgorithm.
func (SelfWeighted) DensePlanes() int { return 0 }

// InitDense implements core.DenseAlgorithm. It panics for Alpha outside
// [0, 1], mirroring NewAgent.
func (s SelfWeighted) InitDense(*core.DenseState) {
	if s.Alpha < 0 || s.Alpha > 1 {
		panic(fmt.Sprintf("algorithms: SelfWeighted alpha %v outside [0,1]", s.Alpha))
	}
}

// StepDense implements core.DenseAlgorithm. The self-weight product is
// rounded on its own, as in the Agent path's Deliver, so no architecture
// fuses it into the following addition.
func (s SelfWeighted) StepDense(dst, src *core.DenseState, g graph.Graph) {
	y, out := src.Y, dst.Y
	for j := range out {
		sum, count := 0.0, 0
		for wi, m := range g.InRow(j) {
			base := wi * 64
			for ; m != 0; m &= m - 1 {
				i := base + bits.TrailingZeros64(m)
				if i == j {
					continue
				}
				sum += y[i]
				count++
			}
		}
		if count == 0 {
			out[j] = y[j]
			continue
		}
		out[j] = float64(s.Alpha*y[j]) + (1-s.Alpha)*sum/float64(count)
	}
}

// OutputsDense implements core.DenseAlgorithm.
func (SelfWeighted) OutputsDense(st *core.DenseState, out []float64) { copy(out, st.Y) }

// AppendDenseFingerprint implements core.DenseFingerprinter.
func (s SelfWeighted) AppendDenseFingerprint(dst []byte, st *core.DenseState, i int) ([]byte, bool) {
	dst = append(dst, tagSelfWeighted)
	dst = core.AppendInt(dst, i)
	dst = core.AppendFloat(dst, s.Alpha)
	return core.AppendFloat(dst, st.Y[i]), true
}

func (a *selfWeightedAgent) WriteDense(st *core.DenseState, i int) bool {
	st.Y[i] = a.y
	return true
}

func (a *selfWeightedAgent) ReadDense(st *core.DenseState, i int) bool {
	a.y = st.Y[i]
	return true
}

// ---- AmortizedMidpoint ----

// amortizedPhase returns the phase length for n agents, as NewAgent
// computes it.
func amortizedPhase(n int) int {
	phase := n - 1
	if phase < 1 {
		phase = 1
	}
	return phase
}

// DensePlanes implements core.DenseAlgorithm: the running lo/hi interval.
func (AmortizedMidpoint) DensePlanes() int { return 2 }

// InitDense implements core.DenseAlgorithm.
func (AmortizedMidpoint) InitDense(st *core.DenseState) {
	copy(st.Plane(amortizedPlaneLo), st.Y)
	copy(st.Plane(amortizedPlaneHi), st.Y)
}

// StepDense implements core.DenseAlgorithm. The agent's fold starts at
// its own running interval, but the self-loop puts that interval in the
// received multiset anyway, so the result is a pure function of the
// in-row and receivers sharing a row share the fold (min/max are exact
// selections — see foldInterval).
func (AmortizedMidpoint) StepDense(dst, src *core.DenseState, g graph.Graph) {
	phaseEnd := dst.Round()%amortizedPhase(src.N()) == 0
	y := src.Y
	lo0, hi0 := src.Plane(amortizedPlaneLo), src.Plane(amortizedPlaneHi)
	oy := dst.Y
	olo, ohi := dst.Plane(amortizedPlaneLo), dst.Plane(amortizedPlaneHi)
	var last []uint64
	var lo, hi float64
	for j := range oy {
		if row := g.InRow(j); !graph.SetsEqual(row, last) {
			last = row
			lo, hi = foldInterval(lo0, hi0, row)
		}
		if phaseEnd {
			yj := (lo + hi) / 2
			oy[j], olo[j], ohi[j] = yj, yj, yj
		} else {
			oy[j], olo[j], ohi[j] = y[j], lo, hi
		}
	}
}

// OutputsDense implements core.DenseAlgorithm.
func (AmortizedMidpoint) OutputsDense(st *core.DenseState, out []float64) { copy(out, st.Y) }

// AppendDenseFingerprint implements core.DenseFingerprinter.
func (AmortizedMidpoint) AppendDenseFingerprint(dst []byte, st *core.DenseState, i int) ([]byte, bool) {
	dst = append(dst, tagAmortized)
	dst = core.AppendInt(dst, amortizedPhase(st.N()))
	dst = core.AppendFloat(dst, st.Y[i])
	dst = core.AppendFloat(dst, st.Plane(amortizedPlaneLo)[i])
	return core.AppendFloat(dst, st.Plane(amortizedPlaneHi)[i]), true
}

func (a *amortizedAgent) WriteDense(st *core.DenseState, i int) bool {
	st.Y[i] = a.y
	st.Plane(amortizedPlaneLo)[i] = a.lo
	st.Plane(amortizedPlaneHi)[i] = a.hi
	return true
}

func (a *amortizedAgent) ReadDense(st *core.DenseState, i int) bool {
	a.y = st.Y[i]
	a.lo = st.Plane(amortizedPlaneLo)[i]
	a.hi = st.Plane(amortizedPlaneHi)[i]
	return true
}

// ---- QuantizedMidpoint ----

// DensePlanes implements core.DenseAlgorithm.
func (QuantizedMidpoint) DensePlanes() int { return 0 }

// InitDense implements core.DenseAlgorithm: it validates Q and snaps the
// inputs down to the grid, mirroring NewAgent.
func (a QuantizedMidpoint) InitDense(st *core.DenseState) {
	if !(a.Q > 0) {
		panic(fmt.Sprintf("algorithms: QuantizedMidpoint requires Q > 0, got %v", a.Q))
	}
	for i, v := range st.Y {
		st.Y[i] = math.Floor(v/a.Q) * a.Q
	}
}

// StepDense implements core.DenseAlgorithm, sharing folds across equal
// in-rows like Midpoint.
func (a QuantizedMidpoint) StepDense(dst, src *core.DenseState, g graph.Graph) {
	stepMidpoint(dst, src, g, a.Q)
}

// OutputsDense implements core.DenseAlgorithm.
func (QuantizedMidpoint) OutputsDense(st *core.DenseState, out []float64) { copy(out, st.Y) }

// AppendDenseFingerprint implements core.DenseFingerprinter.
func (a QuantizedMidpoint) AppendDenseFingerprint(dst []byte, st *core.DenseState, i int) ([]byte, bool) {
	dst = append(dst, tagQuantized)
	dst = core.AppendFloat(dst, a.Q)
	return core.AppendFloat(dst, st.Y[i]), true
}

func (a *quantizedAgent) WriteDense(st *core.DenseState, i int) bool {
	st.Y[i] = a.y
	return true
}

func (a *quantizedAgent) ReadDense(st *core.DenseState, i int) bool {
	a.y = st.Y[i]
	return true
}

// ---- FloodRoot ----

// DensePlanes implements core.DenseAlgorithm: the informed flag (0/1) and
// the learned root value.
func (FloodRoot) DensePlanes() int { return 2 }

// InitDense implements core.DenseAlgorithm. It panics when Root is not an
// agent, mirroring NewAgent.
func (f FloodRoot) InitDense(st *core.DenseState) {
	n := st.N()
	if f.Root < 0 || f.Root >= n {
		panic(fmt.Sprintf("algorithms: FloodRoot root %d out of range [0,%d)", f.Root, n))
	}
	inf, rv := st.Plane(floodPlaneInformed), st.Plane(floodPlaneRoot)
	for i := 0; i < n; i++ {
		inf[i], rv[i] = 0, 0
	}
	inf[f.Root] = 1
	rv[f.Root] = st.Y[f.Root]
}

// StepDense implements core.DenseAlgorithm. Whether a row contains an
// informed sender (and which value the first one carries) is a pure
// function of the row, shared across receivers.
func (FloodRoot) StepDense(dst, src *core.DenseState, g graph.Graph) {
	y := src.Y
	inf0, rv0 := src.Plane(floodPlaneInformed), src.Plane(floodPlaneRoot)
	oy := dst.Y
	oinf, orv := dst.Plane(floodPlaneInformed), dst.Plane(floodPlaneRoot)
	var last []uint64
	heard := false
	var heardValue float64
	for j := range oy {
		oy[j], oinf[j], orv[j] = y[j], inf0[j], rv0[j]
		if inf0[j] == 1 {
			continue
		}
		if row := g.InRow(j); !graph.SetsEqual(row, last) {
			last = row
			heard, heardValue = scanInformed(inf0, rv0, row)
		}
		if heard {
			oy[j], oinf[j], orv[j] = heardValue, 1, heardValue
		}
	}
}

// OutputsDense implements core.DenseAlgorithm.
func (FloodRoot) OutputsDense(st *core.DenseState, out []float64) { copy(out, st.Y) }

// AppendDenseFingerprint implements core.DenseFingerprinter.
func (FloodRoot) AppendDenseFingerprint(dst []byte, st *core.DenseState, i int) ([]byte, bool) {
	dst = append(dst, tagFloodRoot)
	informed := 0
	if st.Plane(floodPlaneInformed)[i] == 1 {
		informed = 1
	}
	dst = core.AppendInt(dst, informed)
	dst = core.AppendFloat(dst, st.Y[i])
	return core.AppendFloat(dst, st.Plane(floodPlaneRoot)[i]), true
}

func (a *floodRootAgent) WriteDense(st *core.DenseState, i int) bool {
	st.Y[i] = a.y
	flag := 0.0
	if a.informed {
		flag = 1
	}
	st.Plane(floodPlaneInformed)[i] = flag
	st.Plane(floodPlaneRoot)[i] = a.rootValue
	return true
}

func (a *floodRootAgent) ReadDense(st *core.DenseState, i int) bool {
	a.y = st.Y[i]
	a.informed = st.Plane(floodPlaneInformed)[i] == 1
	a.rootValue = st.Plane(floodPlaneRoot)[i]
	return true
}

// ---- FlowSum ----

// DensePlanes implements core.DenseAlgorithm.
func (FlowSum) DensePlanes() int { return 0 }

// InitDense implements core.DenseAlgorithm. It panics when the out-degree
// table does not cover every agent, mirroring NewAgent.
func (f FlowSum) InitDense(st *core.DenseState) {
	for i := 0; i < st.N(); i++ {
		if i >= len(f.OutDegrees) || f.OutDegrees[i] < 1 {
			panic(fmt.Sprintf("algorithms: FlowSum missing out-degree for agent %d", i))
		}
	}
}

// StepDense implements core.DenseAlgorithm. The per-sender share
// y_i/deg_i is recomputed per receiver; IEEE division is deterministic,
// so the result matches the Agent path that computes it once in
// Broadcast.
func (f FlowSum) StepDense(dst, src *core.DenseState, g graph.Graph) {
	y, out := src.Y, dst.Y
	var last []uint64
	var sum float64
	for j := range out {
		if row := g.InRow(j); !graph.SetsEqual(row, last) {
			last = row
			sum = foldFlowSum(y, f.OutDegrees, row)
		}
		out[j] = sum
	}
}

// OutputsDense implements core.DenseAlgorithm.
func (FlowSum) OutputsDense(st *core.DenseState, out []float64) { copy(out, st.Y) }

// AppendDenseFingerprint implements core.DenseFingerprinter.
func (f FlowSum) AppendDenseFingerprint(dst []byte, st *core.DenseState, i int) ([]byte, bool) {
	dst = append(dst, tagFlowSum)
	dst = core.AppendInt(dst, f.OutDegrees[i])
	return core.AppendFloat(dst, st.Y[i]), true
}

func (a *flowSumAgent) WriteDense(st *core.DenseState, i int) bool {
	st.Y[i] = a.y
	return true
}

func (a *flowSumAgent) ReadDense(st *core.DenseState, i int) bool {
	a.y = st.Y[i]
	return true
}
