package algorithms

import (
	"math/bits"
)

// This file holds the receiver folds every dense and batched stepper
// shares. A fold reads an in-neighbor row — graph.Words() little-endian
// words, one word for every n <= 64 graph — and visits its set bits in
// ascending sender index, the Agent path's inbox order. There is one row
// form at every graph width: the steppers never dispatch on the word
// count, and a one-word row walks the same loop as a sixteen-word one.
//
// Bit-identity contract: min/max folds may start from a different
// element of the same multiset (fmin/fmax are exact selections, so the
// result is order-independent, NaN and signed zeros included); sums fold
// in ascending index starting at 0.0, exactly like the Agent path's
// Deliver. Receivers with equal rows therefore share a fold.

// foldInterval folds min over loPlane and max over hiPlane across the
// row's set bits. The min/max of one value plane is foldInterval(y, y,
// row). The first set bit seeds the fold outside the loop, so no element
// is compared with itself, and reslicing hiPlane to loPlane's length
// leaves one bounds check per element. row must be non-empty (every
// in-row carries the self-loop).
func foldInterval(loPlane, hiPlane []float64, row []uint64) (lo, hi float64) {
	hiPlane = hiPlane[:len(loPlane)]
	wi := 0
	for row[wi] == 0 {
		wi++
	}
	m := row[wi]
	i := wi*64 + bits.TrailingZeros64(m)
	lo, hi = loPlane[i], hiPlane[i]
	for m &= m - 1; ; m = row[wi] {
		base := wi * 64
		for ; m != 0; m &= m - 1 {
			i := base + bits.TrailingZeros64(m)
			lo = fmin(lo, loPlane[i])
			hi = fmax(hi, hiPlane[i])
		}
		if wi++; wi == len(row) {
			return lo, hi
		}
	}
}

// foldIntervalDelta extends an already-computed interval fold by the
// plane values at delta's set bits — the subset-delta path of
// core.MaskSeg.Base. It is bit-identical to folding the union row
// directly because fmin/fmax are exact multiset selections, so
// association order is free.
func foldIntervalDelta(loPlane, hiPlane []float64, delta []uint64, lo, hi float64) (float64, float64) {
	hiPlane = hiPlane[:len(loPlane)]
	for wi, m := range delta {
		base := wi * 64
		for ; m != 0; m &= m - 1 {
			i := base + bits.TrailingZeros64(m)
			lo = fmin(lo, loPlane[i])
			hi = fmax(hi, hiPlane[i])
		}
	}
	return lo, hi
}

// foldMean returns the mean of y over the row's set bits. The sum starts
// at 0.0 like the Agent path's Deliver (the leading zero addition matters
// for -0 inputs) and adds in ascending index. row must be non-empty.
func foldMean(y []float64, row []uint64) float64 {
	sum, count := 0.0, 0
	for wi, m := range row {
		base := wi * 64
		for ; m != 0; m &= m - 1 {
			sum += y[base+bits.TrailingZeros64(m)]
			count++
		}
	}
	return sum / float64(count)
}

// foldFlowSum returns the sum of y_i/deg_i over the row's set bits.
func foldFlowSum(y []float64, degs []int, row []uint64) float64 {
	sum := 0.0
	for wi, m := range row {
		base := wi * 64
		for ; m != 0; m &= m - 1 {
			i := base + bits.TrailingZeros64(m)
			sum += y[i] / float64(degs[i])
		}
	}
	return sum
}

// scanInformed reports whether the row contains an informed sender and
// the root value carried by the first (lowest-index) one.
func scanInformed(inf0, rv0 []float64, row []uint64) (heard bool, value float64) {
	for wi, m := range row {
		base := wi * 64
		for ; m != 0; m &= m - 1 {
			if i := base + bits.TrailingZeros64(m); inf0[i] == 1 {
				return true, rv0[i]
			}
		}
	}
	return false, 0
}
