package algorithms

import "repro/internal/core"

// This file implements the batched execution plane (core.BatchStepper)
// for the algorithms whose per-receiver update is a pure function of the
// in-row: one call steps every run of plan.Runs — the whole batch on
// shared-graph rounds, one graph-cluster of it on clustered per-run
// rounds — under one shared graph, with the receiver segmentation
// (plan.Segs) computed once (and cached by the runner across rounds)
// instead of once per run per receiver. The steppers read rows only
// through plan.MaskRow and plan.DeltaRow and fold them with the row
// folds of fold.go, so one body serves every graph width.
//
// Bit-identity contract: within each run every stored float carries the
// same bits StepDense would store. Two fold-sharing moves go beyond the
// single-run last-row memo: fold reuse across non-adjacent segments
// with equal rows (seg.Fold), and subset-delta folds (seg.Base) that
// extend an earlier fold by the row difference. Both are transparent
// for min/max folds because fmin/fmax are exact multiset selections —
// the result does not depend on association order, NaN and signed-zero
// cases included. Order-sensitive folds (Mean's sum, FlowSum) ignore
// seg.Base and fold their rows in StepDense's index order. The
// randomized differential tests in dense_batch_test.go pin
// batch-vs-single equivalence for every dense algorithm, batched
// stepper or not.
//
// SelfWeighted and TwoThirds keep the generic per-view path: their
// updates depend on the receiver index, so there is nothing
// run-independent to share.

// hullAcc accumulates a running output hull. The accumulated interval
// is bit-identical to core.Hull over the full output vector as long as
// every distinct output value is fed at least once in output order:
// min/max are exact multiset selections, so repeated values (a segment's
// shared fold result) need only one visit. fmin/fmax are pinned
// bit-identical to the math.Min/Max that core.Hull uses.
type hullAcc struct {
	lo, hi float64
	any    bool
}

func (h *hullAcc) add(v float64) {
	if !h.any {
		h.lo, h.hi, h.any = v, v, true
		return
	}
	h.lo = fmin(h.lo, v)
	h.hi = fmax(h.hi, v)
}

func (h *hullAcc) commit(plan *core.StepPlan, r int) {
	plan.HullLo[r], plan.HullHi[r] = h.lo, h.hi
}

// segBounds returns the receivers [jLo, jHi) of seg this call writes:
// the whole segment, or its intersection with a word shard's receiver
// range, which may be empty.
func segBounds(p *core.StepPlan, seg *core.MaskSeg) (jLo, jHi int) {
	if p.RecvHi == 0 {
		return seg.Start, seg.End
	}
	return max(seg.Start, p.RecvLo), min(seg.End, p.RecvHi)
}

// segFolds is the fold-sharing switch of the three min/max batch
// steppers (Midpoint, QuantizedMidpoint, AmortizedMidpoint). For one run
// it stores the interval fold (min over loPlane, max over hiPlane) of
// every segment of plan.SegRange with receivers to write into the
// plan's F0/F1 slot of that segment. Fold reuse and subset-delta
// extension apply when the referenced fold lies in the shard, and
// anything owned before the shard is refolded from its row —
// bit-identical either way, since the folds are exact multiset
// selections.
func segFolds(p *core.StepPlan, loPlane, hiPlane []float64) {
	segLo, segHi := p.SegRange()
	los, his := p.F0, p.F1
	for si := segLo; si < segHi; si++ {
		seg := &p.Segs[si]
		switch {
		case p.RecvHi != 0:
			// Receiver shards refold every touched segment from its own
			// row: cross-segment reuse could read a fold slot owned by a
			// segment this shard never visited.
			if jLo, jHi := segBounds(p, seg); jLo < jHi {
				los[si], his[si] = foldInterval(loPlane, hiPlane, p.MaskRow(seg))
			}
		case seg.Fold != si && seg.Fold >= segLo:
			los[si], his[si] = los[seg.Fold], his[seg.Fold]
		case seg.Fold == si && seg.Base >= segLo:
			los[si], his[si] = foldIntervalDelta(loPlane, hiPlane, p.DeltaRow(seg), los[seg.Base], his[seg.Base])
		default:
			los[si], his[si] = foldInterval(loPlane, hiPlane, p.MaskRow(seg))
		}
	}
}

// FoldShardable implements core.FoldShardCapable: the midpoint folds
// are exact min/max selections, so a segment shard may recompute an
// out-of-shard fold from its row with the same resulting bits.
func (Midpoint) FoldShardable() bool { return true }

// StepDenseBatch implements core.BatchStepper. Distinct folds carrying a
// subset base (MaskSeg.Base) extend the base fold by the delta bits — an
// exact multiset selection, so the midpoint bits match the full refold.
func (Midpoint) StepDenseBatch(dst, src *core.BatchState, plan *core.StepPlan) {
	stepMidpointBatch(dst, src, plan, 0)
}

// stepMidpointBatch is the batched stepper of both midpoint algorithms
// (see stepMidpoint): each segment's receivers adopt midValue of its
// interval fold.
func stepMidpointBatch(dst, src *core.BatchState, plan *core.StepPlan, q float64) {
	segLo, segHi := plan.SegRange()
	los, his := plan.F0, plan.F1
	for _, r := range plan.Runs {
		y, out := src.RunY(r), dst.RunY(r)
		segFolds(plan, y, y)
		var hull hullAcc
		for si := segLo; si < segHi; si++ {
			jLo, jHi := segBounds(plan, &plan.Segs[si])
			if jLo >= jHi {
				continue
			}
			v := midValue(los[si], his[si], q)
			if plan.WantHull {
				hull.add(v)
			}
			for j := jLo; j < jHi; j++ {
				out[j] = v
			}
		}
		if plan.WantHull {
			hull.commit(plan, r)
		}
	}
	plan.HullDone = plan.WantHull
}

// StepDenseBatch implements core.BatchStepper.
func (Mean) StepDenseBatch(dst, src *core.BatchState, plan *core.StepPlan) {
	means := plan.F0
	for _, r := range plan.Runs {
		y, out := src.RunY(r), dst.RunY(r)
		var hull hullAcc
		for si := range plan.Segs {
			seg := &plan.Segs[si]
			var mean float64
			if seg.Fold == si {
				mean = foldMean(y, plan.MaskRow(seg))
				means[si] = mean
			} else {
				mean = means[seg.Fold]
			}
			if plan.WantHull {
				hull.add(mean)
			}
			for j := seg.Start; j < seg.End; j++ {
				out[j] = mean
			}
		}
		if plan.WantHull {
			hull.commit(plan, r)
		}
	}
	plan.HullDone = plan.WantHull
}

// FoldShardable implements core.FoldShardCapable (see Midpoint).
func (QuantizedMidpoint) FoldShardable() bool { return true }

// StepDenseBatch implements core.BatchStepper like Midpoint's.
func (a QuantizedMidpoint) StepDenseBatch(dst, src *core.BatchState, plan *core.StepPlan) {
	stepMidpointBatch(dst, src, plan, a.Q)
}

// FoldShardable implements core.FoldShardCapable: the interval fold is
// a pair of exact min/max selections, so segment shards stay
// bit-transparent (see Midpoint).
func (AmortizedMidpoint) FoldShardable() bool { return true }

// StepDenseBatch implements core.BatchStepper, sharing folds like
// Midpoint's.
func (AmortizedMidpoint) StepDenseBatch(dst, src *core.BatchState, plan *core.StepPlan) {
	phaseEnd := dst.Round()%amortizedPhase(src.N()) == 0
	segLo, segHi := plan.SegRange()
	los, his := plan.F0, plan.F1
	for _, r := range plan.Runs {
		y := src.RunY(r)
		lo0, hi0 := src.RunPlane(r, amortizedPlaneLo), src.RunPlane(r, amortizedPlaneHi)
		oy := dst.RunY(r)
		olo, ohi := dst.RunPlane(r, amortizedPlaneLo), dst.RunPlane(r, amortizedPlaneHi)
		segFolds(plan, lo0, hi0)
		var hull hullAcc
		for si := segLo; si < segHi; si++ {
			jLo, jHi := segBounds(plan, &plan.Segs[si])
			if jLo >= jHi {
				continue
			}
			lo, hi := los[si], his[si]
			if phaseEnd {
				mid := (lo + hi) / 2
				if plan.WantHull {
					hull.add(mid)
				}
				for j := jLo; j < jHi; j++ {
					oy[j], olo[j], ohi[j] = mid, mid, mid
				}
			} else {
				for j := jLo; j < jHi; j++ {
					oy[j], olo[j], ohi[j] = y[j], lo, hi
					if plan.WantHull {
						hull.add(y[j])
					}
				}
			}
		}
		if plan.WantHull {
			hull.commit(plan, r)
		}
	}
	plan.HullDone = plan.WantHull
}

// StepDenseBatch implements core.BatchStepper.
func (f FlowSum) StepDenseBatch(dst, src *core.BatchState, plan *core.StepPlan) {
	sums := plan.F0
	for _, r := range plan.Runs {
		y, out := src.RunY(r), dst.RunY(r)
		var hull hullAcc
		for si := range plan.Segs {
			seg := &plan.Segs[si]
			var sum float64
			if seg.Fold == si {
				sum = foldFlowSum(y, f.OutDegrees, plan.MaskRow(seg))
				sums[si] = sum
			} else {
				sum = sums[seg.Fold]
			}
			if plan.WantHull {
				hull.add(sum)
			}
			for j := seg.Start; j < seg.End; j++ {
				out[j] = sum
			}
		}
		if plan.WantHull {
			hull.commit(plan, r)
		}
	}
	plan.HullDone = plan.WantHull
}

// StepDenseBatch implements core.BatchStepper. Whether a row contains
// an informed sender depends on the run's informed plane, so the scan is
// per run per segment — but the segmentation itself, the dominant
// per-receiver bookkeeping on mostly-uninformed rounds, is shared.
func (FloodRoot) StepDenseBatch(dst, src *core.BatchState, plan *core.StepPlan) {
	heards, values := plan.F0, plan.F1
	for _, r := range plan.Runs {
		y := src.RunY(r)
		inf0, rv0 := src.RunPlane(r, floodPlaneInformed), src.RunPlane(r, floodPlaneRoot)
		oy := dst.RunY(r)
		oinf, orv := dst.RunPlane(r, floodPlaneInformed), dst.RunPlane(r, floodPlaneRoot)
		var hull hullAcc
		for si := range plan.Segs {
			seg := &plan.Segs[si]
			scanned := false
			for j := seg.Start; j < seg.End; j++ {
				oy[j], oinf[j], orv[j] = y[j], inf0[j], rv0[j]
				if inf0[j] != 1 {
					if !scanned {
						scanned = true
						if seg.Fold != si && heards[seg.Fold] >= 0 {
							heards[si], values[si] = heards[seg.Fold], values[seg.Fold]
						} else {
							heard, v := scanInformed(inf0, rv0, plan.MaskRow(seg))
							if heard {
								heards[si], values[si] = 1, v
							} else {
								heards[si], values[si] = 0, 0
							}
						}
					}
					if heards[si] == 1 {
						oy[j], oinf[j], orv[j] = values[si], 1, values[si]
					}
				}
				if plan.WantHull {
					hull.add(oy[j])
				}
			}
			if !scanned {
				// No uninformed receiver consulted this segment; mark its
				// fold slot unset so later equal-row segments rescan.
				heards[si] = -1
			}
		}
		if plan.WantHull {
			hull.commit(plan, r)
		}
	}
	plan.HullDone = plan.WantHull
}
