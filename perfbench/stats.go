package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile: a tail read off fewer samples is one outlier's value.
const minBeyond = 10

// tailQ is the tail percentile latency_tail_ms reports on every
// workload. Over six seeds of one build on a shared 2-CPU host, the
// p99 of serve-mixed spread 38% (IQR over median), wider than any bound
// the benchmark may set, while p90 spread 12%.
const tailQ = 0.9

// rankOf returns the 1-based nearest rank of the q-quantile among n
// samples. The epsilon keeps products such as 0.9*100 = 90.00000000000001
// from rounding up a rank.
func rankOf(n int, q float64) int {
	k := int(math.Ceil(q*float64(n) - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// samplesBeyond returns how many of n samples rank after the q-quantile.
func samplesBeyond(n int, q float64) int { return n - rankOf(n, q) }

// minSamples returns the smallest sample count whose q-quantile has
// minBeyond samples beyond it.
func minSamples(q float64) int {
	n := 1
	for samplesBeyond(n, q) < minBeyond {
		n++
	}
	return n
}

// quantile returns the nearest-rank q-quantile of sorted; 0 when empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(len(sorted), q)-1]
}

// tailQuantile returns the q-quantile of sorted, refusing it when fewer
// than minBeyond samples lie beyond it.
func tailQuantile(sorted []float64, q float64) (float64, error) {
	if b := samplesBeyond(len(sorted), q); b < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", q*100, len(sorted), b, minBeyond)
	}
	return quantile(sorted, q), nil
}

// median returns the median of xs (mean of the middle pair when even)
// without reordering xs; 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// opSpan is one completed operation and the spec rounds it carried.
type opSpan struct {
	start, end time.Time
	rounds     int64
}

// windowRates splits [from, to) into k equal windows and returns the
// spec rounds per second completed in each. An operation's rounds are
// spread evenly over its own interval, so a window gets the share of
// each operation that overlaps it and the rate does not jump with how
// many operations happen to end inside a window.
func windowRates(ops []opSpan, from, to time.Time, k int) []float64 {
	w := to.Sub(from) / time.Duration(k)
	rates := make([]float64, k)
	for _, op := range ops {
		d := op.end.Sub(op.start)
		for i := range rates {
			lo, hi := from.Add(time.Duration(i)*w), from.Add(time.Duration(i+1)*w)
			if overlap := minTime(hi, op.end).Sub(maxTime(lo, op.start)); overlap > 0 {
				rates[i] += float64(op.rounds) * float64(overlap) / float64(max(d, 1))
			}
		}
	}
	for i := range rates {
		rates[i] /= w.Seconds()
	}
	return rates
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio returns a/b, 0 when b is 0.
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// mean returns the mean of xs; 0 when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}
