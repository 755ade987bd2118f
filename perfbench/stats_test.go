package main

import (
	"math"
	"testing"
	"time"
)

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		q    float64
		need int
	}{{0.9, 100}, {0.99, 1000}, {0.5, 20}} {
		if got := minSamples(tc.q); got != tc.need {
			t.Errorf("minSamples(%g) = %d, want %d", tc.q, got, tc.need)
		}
		short := make([]float64, tc.need-1)
		if _, err := tailQuantile(short, tc.q); err == nil {
			t.Errorf("p%g of %d samples accepted", tc.q*100, len(short))
		}
		enough := make([]float64, tc.need)
		for i := range enough {
			enough[i] = float64(i + 1)
		}
		v, err := tailQuantile(enough, tc.q)
		if err != nil {
			t.Errorf("p%g of %d samples: %v", tc.q*100, tc.need, err)
		}
		if beyond := tc.need - int(v); beyond != minBeyond {
			t.Errorf("p%g of 1..%d = %g leaves %d beyond, want %d", tc.q*100, tc.need, v, beyond, minBeyond)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for q, want := range map[float64]float64{0.5: 5, 0.9: 9, 0.91: 10, 0.1: 1, 1: 10} {
		if got := quantile(s, q); got != want {
			t.Errorf("quantile(1..10, %g) = %g, want %g", q, got, want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestWindowRatesSpreadOperations(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	// One 100-round operation over [0, 2s) and one 50-round operation
	// over [1.5s, 2s): window [0, 1s) gets 50 rounds, [1s, 2s) gets 100.
	ops := []opSpan{{at(0), at(2000), 100}, {at(1500), at(2000), 50}}
	got := windowRates(ops, at(0), at(2000), 2)
	for i, want := range []float64{50, 100} {
		if math.Abs(got[i]-want) > 1e-9 {
			t.Errorf("window %d: %g rounds/s, want %g", i, got[i], want)
		}
	}
}

// A traced loop pairs each traced (odd) operation with the untraced
// one before it, and skips a pair whose either side failed.
func TestTracePairing(t *testing.T) {
	m := &e2e{}
	for i, op := range []struct {
		lat float64
		ok  bool
	}{{10, true}, {12, true}, {10, false}, {30, true}, {9, true}, {8, false}, {11, true}, {10.5, true}} {
		m.pair(i, op.lat, op.ok)
	}
	want := []float64{2, -0.5}
	if len(m.traceDiffs) != len(want) {
		t.Fatalf("diffs %v, want %v", m.traceDiffs, want)
	}
	for i := range want {
		if m.traceDiffs[i] != want[i] {
			t.Fatalf("diffs %v, want %v", m.traceDiffs, want)
		}
	}
}
