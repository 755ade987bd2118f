package distributed

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/consensus"
)

// StreamEntry is one recorded sweep request: its offset from the start
// of the recording and the request body. Streams are stored as JSONL,
// one entry per line, replayable at a time-compression factor.
type StreamEntry struct {
	AtMS    int64        `json:"at_ms"`
	Request SweepRequest `json:"request"`
}

// ReadStream decodes a JSONL request stream.
func ReadStream(r io.Reader) ([]StreamEntry, error) {
	var entries []StreamEntry
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxRequestBytes)
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var e StreamEntry
		if err := json.Unmarshal(raw, &e); err != nil {
			return nil, fmt.Errorf("distributed: stream line %d: %v", line, err)
		}
		entries = append(entries, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("distributed: stream holds no requests")
	}
	return entries, nil
}

// WriteStream encodes a request stream as JSONL.
func WriteStream(w io.Writer, entries []StreamEntry) error {
	enc := json.NewEncoder(w)
	for i := range entries {
		if err := enc.Encode(&entries[i]); err != nil {
			return err
		}
	}
	return nil
}

// SyntheticOptions shapes SyntheticStream.
type SyntheticOptions struct {
	// Requests is the entry count (default 50).
	Requests int
	// SpecsPerRequest is the sweep width per entry (default 8).
	SpecsPerRequest int
	// RepeatFraction in [0,1] is the probability a spec repeats an
	// earlier one — the store-hit knob (default 0.5).
	RepeatFraction float64
	// IntervalMS is the mean gap between entries (default 100).
	IntervalMS int64
	// Seed makes the stream reproducible (default 1).
	Seed int64
}

// SyntheticStream generates a deterministic mixed sweep/scenario-grid
// request stream: midpoint/amortized/mean runs over deaf and psi
// models, a slice of scenario-driven specs, and a tunable fraction of
// exact repeats to exercise the content-addressed store.
func SyntheticStream(opts SyntheticOptions) []StreamEntry {
	if opts.Requests <= 0 {
		opts.Requests = 50
	}
	if opts.SpecsPerRequest <= 0 {
		opts.SpecsPerRequest = 8
	}
	if opts.RepeatFraction < 0 {
		opts.RepeatFraction = 0
	}
	if opts.RepeatFraction > 1 {
		opts.RepeatFraction = 1
	}
	if opts.IntervalMS <= 0 {
		opts.IntervalMS = 100
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	models := []string{"deaf:4", "deaf:6", "deaf:8", "psi:5"}
	algs := []string{"midpoint", "amortized", "mean"}
	advs := []string{"cycle", "random"}
	scens := []string{"eventuallyrooted:5,2", "partitionheal:6,2,4"}

	fresh := func() consensus.RunSpec {
		if rng.Float64() < 0.25 {
			return consensus.RunSpec{
				Scenario:  scens[rng.Intn(len(scens))],
				Algorithm: algs[rng.Intn(len(algs))],
				Rounds:    8 + rng.Intn(8),
			}
		}
		return consensus.RunSpec{
			Model:     models[rng.Intn(len(models))],
			Algorithm: algs[rng.Intn(len(algs))],
			Adversary: advs[rng.Intn(len(advs))],
			Rounds:    10 + rng.Intn(20),
			Seed:      int64(1 + rng.Intn(16)),
		}
	}

	var seen []consensus.RunSpec
	entries := make([]StreamEntry, opts.Requests)
	at := int64(0)
	for i := range entries {
		specs := make([]consensus.RunSpec, opts.SpecsPerRequest)
		for j := range specs {
			if len(seen) > 0 && rng.Float64() < opts.RepeatFraction {
				specs[j] = seen[rng.Intn(len(seen))]
			} else {
				specs[j] = fresh()
				seen = append(seen, specs[j])
			}
		}
		entries[i] = StreamEntry{AtMS: at, Request: SweepRequest{Specs: specs}}
		at += 1 + rng.Int63n(2*opts.IntervalMS)
	}
	return entries
}

// ReplayOptions shapes Replay.
type ReplayOptions struct {
	// Speed divides the recorded gaps: 10 replays a stream ten times
	// faster than recorded (default 1; <= 0 means 1).
	Speed float64
	// Concurrency caps in-flight requests (default 8).
	Concurrency int
	// Attempts caps tries per request across 429 rejections, honoring
	// Retry-After between tries (default 3).
	Attempts int
	// Client overrides the HTTP client.
	Client *http.Client
}

// ReplayReport aggregates one replay run.
type ReplayReport struct {
	Requests  int     `json:"requests"`
	Specs     int     `json:"specs"`
	Errors    int     `json:"errors"`
	Rejected  int     `json:"rejected"` // 429 responses observed (retried up to Attempts)
	ElapsedMS int64   `json:"elapsed_ms"`
	ReqPerSec float64 `json:"req_per_sec"`

	LatencyP50MS float64 `json:"latency_p50_ms"`
	LatencyP95MS float64 `json:"latency_p95_ms"`
	LatencyP99MS float64 `json:"latency_p99_ms"`
	LatencyMaxMS float64 `json:"latency_max_ms"`
}

// Replay replays a recorded request stream against a coordinator (or a
// single-process sweep server — the request shape is shared) at a time
// compression factor, measuring sustained request rate and latency
// percentiles. Latency is measured per successful request, first byte
// to last; 429s wait out Retry-After and retry up to Attempts.
func Replay(ctx context.Context, baseURL string, entries []StreamEntry, opts ReplayOptions) (*ReplayReport, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("distributed: nothing to replay")
	}
	if opts.Speed <= 0 {
		opts.Speed = 1
	}
	if opts.Concurrency <= 0 {
		opts.Concurrency = 8
	}
	if opts.Attempts <= 0 {
		opts.Attempts = 3
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{}
	}

	var (
		mu        sync.Mutex
		latencies []float64
		errs      int
		rejected  int
		specs     int
	)
	sem := make(chan struct{}, opts.Concurrency)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range entries {
		e := &entries[i]
		due := time.Duration(float64(e.AtMS)/opts.Speed) * time.Millisecond
		if wait := due - time.Since(start); wait > 0 {
			if err := sleepCtx(ctx, wait); err != nil {
				break
			}
		}
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			lat, rej, err := replayOne(ctx, client, baseURL, e, opts.Attempts)
			mu.Lock()
			defer mu.Unlock()
			rejected += rej
			if err != nil {
				errs++
				return
			}
			latencies = append(latencies, lat.Seconds()*1000)
			specs += len(e.Request.Specs)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &ReplayReport{
		Requests:  len(entries),
		Specs:     specs,
		Errors:    errs,
		Rejected:  rejected,
		ElapsedMS: elapsed.Milliseconds(),
	}
	if elapsed > 0 {
		rep.ReqPerSec = float64(len(latencies)) / elapsed.Seconds()
	}
	if len(latencies) > 0 {
		sort.Float64s(latencies)
		rep.LatencyP50MS = percentile(latencies, 0.50)
		rep.LatencyP95MS = percentile(latencies, 0.95)
		rep.LatencyP99MS = percentile(latencies, 0.99)
		rep.LatencyMaxMS = latencies[len(latencies)-1]
	}
	return rep, nil
}

// replayOne sends one request, retrying over 429s. rej counts the 429s
// observed regardless of the final outcome.
func replayOne(ctx context.Context, client *http.Client, baseURL string, e *StreamEntry, attempts int) (lat time.Duration, rej int, err error) {
	body, err := json.Marshal(&e.Request)
	if err != nil {
		return 0, 0, err
	}
	for attempt := 1; attempt <= attempts; attempt++ {
		req, rerr := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/api/v1/sweep", bytes.NewReader(body))
		if rerr != nil {
			return 0, rej, rerr
		}
		req.Header.Set("Content-Type", "application/json")
		t0 := time.Now()
		resp, rerr := client.Do(req)
		if rerr != nil {
			return 0, rej, rerr
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusOK:
			return time.Since(t0), rej, nil
		case resp.StatusCode == http.StatusTooManyRequests:
			rej++
			wait := time.Second
			if s, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil && s > 0 {
				wait = time.Duration(s) * time.Second
			}
			if attempt < attempts {
				if serr := sleepCtx(ctx, wait); serr != nil {
					return 0, rej, serr
				}
				continue
			}
			return 0, rej, fmt.Errorf("distributed: rejected %d times", rej)
		default:
			return 0, rej, fmt.Errorf("distributed: %s from %s", resp.Status, baseURL)
		}
	}
	return 0, rej, fmt.Errorf("distributed: rejected %d times", rej)
}

// percentile reads quantile q from sorted (ascending) values.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(float64(q*float64(len(sorted)))+0.5) - 1 // rounded product: never fused
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
