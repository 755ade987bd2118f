// Package loadgen is the benchmark's HTTP load generator. It POSTs
// prebuilt request bodies over a fixed number of connections, either
// open loop (each request due on a fixed schedule, timed from when it
// was due, so a stall also charges the requests queued behind it) or
// closed loop (each connection sends its next request when the previous
// reply arrives). Every reply is handed to a check function before the
// connection moves on.
package loadgen

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Requests is the sequence a loop sends: N requests, Body(i) building
// request i and Check(i, ...) validating its reply (a non-nil error
// marks the request failed).
type Requests struct {
	N     int
	Body  func(i int) []byte
	Check func(i, status int, reply []byte) error
}

// Outcome is one request's record.
type Outcome struct {
	// Sent and Done bracket the request, from send to the end of its
	// reply; checking the reply comes after Done.
	Sent, Done time.Time
	// Latency runs from the request's due time (open loop) or send time
	// (closed loop) to Done.
	Latency time.Duration
	// Late is how long after its due time the request was sent (always
	// 0 in closed loop).
	Late time.Duration
	Err  error
}

// Client returns an HTTP client that opens at most conns connections.
func Client(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// Post sends one body to url and returns the status and reply.
func Post(ctx context.Context, client *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, fmt.Errorf("read reply: %w", err)
	}
	return resp.StatusCode, reply, nil
}

// OpenLoop sends request i at start+i/rate over conns connections until
// d has elapsed or the requests run out, and returns one outcome per
// request sent, in request order. A request whose connection was still
// busy at its due time waited on the system, and is timed from its due
// time. A request whose connection was idle was sent late only by the
// generator's own timer wakeup, and is timed from its send; Late still
// reports that delay.
func OpenLoop(ctx context.Context, client *http.Client, url string, reqs Requests, rate float64, conns int, d time.Duration) []Outcome {
	n := min(reqs.N, int(rate*d.Seconds()))
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	return drive(conns, n, func(i int, free time.Time) Outcome {
		due := start.Add(time.Duration(i) * interval)
		body := reqs.Body(i)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		o := send(ctx, client, url, body, i, reqs.Check)
		from := o.Sent
		if free.After(due) {
			from = due
		}
		o.Latency, o.Late = o.Done.Sub(from), o.Sent.Sub(due)
		return o
	}, nil)
}

// ClosedLoop keeps conns requests in flight, each connection sending
// its next request as soon as its previous reply is checked, until d
// has elapsed or the requests run out. It returns the outcomes in
// request order and the wall time the loop ran.
func ClosedLoop(ctx context.Context, client *http.Client, url string, reqs Requests, conns int, d time.Duration) ([]Outcome, time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	out := drive(conns, reqs.N, func(i int, _ time.Time) Outcome {
		o := send(ctx, client, url, reqs.Body(i), i, reqs.Check)
		o.Latency = o.Done.Sub(o.Sent)
		return o
	}, func() bool { return time.Now().After(deadline) })
	return out, time.Since(start)
}

// send posts body i, timestamps it, and checks the reply.
func send(ctx context.Context, client *http.Client, url string, body []byte, i int, check func(int, int, []byte) error) Outcome {
	o := Outcome{Sent: time.Now()}
	status, reply, err := Post(ctx, client, url, body)
	o.Done = time.Now()
	if err == nil {
		err = check(i, status, reply)
	}
	o.Err = err
	return o
}

// drive runs do(0..n-1) over conns goroutines, each taking the next
// index when free, until n is reached or stop reports true; do also
// gets the time its goroutine finished its previous index (zero for the
// first). It returns the outcomes of the indices taken, in index order.
func drive(conns, n int, do func(i int, free time.Time) Outcome, stop func() bool) []Outcome {
	out := make([]Outcome, n)
	var next, taken atomic.Int64
	var wg sync.WaitGroup
	wg.Add(conns)
	for c := 0; c < conns; c++ {
		go func() {
			defer wg.Done()
			var free time.Time
			for {
				if stop != nil && stop() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = do(i, free)
				free = time.Now()
				taken.Add(1)
			}
		}()
	}
	wg.Wait()
	// Indices are taken in order, so the first taken ones are done.
	return out[:min(int(taken.Load()), n)]
}
