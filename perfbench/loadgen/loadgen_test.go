package loadgen

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// A server slower than the offered rate: each request waits for the one
// before it on the single connection, so open-loop latency measured
// from the due time grows, while send-to-reply time stays flat.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const work = 20 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(work)
	}))
	defer srv.Close()
	client := Client(1)
	defer client.CloseIdleConnections()
	var checked int
	reqs := Requests{N: 10, Body: func(int) []byte { return nil }, Check: func(i, status int, body []byte) error {
		checked++
		return nil
	}}
	out := OpenLoop(context.Background(), client, srv.URL, reqs, 100, 1, time.Second)
	if len(out) != 10 || checked != 10 {
		t.Fatalf("%d outcomes, %d checks, want 10", len(out), checked)
	}
	last := out[len(out)-1]
	// Due at 90ms, served after the nine before it: done near 200ms.
	if last.Latency < 80*time.Millisecond {
		t.Errorf("last request latency %v: not timed from its due time", last.Latency)
	}
	if last.Late < 60*time.Millisecond {
		t.Errorf("last request sent %v late, want the backlog", last.Late)
	}
	if sendToDone := last.Done.Sub(last.Sent); sendToDone > last.Latency-last.Late+time.Millisecond {
		t.Errorf("latency %v is not lateness %v plus service %v", last.Latency, last.Late, sendToDone)
	}
}

// A fast server at a low rate: every connection is idle when its next
// request falls due, so no request is charged the generator's own
// wakeup delay.
func TestOpenLoopIdleConnectionTimesFromSend(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()
	client := Client(2)
	defer client.CloseIdleConnections()
	reqs := Requests{N: 10, Body: func(int) []byte { return nil }, Check: func(int, int, []byte) error { return nil }}
	out := OpenLoop(context.Background(), client, srv.URL, reqs, 50, 2, time.Second)
	if len(out) != 10 {
		t.Fatalf("%d outcomes, want 10", len(out))
	}
	for i, o := range out {
		if o.Latency != o.Done.Sub(o.Sent) {
			t.Errorf("request %d: latency %v, want send-to-reply %v", i, o.Latency, o.Done.Sub(o.Sent))
		}
		if o.Late < 0 {
			t.Errorf("request %d sent %v before it was due", i, -o.Late)
		}
	}
}

func TestClosedLoopStopsAtDeadline(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(5 * time.Millisecond)
	}))
	defer srv.Close()
	client := Client(2)
	defer client.CloseIdleConnections()
	reqs := Requests{N: 1000, Body: func(int) []byte { return nil }, Check: func(int, int, []byte) error { return nil }}
	out, elapsed := ClosedLoop(context.Background(), client, srv.URL, reqs, 2, 50*time.Millisecond)
	if len(out) == 0 || len(out) >= 1000 {
		t.Fatalf("%d requests in a 50ms closed loop", len(out))
	}
	if elapsed < 50*time.Millisecond {
		t.Errorf("loop ran %v, want at least its 50ms", elapsed)
	}
	for i, o := range out {
		if o.Sent.IsZero() || o.Err != nil {
			t.Fatalf("outcome %d incomplete: %+v", i, o)
		}
	}
}
