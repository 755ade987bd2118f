package spans

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func span(id, parent uint64, start, end time.Duration) Span {
	return Span{ID: id, Parent: parent, Start: start, End: end}
}

func TestSelfTimeOnHandBuiltTree(t *testing.T) {
	ms := time.Millisecond
	// root [0,100): children [10,30) and [20,50) overlap (parallel
	// calls) and cover [10,50); child [90,120) sticks out past the
	// root and counts only [90,100). Self = 100 - 40 - 10 = 50.
	root := span(1, 0, 0, 100*ms)
	all := []Span{
		root,
		span(2, 1, 10*ms, 30*ms),
		span(3, 1, 20*ms, 50*ms),
		span(4, 1, 90*ms, 120*ms),
		span(5, 2, 12*ms, 14*ms), // grandchild: not the root's child
	}
	kids := Children(all, 1)
	if len(kids) != 3 {
		t.Fatalf("root has %d children, want 3", len(kids))
	}
	if got := SelfTime(root, kids); got != 50*ms {
		t.Errorf("root self time = %v, want 50ms", got)
	}
	// The child with a grandchild: 20 - 2 = 18.
	if got := SelfTime(all[1], Children(all, 2)); got != 18*ms {
		t.Errorf("child self time = %v, want 18ms", got)
	}
	// A leaf's self time is its duration.
	if got := SelfTime(all[2], Children(all, 3)); got != 30*ms {
		t.Errorf("leaf self time = %v, want 30ms", got)
	}
}

func TestSelfTimesAccountForTheRoot(t *testing.T) {
	ms := time.Millisecond
	// Properly nested: self times 50 + 20 + 25 + 5 sum to the root's 100.
	all := []Span{
		span(1, 0, 0, 100*ms),
		span(2, 1, 10*ms, 30*ms),
		span(3, 1, 40*ms, 70*ms),
		span(4, 3, 45*ms, 50*ms),
	}
	total := time.Duration(0)
	for _, s := range all {
		total += SelfTime(s, Children(all, s.ID))
	}
	if total != all[0].Duration() {
		t.Errorf("self times sum to %v, want the root's %v", total, all[0].Duration())
	}
}

func TestRecorderLinksAndExports(t *testing.T) {
	var nilRec *Recorder
	if id := nilRec.Begin("x", 0); id != 0 {
		t.Fatalf("nil recorder returned span %d", id)
	}
	nilRec.End(0)

	r := New("run-1")
	root := r.Begin("root", 0)
	child := r.Begin("child", root)
	r.End(child)
	r.End(root)
	got := r.Spans()
	if len(got) != 2 || got[1].Parent != root || got[0].Run != "run-1" || got[1].Run != "run-1" {
		t.Fatalf("spans = %+v", got)
	}
	if got[0].End < got[1].End || got[1].Start < got[0].Start {
		t.Errorf("child %+v not inside root %+v", got[1], got[0])
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back []Span
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil || len(back) != 2 {
		t.Fatalf("round trip: %v, %d spans", err, len(back))
	}
}

func TestRecorderConcurrentUse(t *testing.T) {
	r := New("run-2")
	root := r.Begin("root", 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.End(r.Begin("child", root))
				r.Add("added", root, time.Now(), time.Now())
			}
		}()
	}
	wg.Wait()
	r.End(root)
	all := r.Spans()
	if got := len(Children(all, root)); got != 1600 {
		t.Fatalf("root has %d children, want 1600", got)
	}
	for _, s := range all {
		if s.End < s.Start {
			t.Fatalf("span %+v ended before it started", s)
		}
	}
}
