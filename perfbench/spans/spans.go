// Package spans is the benchmark's own in-memory span recorder. The
// benchmark wraps each call it makes into a layer of the system in a
// span (name, start, end, parent, shared run ID), keeps the spans in
// memory, and writes them out when the run ends. A nil *Recorder records
// nothing, so untraced runs pay only a nil check per call.
package spans

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one recorded call. Start and End are offsets from the
// recorder's epoch; Parent is 0 for a root span.
type Span struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"`
	Run    string        `json:"run"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Duration is the span's wall time.
func (s Span) Duration() time.Duration { return s.End - s.Start }

// Recorder collects spans of one run. It is safe for concurrent use.
type Recorder struct {
	run   string
	epoch time.Time

	mu    sync.Mutex
	spans []Span
}

// New returns an empty recorder whose spans carry the run ID.
func New(run string) *Recorder {
	return &Recorder{run: run, epoch: time.Now()}
}

// Begin opens a span and returns its ID (0 on a nil recorder).
func (r *Recorder) Begin(name string, parent uint64) uint64 {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{ID: uint64(len(r.spans) + 1), Parent: parent, Run: r.run, Name: name, Start: now, End: -1})
	return uint64(len(r.spans))
}

// Add records a span already timed by the caller and returns its ID
// (0 on a nil recorder).
func (r *Recorder) Add(name string, parent uint64, start, end time.Time) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{ID: uint64(len(r.spans) + 1), Parent: parent, Run: r.run, Name: name,
		Start: start.Sub(r.epoch), End: end.Sub(r.epoch)})
	return uint64(len(r.spans))
}

// End closes the span id; ending 0 is a no-op.
func (r *Recorder) End(id uint64) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// Get returns the span id.
func (r *Recorder) Get(id uint64) Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id-1]
}

// Spans returns a copy of every span recorded so far.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// WriteJSON writes every span as one JSON array.
func (r *Recorder) WriteJSON(w io.Writer) error {
	spans := r.Spans()
	if spans == nil {
		spans = []Span{}
	}
	return json.NewEncoder(w).Encode(spans)
}

// Children returns the spans whose parent is id, in recording order.
func Children(all []Span, id uint64) []Span {
	var out []Span
	for _, s := range all {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

// SelfTime returns a span's duration minus the part of its interval
// that its children cover. Overlapping children (parallel calls) are
// counted once, and child time outside the parent's interval is ignored.
func SelfTime(parent Span, children []Span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered := time.Duration(0)
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			covered += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.hi - cur.lo
	}
	return parent.Duration() - covered
}
