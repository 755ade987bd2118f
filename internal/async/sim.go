// Package async implements the classical asynchronous message-passing
// system with crashes of Section 8 of Függer, Nowak, Schwarz (PODC 2018):
// an event-driven simulator with per-message delays normalized to at most
// 1 (the paper's standard convention of measuring asynchronous time),
// unclean crashes whose final broadcast reaches an adversarially chosen
// subset of agents, the round-based algorithm framework (wait for n-f
// messages of the current round), the Fekete-style selected-mean update
// matching the 1/(⌈n/f⌉-1) upper bound, and the MinRelay algorithm of
// Theorem 7 that equalizes all correct agents by time f+1.
package async

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
)

// Message is what an asynchronous process broadcasts.
type Message struct {
	From int
	// Round tags messages of round-based algorithms; 0 for untagged.
	Round int
	// Value carries the consensus variable.
	Value float64
	// Aux carries extra algorithm state for round-based agents whose
	// synchronous counterparts broadcast auxiliary payloads (e.g. the
	// amortized midpoint's interval or flood-root's informed flag); nil
	// otherwise. Receivers must not mutate it.
	Aux []float64
	// Set carries the MinRelay value set (sorted ascending); nil
	// otherwise. Receivers must not mutate it.
	Set []float64
}

// Process is a deterministic asynchronous agent: it emits broadcasts at
// start-up and in reaction to deliveries.
type Process interface {
	// ID returns the agent identity.
	ID() int
	// Init returns the broadcasts issued at time 0.
	Init() []Message
	// Receive handles one delivered message and returns the broadcasts it
	// triggers (usually none or one).
	Receive(m Message) []Message
	// Output returns the agent's current consensus value.
	Output() float64
}

// DelayFn assigns each transmission a delay. Returned delays must lie in
// (0, 1]; the simulator enforces this, matching the normalization that
// the longest end-to-end delay is one time unit.
type DelayFn func(from, to int, sendTime float64) float64

// UniformDelays returns a DelayFn drawing i.i.d. delays from
// [lo, 1], using the given seed.
func UniformDelays(seed int64, lo float64) DelayFn {
	if lo <= 0 || lo > 1 {
		panic(fmt.Sprintf("async: delay floor %v outside (0,1]", lo))
	}
	rng := rand.New(rand.NewSource(seed))
	return func(int, int, float64) float64 {
		return lo + float64((1-lo)*rng.Float64()) // rounded product: never fused
	}
}

// ConstantDelay returns a DelayFn with a fixed delay d in (0, 1].
func ConstantDelay(d float64) DelayFn {
	if d <= 0 || d > 1 {
		panic(fmt.Sprintf("async: constant delay %v outside (0,1]", d))
	}
	return func(int, int, float64) float64 { return d }
}

// Crash describes an unclean crash: the agent completes AfterBroadcasts
// broadcasts normally, then crashes during its next broadcast, which is
// delivered only to the agents in Recipients (a bitmask; the crashing
// agent itself never counts). The agent takes no further steps.
type Crash struct {
	Agent           int
	AfterBroadcasts int
	Recipients      uint64
}

// event is a message delivery.
type event struct {
	time float64
	seq  int
	to   int
	msg  Message
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h eventHeap) Peek() (event, bool) {
	if len(h) == 0 {
		return event{}, false
	}
	return h[0], true
}

// Simulator drives a set of processes through an asynchronous execution.
type Simulator struct {
	n          int
	procs      []Process
	delay      DelayFn
	crashes    map[int]Crash
	crashed    []bool
	broadcasts []int
	queue      eventHeap
	now        float64
	seq        int
	delivered  int
}

// NewSimulator wires processes, a delay function, and a crash schedule
// together and enqueues the initial broadcasts. Process IDs must be
// 0..n-1 in order.
func NewSimulator(procs []Process, delay DelayFn, crashes []Crash) (*Simulator, error) {
	n := len(procs)
	if n == 0 {
		return nil, fmt.Errorf("async: no processes")
	}
	for i, p := range procs {
		if p.ID() != i {
			return nil, fmt.Errorf("async: process %d reports ID %d", i, p.ID())
		}
	}
	s := &Simulator{
		n:          n,
		procs:      procs,
		delay:      delay,
		crashes:    make(map[int]Crash, len(crashes)),
		crashed:    make([]bool, n),
		broadcasts: make([]int, n),
	}
	for _, c := range crashes {
		if c.Agent < 0 || c.Agent >= n {
			return nil, fmt.Errorf("async: crash of unknown agent %d", c.Agent)
		}
		if _, dup := s.crashes[c.Agent]; dup {
			return nil, fmt.Errorf("async: duplicate crash for agent %d", c.Agent)
		}
		s.crashes[c.Agent] = c
	}
	heap.Init(&s.queue)
	for i, p := range procs {
		for _, m := range p.Init() {
			s.broadcast(i, m)
		}
	}
	return s, nil
}

// broadcast fans m out from agent i at the current time, honoring the
// crash schedule.
func (s *Simulator) broadcast(i int, m Message) {
	if s.crashed[i] {
		return
	}
	m.From = i
	recipients := ^uint64(0)
	if c, ok := s.crashes[i]; ok && s.broadcasts[i] == c.AfterBroadcasts {
		recipients = c.Recipients
		s.crashed[i] = true
	}
	s.broadcasts[i]++
	for j := 0; j < s.n; j++ {
		var delay float64
		if j == i {
			// Self-communication is instantaneous (paper, Section 2); the
			// crashing agent still "hears itself" but is already stopped,
			// so skip it.
			if s.crashed[i] {
				continue
			}
			delay = 0
		} else {
			if recipients&(1<<uint(j)) == 0 {
				continue
			}
			delay = s.delay(i, j, s.now)
			if delay <= 0 || delay > 1 {
				panic(fmt.Sprintf("async: delay %v outside (0,1]", delay))
			}
		}
		s.seq++
		heap.Push(&s.queue, event{time: s.now + delay, seq: s.seq, to: j, msg: m})
	}
}

// RunUntil processes all deliveries with time <= until (and the broadcasts
// they trigger). It returns the number of deliveries processed.
func (s *Simulator) RunUntil(until float64) int {
	count := 0
	for {
		e, ok := s.queue.Peek()
		if !ok || e.time > until {
			break
		}
		heap.Pop(&s.queue)
		s.now = e.time
		if s.crashed[e.to] {
			continue
		}
		count++
		s.delivered++
		for _, out := range s.procs[e.to].Receive(e.msg) {
			s.broadcast(e.to, out)
		}
	}
	if s.now < until {
		s.now = until
	}
	return count
}

// RunToQuiescence processes events until the queue empties or the event
// budget is exhausted; it returns false on budget exhaustion (a likely
// livelock or unbounded protocol).
func (s *Simulator) RunToQuiescence(maxEvents int) bool {
	for i := 0; i < maxEvents; i++ {
		e, ok := s.queue.Peek()
		if !ok {
			return true
		}
		heap.Pop(&s.queue)
		s.now = e.time
		if s.crashed[e.to] {
			continue
		}
		s.delivered++
		for _, out := range s.procs[e.to].Receive(e.msg) {
			s.broadcast(e.to, out)
		}
	}
	return s.queue.Len() == 0
}

// Now returns the simulation clock.
func (s *Simulator) Now() float64 { return s.now }

// Delivered returns the number of processed deliveries.
func (s *Simulator) Delivered() int { return s.delivered }

// Crashed reports whether agent i has crashed.
func (s *Simulator) Crashed(i int) bool { return s.crashed[i] }

// CorrectOutputs returns the outputs of the non-crashed agents.
func (s *Simulator) CorrectOutputs() []float64 {
	var out []float64
	for i, p := range s.procs {
		if !s.crashed[i] {
			out = append(out, p.Output())
		}
	}
	return out
}

// CorrectDiameter returns the value diameter over correct agents.
func (s *Simulator) CorrectDiameter() float64 {
	out := s.CorrectOutputs()
	if len(out) == 0 {
		return 0
	}
	lo, hi := out[0], out[0]
	for _, v := range out[1:] {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return hi - lo
}
