package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/consensus"
	"repro/consensus/distributed"
	"repro/internal/core"
	"repro/perfbench/loadgen"
	"repro/perfbench/spans"
)

// bench is one workload set up in this process.
type bench interface {
	// measure runs the workload's timed loop for d, longer if needed
	// to time its tail percentile. With a non-nil rec, every second
	// operation is wrapped in a span (see traced).
	measure(ctx context.Context, d time.Duration, rec *spans.Recorder) (*e2e, error)
	// ladder replays the workload's inputs down the layer ladder,
	// counting its checked results in m.
	ladder(ctx context.Context, rec *spans.Recorder, m *e2e) (map[string]float64, error)
	close()
}

// e2e is what one timed loop measured.
type e2e struct {
	attempted, failed, wrong int
	firstErr                 error
	elapsed                  time.Duration
	// lat holds every correct operation's latency in ms; the run
	// reports its median and its tailQ quantile.
	lat []float64
	// rates holds the spec rounds per second of each window or
	// segment; the run reports their median.
	rates []float64
	// layer holds per-layer counters read during the loop.
	layer map[string]float64
	// traceDiffs holds, in a traced loop, each traced operation's
	// latency minus that of the untraced one just before it, in ms.
	traceDiffs []float64
	prevLat    float64
	prevOK     bool
}

// traced reports whether operation i of a loop carries a span: every
// second one when rec is non-nil, so traced and untraced operations
// alternate and the host's drift cancels out of their paired
// differences.
func traced(rec *spans.Recorder, i int) bool { return rec != nil && i%2 == 1 }

// pair records operation i's latency for the tracing overhead: each
// traced operation is paired with the untraced one before it when both
// were correct.
func (m *e2e) pair(i int, lat float64, ok bool) {
	if i%2 == 0 {
		m.prevLat, m.prevOK = lat, ok
		return
	}
	if ok && m.prevOK {
		m.traceDiffs = append(m.traceDiffs, lat-m.prevLat)
	}
}

func (m *e2e) record(err error) {
	m.attempted++
	if err == nil {
		return
	}
	m.failed++
	if isWrong(err) {
		m.wrong++
	}
	if m.firstErr == nil {
		m.firstErr = err
	}
}

// workload names a workload and builds it from a seed.
type workload struct {
	name string
	// setup builds the workload for a timed loop of d.
	setup func(ctx context.Context, seed int64, d time.Duration) (bench, error)
}

var workloads = []workload{
	{"sweep-churn16", func(ctx context.Context, seed int64, _ time.Duration) (bench, error) {
		return newSweepBench(ctx, churnSpecs(seed, 64, "churn:16,%d,10,100,4", 1000), 20, false)
	}},
	{"sweep-churn256", func(ctx context.Context, seed int64, _ time.Duration) (bench, error) {
		return newSweepBench(ctx, churnSpecs(seed, 32, "churn:256,%d,10,10,16", 100), 10, true)
	}},
	{"sweep-deaf128", func(ctx context.Context, seed int64, _ time.Duration) (bench, error) {
		return newSweepBench(ctx, deafSpecs(seed, 8, 128, 200), 6, false)
	}},
	{"serve-mixed", newServeBench},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// churnSpecs returns k midpoint runs over churn schedules with seeds
// seed..seed+k-1; format takes the schedule seed.
func churnSpecs(seed int64, k int, format string, rounds int) []consensus.RunSpec {
	specs := make([]consensus.RunSpec, k)
	for i, name := range churnSpecNames(seed, k, format) {
		specs[i] = consensus.RunSpec{Scenario: name, Algorithm: "midpoint", Rounds: rounds}
	}
	return specs
}

func churnSpecNames(seed int64, k int, format string) []string {
	names := make([]string, k)
	for i := range names {
		names[i] = fmt.Sprintf(format, seed+int64(i))
	}
	return names
}

// deafSpecs returns k midpoint runs on deaf(K_n) under the cycle
// adversary, each from the spread inputs with one input varied.
func deafSpecs(seed int64, k, n, rounds int) []consensus.RunSpec {
	rng := rand.New(rand.NewSource(seed))
	specs := make([]consensus.RunSpec, k)
	for i := range specs {
		in := consensus.SpreadInputs(n)
		in[2+rng.Intn(n-2)] = rng.Float64()
		specs[i] = consensus.RunSpec{
			Model:     fmt.Sprintf("deaf:%d", n),
			Algorithm: "midpoint",
			Adversary: "cycle",
			Inputs:    in,
			Rounds:    rounds,
		}
	}
	return specs
}

func specRounds(specs []consensus.RunSpec) int64 {
	var r int64
	for _, s := range specs {
		r += int64(s.Rounds)
	}
	return r
}

// sweepBench is a closed loop of one caller making consensus.Sweep
// calls over a fixed spec set, each with a fresh cache so every call
// computes.
type sweepBench struct {
	specs      []consensus.RunSpec
	refs       []reference
	ladderReps int
}

// newSweepBench sets up a sweep workload. With autoPar the process
// steps every batch tile on GOMAXPROCS intra-step workers (as
// REPRO_BATCH_PARALLELISM=auto does), so Sweep, the server and the
// workers of the ladder all run the same kernel configuration; without
// it the process keeps the default, sequential tiles.
func newSweepBench(ctx context.Context, specs []consensus.RunSpec, ladderReps int, autoPar bool) (*sweepBench, error) {
	if autoPar {
		core.SetDefaultBatchParallelism(0)
	}
	refs, err := computeReferences(ctx, specs)
	if err != nil {
		return nil, err
	}
	b := &sweepBench{specs: specs, refs: refs, ladderReps: ladderReps}
	// Warm up: one checked call, so lazy set-up is paid before timing.
	if _, err := b.call(ctx, b.specs, b.refs); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return b, nil
}

// call makes one timed Sweep call and checks it.
func (b *sweepBench) call(ctx context.Context, specs []consensus.RunSpec, refs []reference) (time.Duration, error) {
	start := time.Now()
	res, err := consensus.Sweep(ctx, specs, consensus.WithSweepCache(consensus.NewSweepCache()))
	lat := time.Since(start)
	if err != nil {
		return lat, err
	}
	return lat, checkResults(res, refs)
}

func (b *sweepBench) measure(ctx context.Context, d time.Duration, rec *spans.Recorder) (*e2e, error) {
	m := &e2e{layer: map[string]float64{}}
	perCall := specRounds(b.specs)
	need := minSamples(tailQ)
	var ops []opSpan
	var gaps []float64 // from one call's end to the next call's start
	start := time.Now()
	for i, t := 0, time.Duration(0); t < d || (len(m.lat) < need && t < 3*d); i, t = i+1, time.Since(start) {
		var id uint64
		if traced(rec, i) {
			id = rec.Begin("sweep.call", 0)
		}
		lat, err := b.call(ctx, b.specs, b.refs)
		rec.End(id)
		m.record(err)
		m.pair(i, ms(lat), err == nil)
		if err == nil {
			end := time.Now()
			ops = append(ops, opSpan{end.Add(-lat), end, perCall})
			m.lat = append(m.lat, ms(lat))
		}
		gaps = append(gaps, ms(time.Since(start)-t-lat))
	}
	m.elapsed = time.Since(start)
	m.layer["loadgen.late_ms"] = mean(gaps)
	if len(ops) == 0 {
		return nil, fmt.Errorf("no call completed correctly: %v", m.firstErr)
	}
	m.rates = windowRates(ops, ops[0].start, ops[len(ops)-1].end, rateWindows)
	return m, nil
}

func (b *sweepBench) close() {}

// serve-mixed shape. A run alternates serveSegments open-loop and
// closed-loop phases, so both sample the whole run, and capacity is the
// median over the closed-loop segments, which steps over a burst of
// outside load.
const (
	serveWorkers  = 2
	serveConns    = 2
	serveSpecs    = 6
	serveRate     = 300.0  // offered req/s open loop; README.md says why not more
	serveMaxRate  = 3500.0 // closed-loop req/s the streams are sized for
	serveSegments = 10
	serveOpenFrac = 2.0 / 3 // share of each segment spent open loop
	serveWarmup   = 300
)

// serveBench drives a local coordinator with serveWorkers workers over
// serveConns connections: open loop at serveRate for latency, closed
// loop for capacity. The two draw on separate request streams.
type serveBench struct {
	lc           *distributed.LocalCluster
	client       *http.Client
	url          string
	open, closed *requestStream
}

func newServeBench(ctx context.Context, seed int64, d time.Duration) (bench, error) {
	// Enough requests for the open-loop time at serveRate and the
	// closed-loop time at up to serveMaxRate.
	open := d.Seconds() * serveOpenFrac
	openStream, err := newRequestStream(ctx, seed, int(serveRate*open)+serveSegments)
	if err != nil {
		return nil, err
	}
	closedStream, err := newRequestStream(ctx, seed+1<<32, int(serveMaxRate*(d.Seconds()-open)))
	if err != nil {
		return nil, err
	}
	warm, err := newRequestStream(ctx, ^seed, serveWarmup)
	if err != nil {
		return nil, err
	}
	lc, err := distributed.StartLocal(serveWorkers, nil, nil)
	if err != nil {
		return nil, err
	}
	b := &serveBench{lc: lc, client: loadgen.Client(serveConns), url: lc.BaseURL + "/api/v1/sweep",
		open: openStream, closed: closedStream}
	reqs, _ := warm.take(serveWarmup)
	out, _ := loadgen.ClosedLoop(ctx, b.client, b.url, reqs, serveConns, time.Minute)
	for _, o := range out {
		if o.Err != nil {
			b.close()
			return nil, fmt.Errorf("warm-up: %w", o.Err)
		}
	}
	return b, nil
}

func (b *serveBench) measure(ctx context.Context, d time.Duration, rec *spans.Recorder) (*e2e, error) {
	m := &e2e{layer: map[string]float64{}}
	before := b.lc.Coordinator.Status()
	seg := d / serveSegments
	open := time.Duration(float64(seg) * serveOpenFrac)
	if rec != nil {
		stop := sampleQueueDepth(b.lc.Coordinator)
		defer func() { m.layer["coord.queue_depth_max"] = float64(stop()) }()
	}
	var late, capacity []float64
	start := time.Now()
	for s := 0; s < serveSegments; s++ {
		// Open loop: latency at a fixed offered rate, from each due time.
		reqs, _ := b.open.take(int(serveRate * open.Seconds()))
		for i, o := range loadgen.OpenLoop(ctx, b.client, b.url, reqs, serveRate, serveConns, open) {
			if traced(rec, i) {
				rec.Add("serve.request", 0, o.Sent, o.Done)
			}
			m.record(o.Err)
			m.pair(i, ms(o.Latency), o.Err == nil)
			if o.Err == nil {
				m.lat = append(m.lat, ms(o.Latency))
			}
			late = append(late, ms(o.Late))
		}

		// Closed loop: capacity in correct replies and spec rounds per second.
		reqs, lo := b.closed.take(len(b.closed.reqs))
		outs, elapsed := loadgen.ClosedLoop(ctx, b.client, b.url, reqs, serveConns, seg-open)
		if len(outs) == reqs.N {
			return nil, fmt.Errorf("closed loop ran out of requests; raise serveMaxRate")
		}
		b.closed.giveBack(reqs.N - len(outs))
		ok, done := 0, int64(0)
		for i, o := range outs {
			if traced(rec, i) {
				rec.Add("serve.request", 0, o.Sent, o.Done)
			}
			m.record(o.Err)
			if o.Err == nil {
				ok++
				done += b.closed.rounds(lo + i)
			}
		}
		capacity = append(capacity, float64(ok)/elapsed.Seconds())
		m.rates = append(m.rates, float64(done)/elapsed.Seconds())
	}
	m.elapsed = time.Since(start)
	m.layer["loadgen.late_ms"] = mean(late)
	m.layer["serve.capacity_rps"] = median(capacity)

	after := b.lc.Coordinator.Status()
	m.layer["store.hit_ratio"] = ratio(after.SpecsFromStore-before.SpecsFromStore, after.SpecsServed-before.SpecsServed)
	m.layer["coord.shards_per_request"] = ratio(after.ShardsDispatched-before.ShardsDispatched, after.Sweeps-before.Sweeps)
	m.layer["coord.retries"] = float64(after.ShardRetries - before.ShardRetries)
	m.layer["coord.rejected"] = float64(after.Rejected - before.Rejected)
	m.layer["coord.shard_failures"] = float64(after.ShardFailures - before.ShardFailures)
	return m, nil
}

// sampleQueueDepth polls c's shard queue depth every millisecond
// until the returned stop is called, which returns the largest depth
// seen.
func sampleQueueDepth(c *distributed.Coordinator) (stop func() int) {
	done := make(chan struct{})
	var peak int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				peak = max(peak, c.Status().QueueDepth)
			}
		}
	}()
	return func() int {
		close(done)
		wg.Wait()
		return peak
	}
}

func (b *serveBench) close() {
	b.client.CloseIdleConnections()
	b.lc.Close()
}
