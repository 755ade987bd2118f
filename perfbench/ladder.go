package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/consensus"
	"repro/consensus/distributed"
	"repro/consensus/scenario"
	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/perfbench/loadgen"
	"repro/perfbench/spans"
)

type layerMetric struct{ name, unit string }

// perLayer lists the metrics a traced run reports, as BENCHMARK.json
// lists them.
var perLayer = []layerMetric{
	{"model.build_ms", "ms"},
	{"scenario.churn_us", "us"},
	{"session.new_us", "us"},
	{"core.round_us", "us"},
	{"core.share", "ratio"},
	{"core.plan_hit_ratio", "ratio"},
	{"core.plan_evictions", "count"},
	{"core.plan_deferrals", "count"},
	{"core.par_speedup", "ratio"},
	{"core.single_round_ns", "ns"},
	{"session.run_us", "us"},
	{"sweep.call_us", "us"},
	{"sweep.self_share", "ratio"},
	{"server.handler_us", "us"},
	{"server.json_us", "us"},
	{"http.loopback_us", "us"},
	{"worker.shard_us", "us"},
	{"coord.overhead_us", "us"},
	{"coord.shards_per_request", "count"},
	{"store.hit_ratio", "ratio"},
	{"coord.queue_depth_max", "count"},
	{"coord.retries", "count"},
	{"coord.rejected", "count"},
	{"coord.shard_failures", "count"},
	{"loadgen.late_ms", "ms"},
	{"go.alloc_bytes_per_op", "B"},
	{"go.gc_cycles_per_s", "1/s"},
	{"trace.overhead_pct", "%"},
	{"error_rate", "ratio"},
}

// ladderOp is one operation the ladder replays: a spec set and its
// references.
type ladderOp struct {
	specs []consensus.RunSpec
	refs  []reference
}

// rungs names the ladder bottom to top. Each rung's wall time contains
// the rungs below it on the same inputs, so self times telescope to the
// top rung's wall time.
var rungs = []string{"resolve", "kernel", "sweep", "server.handler", "http.loopback", "worker.shard", "coordinator"}

// ladder is one replay of a workload's operations down the rungs.
type ladder struct {
	ctx context.Context
	rec *spans.Recorder
	m   *e2e // counts every checked result

	wall     map[string][]float64 // rung -> per-operation wall time, µs
	newUS    []float64            // NewSession per spec, µs
	jsonUS   []float64
	loopSelf []float64
	overhead []float64 // coordinator latency minus its slowest shard, µs
	shards   []float64
	depth    int     // largest coordinator queue depth sampled
	rounds   float64 // rounds stepped by the kernel rung
	plans    consensus.PlanCacheCounters
	coord    distributed.CoordinatorStatus

	sessions []*consensus.Session // the current operation's, from resolve
	body     []byte               // the current operation's request body

	// HTTP rungs run behind loopback listeners whose handlers are
	// swapped per operation and which record a span per request served,
	// as a child of the span in parent.
	parent     atomic.Uint64
	front      *slot
	shardSlots [2]*slot
	client     *http.Client
}

// runLadder replays each operation down every rung in turn, so a slow
// stretch of the host lands on all rungs alike. Every rung runs on
// fresh instances (no rung reads a cache an earlier rung filled) and
// checks its results against the references.
func runLadder(ctx context.Context, ops []ladderOp, rec *spans.Recorder, m *e2e) (map[string]float64, error) {
	l := &ladder{ctx: ctx, rec: rec, m: m, wall: map[string][]float64{}, client: loadgen.Client(1)}
	defer l.client.CloseIdleConnections()
	var err error
	if l.front, err = newSlot(rec, "server.remote", &l.parent); err != nil {
		return nil, err
	}
	defer l.front.close()
	for i := range l.shardSlots {
		if l.shardSlots[i], err = newSlot(rec, "shard", &l.parent); err != nil {
			return nil, err
		}
		defer l.shardSlots[i].close()
	}

	steps := []struct {
		rung string
		run  func(op ladderOp) error
	}{
		{"resolve", l.resolve},
		{"kernel", l.kernel},
		{"session.run", l.sessionRun},
		{"sweep", l.sweep},
		{"server.handler", l.handler},
		{"http.loopback", l.loopback},
		{"worker.shard", l.worker},
		{"coordinator", l.coordinator},
	}
	specs := 0
	for _, op := range ops {
		specs += len(op.specs)
		if l.body, err = json.Marshal(distributed.SweepRequest{Specs: op.specs}); err != nil {
			return nil, err
		}
		for _, st := range steps {
			// Start every rung from a collected heap, so no rung pays
			// for the garbage of the one before it.
			runtime.GC()
			if err := st.run(op); err != nil {
				return nil, fmt.Errorf("%s rung: %w", st.rung, err)
			}
		}
	}

	out := map[string]float64{
		"model.build_ms":       probeModelBuild(rec),
		"core.single_round_ns": probeSingleRound(),
	}
	if out["core.par_speedup"], err = parSpeedup(ops); err != nil {
		return nil, err
	}
	if out["scenario.churn_us"], err = churnGen(ops, rec); err != nil {
		return nil, err
	}
	med := map[string]float64{}
	for rung, w := range l.wall {
		med[rung] = median(w)
	}
	out["session.new_us"] = median(l.newUS)
	out["core.round_us"] = sum(l.wall["kernel"]) / l.rounds
	out["core.share"] = med["kernel"] / med["sweep"]
	out["core.plan_hit_ratio"] = ratio(l.plans.Hits, l.plans.Hits+l.plans.Misses)
	out["core.plan_evictions"] = float64(l.plans.Evictions) / float64(len(ops))
	out["core.plan_deferrals"] = float64(l.plans.Deferrals) / float64(len(ops))
	out["session.run_us"] = sum(l.wall["session.run"]) / float64(specs)
	out["sweep.call_us"] = med["sweep"]
	out["sweep.self_share"] = (med["sweep"] - med["resolve"] - med["kernel"]) / med["sweep"]
	out["server.handler_us"] = med["server.handler"]
	out["server.json_us"] = median(l.jsonUS)
	out["http.loopback_us"] = median(l.loopSelf)
	out["worker.shard_us"] = med["worker.shard"]
	out["coord.overhead_us"] = median(l.overhead)
	out["coord.shards_per_request"] = mean(l.shards)
	out["coord.queue_depth_max"] = float64(l.depth)
	out["store.hit_ratio"] = ratio(l.coord.SpecsFromStore, l.coord.SpecsServed)
	out["coord.retries"] = float64(l.coord.ShardRetries)
	out["coord.rejected"] = float64(l.coord.Rejected)
	out["coord.shard_failures"] = float64(l.coord.ShardFailures)
	printLadder(med)
	return out, nil
}

// span runs f inside a span named rung and records its wall time.
func (l *ladder) span(rung string, f func(id uint64)) uint64 {
	id := l.rec.Begin(rung, 0)
	f(id)
	l.rec.End(id)
	l.wall[rung] = append(l.wall[rung], us(l.rec.Get(id).Duration()))
	return id
}

// resolve: NewSession per spec, over as many goroutines as Sweep
// resolves with, each call a child span.
func (l *ladder) resolve(op ladderOp) error {
	l.sessions = make([]*consensus.Session, len(op.specs))
	errs := make([]error, len(op.specs))
	kids := make([]uint64, len(op.specs))
	l.span("resolve", func(id uint64) {
		parallel(min(runtime.GOMAXPROCS(0), len(op.specs)), len(op.specs), func(j int) {
			kids[j] = l.rec.Begin("session.new", id)
			l.sessions[j], errs[j] = consensus.NewSession(op.specs[j])
			l.rec.End(kids[j])
		})
	})
	for j, err := range errs {
		if err != nil {
			return err
		}
		l.newUS = append(l.newUS, us(l.rec.Get(kids[j]).Duration()))
	}
	return nil
}

// kernel: the same runs on internal/core, tiled as Sweep tiles them,
// from graphs and inputs resolved outside the timing.
func (l *ladder) kernel(op ladderOp) error {
	k, err := newKernelOp(op)
	if err != nil {
		return err
	}
	l.span("kernel", func(uint64) { k.run() })
	l.m.record(k.check(op.refs))
	l.rounds += float64(k.rounds)
	return nil
}

// sessionRun: Session.Run per spec, the single-run path.
func (l *ladder) sessionRun(op ladderOp) error {
	var err error
	l.span("session.run", func(uint64) {
		for j, s := range l.sessions {
			res, e := s.Run(l.ctx)
			if e != nil {
				err = e
				return
			}
			if outputsDigest(res.FinalOutputs()) != op.refs[j].outputs || !res.ValidityHolds(1e-9) {
				l.m.record(wrong("session run %d differs from the reference", j))
			} else {
				l.m.record(nil)
			}
		}
	})
	return err
}

// sweep: consensus.Sweep with a fresh cache.
func (l *ladder) sweep(op ladderOp) error {
	before := consensus.PlanCacheTotals()
	var res []consensus.SweepResult
	var err error
	l.span("sweep", func(uint64) {
		res, err = consensus.Sweep(l.ctx, op.specs, consensus.WithSweepCache(consensus.NewSweepCache()))
	})
	if err != nil {
		return err
	}
	after := consensus.PlanCacheTotals()
	l.plans.Hits += after.Hits - before.Hits
	l.plans.Misses += after.Misses - before.Misses
	l.plans.Evictions += after.Evictions - before.Evictions
	l.plans.Deferrals += after.Deferrals - before.Deferrals
	l.m.record(checkResults(res, op.refs))
	return nil
}

// newServer returns a server with the response cache off and a fresh
// sweep cache.
func newServer() *consensus.Server {
	return consensus.NewServer(consensus.ServerCacheSize(0), consensus.ServerSweepCache(consensus.NewSweepCache()))
}

// handler: Server.ServeHTTP into a recorder; then the JSON round trip
// of the request and the reply, timed on its own.
func (l *ladder) handler(op ladderOp) error {
	srv := newServer()
	w := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/api/v1/sweep", bytes.NewReader(l.body))
	l.span("server.handler", func(uint64) { srv.ServeHTTP(w, req) })
	l.m.record(checkReply(w.Code, w.Body.Bytes(), op.refs))
	t, err := jsonRoundTrip(l.body, w.Body.Bytes())
	l.jsonUS = append(l.jsonUS, t)
	return err
}

// post times one POST to the front slot as rung, with the slots'
// server-side spans as its children.
func (l *ladder) post(rung, path string, body []byte) (id uint64, status int, reply []byte, err error) {
	id = l.span(rung, func(id uint64) {
		l.parent.Store(id)
		status, reply, err = loadgen.Post(l.ctx, l.client, l.front.url+path, body)
		l.parent.Store(0)
	})
	return id, status, reply, err
}

// loopback: the request POSTed over a loopback connection; its self
// time is the POST minus the server-side span.
func (l *ladder) loopback(op ladderOp) error {
	l.front.set(newServer())
	id, status, reply, err := l.post("http.loopback", "/api/v1/sweep", l.body)
	if err != nil {
		return err
	}
	l.m.record(checkReply(status, reply, op.refs))
	all := l.rec.Spans()
	l.loopSelf = append(l.loopSelf, us(spans.SelfTime(all[id-1], spans.Children(all, id))))
	return nil
}

// worker: the specs as one shard POSTed to a fresh worker.
func (l *ladder) worker(op ladderOp) error {
	l.front.set(distributed.NewWorker())
	body, err := json.Marshal(distributed.ShardRequest{Shard: "ladder", Specs: op.specs})
	if err != nil {
		return err
	}
	_, status, reply, err := l.post("worker.shard", "/api/v1/shard", body)
	if err != nil {
		return err
	}
	var resp distributed.ShardResponse
	switch {
	case status != http.StatusOK:
		l.m.record(fmt.Errorf("worker refused with status %d", status))
	case json.Unmarshal(reply, &resp) != nil:
		l.m.record(wrong("undecodable shard reply"))
	default:
		l.m.record(checkResults(resp.Results, op.refs))
	}
	return nil
}

// coordinator: a fresh coordinator (empty store) over two fresh
// workers; each shard a worker serves is a child span. Its queue depth
// is sampled while the request runs.
func (l *ladder) coordinator(op ladderOp) error {
	for _, s := range l.shardSlots {
		s.set(distributed.NewWorker())
	}
	coord := distributed.NewCoordinator(distributed.CoordinatorWorkers(l.shardSlots[0].url, l.shardSlots[1].url),
		distributed.CoordinatorHealthInterval(0))
	defer coord.Close()
	l.front.set(coord)
	stop := sampleQueueDepth(coord)
	id, status, reply, err := l.post("coordinator", "/api/v1/sweep", l.body)
	l.depth = max(l.depth, stop())
	if err != nil {
		return err
	}
	l.m.record(checkReply(status, reply, op.refs))
	all := l.rec.Spans()
	top, kids := all[id-1], spans.Children(all, id)
	slowest := time.Duration(0)
	for _, k := range kids {
		slowest = max(slowest, k.Duration())
	}
	l.overhead = append(l.overhead, us(top.Duration()-slowest))
	l.shards = append(l.shards, float64(len(kids)))
	st := coord.Status()
	l.coord.SpecsServed += st.SpecsServed
	l.coord.SpecsFromStore += st.SpecsFromStore
	l.coord.ShardRetries += st.ShardRetries
	l.coord.Rejected += st.Rejected
	l.coord.ShardFailures += st.ShardFailures
	return nil
}

// printLadder prints each rung's median wall time and its self time —
// its wall time minus the rung below — as a share of the top rung.
func printLadder(med map[string]float64) {
	top := med[rungs[len(rungs)-1]]
	fmt.Printf("ladder (median µs per operation; self = wall minus the rungs it contains)\n")
	for i, r := range rungs {
		self := med[r]
		switch {
		case r == "sweep": // contains resolve and kernel, side by side
			self -= med["resolve"] + med["kernel"]
		case i > 2:
			self -= med[rungs[i-1]]
		}
		fmt.Printf("  %-16s wall %12.1f  self %12.1f  share %6.1f%%\n", r, med[r], self, 100*self/top)
	}
}

// slot is a loopback HTTP server whose handler is swapped per
// operation; it records a span around each request it serves, as a
// child of the span in parent.
type slot struct {
	url    string
	srv    *http.Server
	done   chan struct{}
	h      atomic.Pointer[http.Handler]
	name   string
	rec    *spans.Recorder
	parent *atomic.Uint64
}

func newSlot(rec *spans.Recorder, name string, parent *atomic.Uint64) (*slot, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &slot{url: "http://" + ln.Addr().String(), done: make(chan struct{}), name: name, rec: rec, parent: parent}
	s.srv = &http.Server{Handler: s}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

func (s *slot) set(h http.Handler) { s.h.Store(&h) }

func (s *slot) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h := s.h.Load()
	if h == nil {
		http.Error(w, "no handler", http.StatusServiceUnavailable)
		return
	}
	var id uint64
	if p := s.parent.Load(); p != 0 && r.Method == http.MethodPost {
		id = s.rec.Begin(s.name, p)
	}
	(*h).ServeHTTP(w, r)
	s.rec.End(id)
}

// close stops the server and waits for its serve loop to return.
func (s *slot) close() {
	_ = s.srv.Close()
	<-s.done
}

// kernelOp is one operation's runs prepared for internal/core: per-run
// algorithm, inputs and graph sequence, grouped into Sweep's tiles.
type kernelOp struct {
	groups [][]kernelRun
	rounds int // rounds of the longest run
	outs   [][]float64
}

type kernelRun struct {
	index  int
	alg    core.DenseAlgorithm
	inputs []float64
	graphs []graph.Graph
}

func newKernelOp(op ladderOp) (*kernelOp, error) {
	k := &kernelOp{outs: make([][]float64, len(op.specs))}
	byKey := map[string]int{}
	for i, spec := range op.specs {
		run, err := kernelRunOf(i, spec)
		if err != nil {
			return nil, err
		}
		key := fmt.Sprintf("%s|%s|%d|%d", spec.Model, spec.Algorithm, len(run.inputs), spec.Rounds)
		g, ok := byKey[key]
		if !ok {
			g = len(k.groups)
			byKey[key] = g
			k.groups = append(k.groups, nil)
		}
		k.groups[g] = append(k.groups[g], run)
		k.rounds = max(k.rounds, spec.Rounds)
	}
	return k, nil
}

// kernelRunOf resolves one spec's dense algorithm, inputs and graphs.
func kernelRunOf(i int, spec consensus.RunSpec) (kernelRun, error) {
	var alg core.Algorithm
	switch spec.Algorithm {
	case "midpoint":
		alg = algorithms.Midpoint{}
	case "mean":
		alg = algorithms.Mean{}
	case "amortized":
		alg = algorithms.AmortizedMidpoint{}
	default:
		return kernelRun{}, fmt.Errorf("kernel rung: unsupported algorithm %q", spec.Algorithm)
	}
	dense, ok := core.AsDense(alg)
	if !ok {
		return kernelRun{}, fmt.Errorf("kernel rung: %q has no dense form", spec.Algorithm)
	}
	run := kernelRun{index: i, alg: dense}
	switch {
	case spec.Scenario != "":
		s, err := parseSchedule(spec.Scenario)
		if err != nil {
			return kernelRun{}, err
		}
		run.graphs = s.Graphs(spec.Rounds)
	case spec.Model != "":
		m, err := parseModel(spec.Model)
		if err != nil {
			return kernelRun{}, err
		}
		var src core.PatternSource = core.Cycle{Graphs: m.Graphs()}
		if spec.Adversary == "random" {
			src = core.RandomFromModel{Model: m, Rng: rand.New(rand.NewSource(sessionSeed(spec)))}
		} else if spec.Adversary != "cycle" {
			return kernelRun{}, fmt.Errorf("kernel rung: unsupported adversary %q", spec.Adversary)
		}
		for t := 1; t <= spec.Rounds; t++ {
			run.graphs = append(run.graphs, src.Next(t, nil))
		}
	}
	n := run.graphs[0].N()
	run.inputs = spec.Inputs
	if run.inputs == nil {
		run.inputs = consensus.SpreadInputs(n)
	}
	return run, nil
}

// sessionSeed is the seed a session runs with (consensus.DefaultSeed
// when the spec leaves it zero).
func sessionSeed(spec consensus.RunSpec) int64 {
	if spec.Seed != 0 {
		return spec.Seed
	}
	return consensus.DefaultSeed
}

// run steps every group as Sweep does: tiles of up to 64 runs spread
// over the tile workers, a one-run tile on a DenseRunner, a larger one
// on a BatchRunner with the process's intra-step parallelism.
func (k *kernelOp) run() {
	par := core.DefaultBatchParallelism()
	workers := runtime.GOMAXPROCS(0)
	exec := workers
	if par > 1 {
		exec = max(1, workers/par)
	}
	var units [][]kernelRun
	for _, g := range k.groups {
		tile := min(consensus.DefaultSweepBatch, max(1, (len(g)+exec-1)/exec))
		for lo := 0; lo < len(g); lo += tile {
			units = append(units, g[lo:min(lo+tile, len(g))])
		}
	}
	parallel(min(exec, len(units)), len(units), func(u int) { k.step(units[u], par) })
}

func (k *kernelOp) step(unit []kernelRun, par int) {
	if len(unit) == 1 {
		r := unit[0]
		dr := core.NewDenseRunner(r.alg, r.inputs)
		for _, g := range r.graphs {
			dr.Step(g)
		}
		k.outs[r.index] = dr.Outputs()
		return
	}
	inputs := make([][]float64, len(unit))
	for i, r := range unit {
		inputs[i] = r.inputs
	}
	br := core.NewBatchRunner(unit[0].alg, inputs)
	br.SetParallelism(par)
	gs := make([]graph.Graph, len(unit))
	for t := range unit[0].graphs {
		for i, r := range unit {
			gs[i] = r.graphs[t]
		}
		br.StepEach(gs)
	}
	for i, r := range unit {
		out := make([]float64, len(r.inputs))
		br.Outputs(i, out)
		k.outs[r.index] = out
	}
}

// check compares the kernel rung's outputs with the references.
func (k *kernelOp) check(refs []reference) error {
	for i, out := range k.outs {
		if outputsDigest(out) != refs[i].outputs {
			return wrong("kernel rung run %d differs from the reference", i)
		}
	}
	return nil
}

// parSpeedup times each op's largest group as one BatchRunner at
// SetParallelism(1) and at GOMAXPROCS and returns the time ratio.
func parSpeedup(ops []ladderOp) (float64, error) {
	var seq, par time.Duration
	procs := runtime.GOMAXPROCS(0)
	for _, op := range ops {
		k, err := newKernelOp(op)
		if err != nil {
			return 0, err
		}
		sort.Slice(k.groups, func(i, j int) bool { return len(k.groups[i]) > len(k.groups[j]) })
		g := k.groups[0]
		for _, p := range []int{1, procs} {
			start := time.Now()
			k.step(g, p)
			if p == 1 {
				seq += time.Since(start)
			} else {
				par += time.Since(start)
			}
		}
	}
	return float64(seq) / float64(par), nil
}

// probeModelBuild times model.DeafModel on K_256 (median of three).
func probeModelBuild(rec *spans.Recorder) float64 {
	var t []float64
	for i := 0; i < 3; i++ {
		id := rec.Begin("model.build", 0)
		model.DeafModel(graph.Complete(256))
		rec.End(id)
		t = append(t, ms(rec.Get(id).Duration()))
	}
	return median(t)
}

// probeSingleRound times core.DenseStep of midpoint at the serve
// workload's largest n (8), cycling deaf(K_8), in ns per round.
func probeSingleRound() float64 {
	const steps = 20000
	alg, _ := core.AsDense(algorithms.Midpoint{})
	gs := model.DeafModel(graph.Complete(8)).Graphs()
	a := core.NewDenseRunner(alg, consensus.SpreadInputs(8)).State()
	b := &core.DenseState{}
	start := time.Now()
	for i := 0; i < steps; i++ {
		core.DenseStep(alg, b, a, gs[i%len(gs)])
		a, b = b, a
	}
	return float64(time.Since(start).Nanoseconds()) / steps
}

// churnGen times scenario.Churn per churn spec of the ops; ops without
// churn specs time the sweep-churn16 schedule shape instead.
func churnGen(ops []ladderOp, rec *spans.Recorder) (float64, error) {
	var specs []string
	for _, op := range ops {
		for _, s := range op.specs {
			if strings.HasPrefix(s.Scenario, "churn:") {
				specs = append(specs, s.Scenario)
			}
		}
	}
	if len(specs) == 0 {
		specs = churnSpecNames(1, 64, "churn:16,%d,10,100,4")
	}
	var total time.Duration
	for _, spec := range specs {
		id := rec.Begin("scenario.churn", 0)
		_, err := parseSchedule(spec)
		rec.End(id)
		if err != nil {
			return 0, err
		}
		total += rec.Get(id).Duration()
	}
	return us(total) / float64(len(specs)), nil
}

// parseSchedule builds the schedules the workloads name.
func parseSchedule(spec string) (*scenario.Schedule, error) {
	name, arg, _ := strings.Cut(spec, ":")
	var v []int64
	for _, f := range strings.Split(arg, ",") {
		x, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("schedule %q: %w", spec, err)
		}
		v = append(v, x)
	}
	switch {
	case name == "churn" && len(v) == 5:
		return scenario.Churn(int(v[0]), v[1], int(v[2]), int(v[3]), int(v[4]))
	case name == "partitionheal" && len(v) == 3:
		return scenario.PartitionHeal(int(v[0]), int(v[1]), int(v[2]))
	case name == "eventuallyrooted" && len(v) == 2:
		return scenario.EventuallyRooted(int(v[0]), int(v[1]))
	}
	return nil, fmt.Errorf("schedule %q: not one the benchmark builds", spec)
}

// parseModel builds the models the workloads name.
func parseModel(spec string) (*model.Model, error) {
	name, arg, _ := strings.Cut(spec, ":")
	n, err := strconv.Atoi(arg)
	if err != nil {
		return nil, fmt.Errorf("model %q: %w", spec, err)
	}
	switch name {
	case "deaf":
		return model.DeafModel(graph.Complete(n)), nil
	case "psi":
		return model.PsiModel(n), nil
	}
	return nil, fmt.Errorf("model %q: not one the benchmark builds", spec)
}

// jsonRoundTrip times marshal and unmarshal of a request and its reply.
func jsonRoundTrip(reqBody, replyBody []byte) (float64, error) {
	var req distributed.SweepRequest
	var reply distributed.SweepResponse
	start := time.Now()
	if err := json.Unmarshal(reqBody, &req); err != nil {
		return 0, err
	}
	if _, err := json.Marshal(req); err != nil {
		return 0, err
	}
	if err := json.Unmarshal(replyBody, &reply); err != nil {
		return 0, err
	}
	if _, err := json.Marshal(reply); err != nil {
		return 0, err
	}
	return us(time.Since(start)), nil
}

// parallel runs f(0..n-1) over workers goroutines.
func parallel(workers, n int, f func(int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				f(i)
			}
		}()
	}
	wg.Wait()
}

func (b *sweepBench) ladder(ctx context.Context, rec *spans.Recorder, m *e2e) (map[string]float64, error) {
	ops := make([]ladderOp, b.ladderReps)
	for i := range ops {
		ops[i] = ladderOp{specs: b.specs, refs: b.refs}
	}
	return runLadder(ctx, ops, rec, m)
}

// serveLadderOps is how many requests of the open-loop stream the
// serve workload's ladder replays.
const serveLadderOps = 100

func (b *serveBench) ladder(ctx context.Context, rec *spans.Recorder, m *e2e) (map[string]float64, error) {
	ops := make([]ladderOp, serveLadderOps)
	for i := range ops {
		ops[i] = ladderOp{specs: b.open.specs(i), refs: b.open.refsOf(i)}
	}
	return runLadder(ctx, ops, rec, m)
}
