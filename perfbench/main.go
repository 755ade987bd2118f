// Command perfbench is the repository's benchmark. One invocation sets
// up one named workload from a seed, checks every result it times
// against references computed in-process at set-up, and prints its
// metrics, the last line being one JSON object:
//
//	go run . --workload sweep-churn16 --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// runs the timed loop with every second operation traced, replays the
// workload's inputs down the layer ladder, prints the per-layer
// metrics, and writes the recorded spans under .bench_build/spans. See
// README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/perfbench/spans"
)

// setupReps is how many processes a run sets the workload up in;
// setup_s is the median of their set-up times.
const setupReps = 9

// processStart is when this process started, near enough: package
// variables are initialised before main runs.
var processStart = time.Now()

// rateWindows is how many equal windows run_rounds_per_s takes the
// median over, so a burst of contention in one window does not move it.
const rateWindows = 10

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "seconds the timed loop runs")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	setupOnly := flag.Bool("setup-only", false, "set the workload up, print the seconds since process start and exit")
	flag.Parse()
	if *setupOnly {
		if err := setupOnce(context.Background(), *name, *seed, time.Duration(*seconds)*time.Second); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(context.Background(), *name, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(ctx context.Context, name string, seed int64, d time.Duration, traced bool) (*result, error) {
	w, err := lookupWorkload(name)
	if err != nil {
		return nil, err
	}
	b, err := w.setup(ctx, seed, d)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer b.close()
	setups := []float64{time.Since(processStart).Seconds()}
	more, err := freshSetups(ctx, name, seed, d, setupReps-1)
	if err != nil {
		return nil, err
	}
	setups = append(setups, more...)
	fmt.Printf("set-up seconds, one per process: %.4g\n", setups)

	out := metrics{}
	if !traced {
		m, err := b.measure(ctx, d, nil)
		if err != nil {
			return nil, err
		}
		if err := endToEnd(out, m); err != nil {
			return nil, err
		}
		out.add("setup_s", median(setups), "s")
		out.add("peak_rss_mb", peakRSSMB(), "MB")
		return out.result(m), nil
	}

	// Traced run: the timed loop with traced and untraced operations
	// alternating (their paired differences give the tracing overhead),
	// then the layer ladder, whose checked results count in m too.
	var before, after runtime.MemStats
	rec := spans.New(fmt.Sprintf("%s-seed%d-%d", name, seed, time.Now().UnixNano()))
	runtime.ReadMemStats(&before)
	m, err := b.measure(ctx, d, rec)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	if len(m.traceDiffs) == 0 {
		return nil, fmt.Errorf("no traced operation paired with an untraced one: %v", m.firstErr)
	}
	looped := m.attempted
	layer, err := b.ladder(ctx, rec, m)
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	// Counters read off the timed loop replace the ladder's where both
	// exist: the loop carries the workload's own load.
	for k, v := range m.layer {
		layer[k] = v
	}
	layer["trace.overhead_pct"] = 100 * median(m.traceDiffs) / quantile(sortedCopy(m.lat), 0.5)
	layer["go.alloc_bytes_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(looped)
	layer["go.gc_cycles_per_s"] = float64(after.NumGC-before.NumGC) / m.elapsed.Seconds()
	layer["error_rate"] = float64(m.failed) / float64(m.attempted)
	for _, pl := range perLayer {
		v, ok := layer[pl.name]
		if !ok {
			return nil, fmt.Errorf("ladder did not measure %s", pl.name)
		}
		out.add(pl.name, v, pl.unit)
	}
	if err := writeSpans(rec, name, seed); err != nil {
		return nil, err
	}
	return out.result(m), nil
}

// setupOnce sets the workload up, prints the seconds since process
// start as the last line of standard output, and tears it down.
func setupOnce(ctx context.Context, name string, seed int64, d time.Duration) error {
	w, err := lookupWorkload(name)
	if err != nil {
		return err
	}
	b, err := w.setup(ctx, seed, d)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	fmt.Println(time.Since(processStart).Seconds())
	b.close()
	return nil
}

// freshSetups sets the workload up k times more, one after the other,
// each in a fresh process of this binary, and returns each one's
// seconds from process start to the end of set-up. A second set-up in
// this process would read the schedules the first left in process-wide
// caches, and its own would stay in the heap the timed loop runs on.
func freshSetups(ctx context.Context, name string, seed int64, d time.Duration, k int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	var out []float64
	for i := 0; i < k; i++ {
		cmd := exec.CommandContext(ctx, exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(int(d/time.Second)), "--setup-only")
		cmd.Stderr = os.Stderr
		raw, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up in a fresh process: %w", err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		v, err := strconv.ParseFloat(lines[len(lines)-1], 64)
		if err != nil {
			return nil, fmt.Errorf("set-up in a fresh process: %w", err)
		}
		out = append(out, v)
	}
	return out, nil
}

// metrics collects named values and prints each as it is added.
type metrics map[string]metric

func (ms metrics) add(name string, v float64, unit string) {
	ms[name] = metric{Value: v, Unit: unit}
	fmt.Printf("%-26s %14.6g %s\n", name, v, unit)
}

func (ms metrics) result(m *e2e) *result {
	fmt.Printf("%-26s %14d\n%-26s %14d\n%-26s %14.6g\n", "attempted", m.attempted, "failed", m.failed,
		"error_rate", float64(m.failed)/float64(max(m.attempted, 1)))
	if m.firstErr != nil {
		fmt.Printf("first error: %v\n", m.firstErr)
	}
	return &result{Correct: m.wrong == 0 && m.attempted > 0, Attempted: m.attempted, Failed: m.failed, Metrics: ms}
}

// endToEnd adds the end-to-end metrics of one untraced loop.
func endToEnd(out metrics, m *e2e) error {
	lat := sortedCopy(m.lat)
	tail, err := tailQuantile(lat, tailQ)
	if err != nil {
		return fmt.Errorf("latency tail: %w", err)
	}
	fmt.Printf("%d latency samples; p90 %.4g p95 %.4g p99 %.4g ms\n", len(lat),
		quantile(lat, 0.9), quantile(lat, 0.95), quantile(lat, 0.99))
	fmt.Printf("run rounds/s per window: %.4g\n", m.rates)
	out.add("run_rounds_per_s", median(m.rates), "1/s")
	out.add("latency_p50_ms", quantile(lat, 0.5), "ms")
	out.add("latency_tail_ms", tail, "ms")
	keys := make([]string, 0, len(m.layer))
	for k := range m.layer {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  (%s %.6g)\n", k, m.layer[k])
	}
	return nil
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// writeSpans writes the run's spans to .bench_build/spans.
func writeSpans(rec *spans.Recorder, name string, seed int64) error {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, seed)))
	if err != nil {
		return err
	}
	if err := rec.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
