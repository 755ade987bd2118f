package main

import (
	"encoding/json"
	"os"
	"testing"
)

// The binary and BENCHMARK.json must name the same workloads and
// metrics, with the same units.
func TestBenchmarkJSONMatchesTheBinary(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &cfg); err != nil {
		t.Fatal(err)
	}
	if len(cfg.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the binary %d", len(cfg.Workloads), len(workloads))
	}
	for _, w := range cfg.Workloads {
		if _, err := lookupWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}

	// The end-to-end metrics: what endToEnd adds, plus set-up and memory.
	out := metrics{}
	m := &e2e{rates: []float64{1}}
	for i := 0; i < minSamples(tailQ); i++ {
		m.lat = append(m.lat, float64(i+1))
	}
	if err := endToEnd(out, m); err != nil {
		t.Fatal(err)
	}
	out.add("setup_s", 1, "s")
	out.add("peak_rss_mb", 1, "MB")
	if len(cfg.EndToEnd) != len(out) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the binary %d", len(cfg.EndToEnd), len(out))
	}
	for _, e := range cfg.EndToEnd {
		if got, ok := out[e.Name]; !ok || got.Unit != e.Unit {
			t.Errorf("end-to-end %s [%s]: binary reports %+v", e.Name, e.Unit, got)
		}
	}

	if len(cfg.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the binary %d", len(cfg.PerLayer), len(perLayer))
	}
	for i, p := range cfg.PerLayer {
		if p.Name != perLayer[i].name || p.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s [%s], binary %s [%s]", i, p.Name, p.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}
