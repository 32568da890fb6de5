package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestLedgerMatchesBenchmarkJSON keeps the metric lists the program
// prints in step with the ones BENCHMARK.json declares.
func TestLedgerMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		if got := spec.PerLayer[i]; got != (entry{m.Name, m.Unit, m.Better}) {
			t.Errorf("per_layer[%d] = %+v, program has %s %s %s", i, got, m.Name, m.Unit, m.Better)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if got := spec.EndToEnd[i]; got.Name != m.Name || got.Unit != m.Unit {
			t.Errorf("end_to_end[%d] = %+v, program has %s %s", i, got, m.Name, m.Unit)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not in the program", w.Name)
		}
	}
}
