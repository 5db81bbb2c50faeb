package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestQuickRuns runs every workload for one round of a reduced catalog
// with every output checked against its in-process reference, and one
// traced run end to end.
func TestQuickRuns(t *testing.T) {
	for _, def := range workloadDefs {
		res, err := runWorkload(def, runConfig{seed: 1, quick: true, outDir: t.TempDir()})
		if err != nil {
			t.Fatalf("%s: %v", def.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d %v", def.name, res.Correct, res.Attempted, res.Failed, res.Failures)
		}
		for _, d := range endToEnd {
			if v, ok := res.Metrics[d.Name]; !ok || v <= 0 {
				t.Errorf("%s: %s = %v, want a positive reading", def.name, d.Name, v)
			}
		}
	}

	def, _ := workloadByName("table2-hotspots")
	dir := t.TempDir()
	res, err := runWorkload(def, runConfig{seed: 1, quick: true, trace: true, outDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range perLayer {
		if _, ok := res.Metrics[d.Name]; !ok {
			t.Errorf("traced run lacks %s", d.Name)
		}
	}
	for _, name := range []string{"miniperf.record_ms", "vm.run_quiet_ms", "sim.instrs_per_op", "miniperf.samples_per_op"} {
		if res.Metrics[name] <= 0 {
			t.Errorf("%s = %v, want > 0 on table2-hotspots", name, res.Metrics[name])
		}
	}
	if f := res.Metrics["trace.unattributed_frac"]; f > 0.10 {
		t.Errorf("trace.unattributed_frac = %v, want <= 0.10", f)
	}
	matches, _ := filepath.Glob(filepath.Join(dir, "trace-*.trace.json"))
	if len(matches) != 1 {
		t.Fatalf("trace files: %v", matches)
	}
	data, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tr); err != nil || len(tr.TraceEvents) == 0 {
		t.Fatalf("trace file unreadable or empty: %v", err)
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric
// tables the benchmark prints in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloadDefs))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadDefs[i].name || w.Why != workloadDefs[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloadDefs[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit || got[i].Better != want[i].Better {
				t.Errorf("%s %d: BENCHMARK.json %+v, benchmark %s %s %s", kind, i, got[i], want[i].Name, want[i].Unit, want[i].Better)
			}
		}
	}
	var e2e []struct{ Name, Unit, Better string }
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, struct{ Name, Unit, Better string }{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
