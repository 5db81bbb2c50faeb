package workloads

import (
	"strings"
	"testing"

	"mperf/internal/ir"
	"mperf/internal/platform"
	"mperf/internal/vm"
)

func TestLookupUnknownWorkload(t *testing.T) {
	_, err := Lookup("raytracer", Params{})
	if err == nil || !strings.Contains(err.Error(), "unknown workload") {
		t.Errorf("err = %v", err)
	}
}

func TestLookupRejectsBadMatmulParams(t *testing.T) {
	if _, err := Lookup("matmul", Params{MatmulN: 100, MatmulTile: 24}); err == nil {
		t.Error("n % tile != 0 accepted")
	}
	if _, err := Lookup("matmul", Params{MatmulN: 24, MatmulTile: 12}); err == nil {
		t.Error("tile % 8 != 0 accepted")
	}
}

// TestEverySpecRunsAndVerifies drives each registry entry end to end
// on a small size: build, load, seed, run.
func TestEverySpecRunsAndVerifies(t *testing.T) {
	small := Params{
		Sqlite:      &SqliteConfig{ProgLen: 16, Rows: 4, Queries: 1, CellArea: 256, TextArea: 256, PatLen: 4},
		MatmulN:     16,
		MatmulTile:  8,
		Elems:       256,
		MemsetWords: 256,
	}
	for _, name := range Names() {
		spec, err := Lookup(name, small)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if spec.Name != name || spec.Entry == "" || spec.Description == "" {
			t.Errorf("%s: incomplete spec %+v", name, spec)
		}
		runSpec(t, spec)
	}
}

// TestLookupEnforcesTripMultiple: the kernels whose loop runs exactly
// n times under the trip_multiple.loop = 16 hint refuse other sizes
// (the vectorized loop has no remainder, so they would run past n);
// gather carries no hint and runs at any size.
func TestLookupEnforcesTripMultiple(t *testing.T) {
	for _, name := range []string{"dot", "triad", "memset", "stream_copy", "stream_scale", "stream_add"} {
		if _, err := Lookup(name, Params{Elems: 1001, MemsetWords: 1001}); err == nil ||
			!strings.Contains(err.Error(), name) || !strings.Contains(err.Error(), "16") {
			t.Errorf("%s at 1001: err = %v, want a refusal naming %s and 16", name, err, name)
		}
		if _, err := Lookup(name, Params{Elems: 1008, MemsetWords: 1008}); err != nil {
			t.Errorf("%s at 1008: %v", name, err)
		}
	}
	spec, err := Lookup("gather", Params{Elems: 1001})
	if err != nil {
		t.Fatal(err)
	}
	runSpec(t, spec)
}

// runSpec builds, loads, seeds and runs a spec on x60.
func runSpec(t *testing.T, spec *Spec) {
	t.Helper()
	mod := ir.NewModule(spec.Name)
	if err := spec.Build(mod); err != nil {
		t.Fatalf("%s: build: %v", spec.Name, err)
	}
	m, err := vm.New(platform.X60(), mod)
	if err != nil {
		t.Fatalf("%s: load: %v", spec.Name, err)
	}
	if spec.Seed != nil {
		if err := spec.Seed(m); err != nil {
			t.Fatalf("%s: seed: %v", spec.Name, err)
		}
	}
	if err := spec.Run(m); err != nil {
		t.Errorf("%s: run: %v", spec.Name, err)
	}
}
