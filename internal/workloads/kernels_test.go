package workloads_test

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"mperf/internal/ir"
	"mperf/internal/platform"
	"mperf/internal/vm"
	"mperf/internal/workloads"
	"mperf/pkg/mperf"
)

// TestWorkloadInfosPinned pins the registry listing (`miniperf
// workloads`, /v1/workloads): every name, entry and default-size
// description.
func TestWorkloadInfosPinned(t *testing.T) {
	want := [][3]string{
		{"dot", "dot", "f32 dot product over 65536 elements (FP reduction)"},
		{"gather", "gather", "irregular gather over 65536 f32 elements (data-dependent loads)"},
		{"matmul", "matmul", "cache-blocked 128×128 SGEMM, tile 32 (roofline kernel, §5.2)"},
		{"memset", "memset64", "streaming memset of 1048576 8-byte words (memory-roof kernel)"},
		{"ptrchase", "ptrchase", "pointer chase over 65536-entry cycle (latency-bound, zero MLP)"},
		{"scatter", "scatter", "irregular scatter over 65536 f32 elements (data-dependent stores)"},
		{"spmv", "spmv", "CSR SpMV, 65536 rows × 8 nnz/row (irregular memory-bound kernel)"},
		{"sqlite", "runQueries", "synthetic sqlite3 VDBE interpreter (hotspot study, §5.1)"},
		{"stencil", "stencil3", "1D 3-point stencil over 65536 f32 elements"},
		{"stream_add", "stream_add", "STREAM add over 65536 f32 elements (three-stream bandwidth kernel)"},
		{"stream_copy", "stream_copy", "STREAM copy over 65536 f32 elements (pure bandwidth, zero FLOPs)"},
		{"stream_scale", "stream_scale", "STREAM scale over 65536 f32 elements (bandwidth kernel)"},
		{"triad", "triad", "STREAM triad over 65536 f32 elements (bandwidth kernel)"},
	}
	got, err := mperf.WorkloadInfos()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d workloads, want %d: %+v", len(got), len(want), got)
	}
	for i, w := range want {
		if g := got[i]; [3]string{g.Name, g.Entry, g.Description} != w {
			t.Errorf("workload %d = %+v, want %q", i, g, w)
		}
	}
}

// TestArrayKernelLayoutPinned pins, for every array kernel at 64
// elements, what fixes its memory layout and its inputs: the module's
// globals in declaration order, the entry arguments (addresses written
// as global+offset), and a digest of the seeded data image. Together
// with the catalog digests at the default sizes this is what a change
// to how kernels are wired must leave alone.
func TestArrayKernelLayoutPinned(t *testing.T) {
	want := map[string]struct{ globals, args, image string }{
		"dot": {"da f32[64], db f32[64]", "da, db, 64",
			"5a4d0c7733954fe1"},
		"triad": {"ta f32[64], tb f32[64], tc f32[64]", "ta, tb, tc, 0x3fc00000, 64",
			"6a507ed5d28a7f4a"},
		"stencil": {"sout f32[64], sin f32[64]", "sout+4, sin+4, 62",
			"79f12d90066b7b37"},
		"memset": {"buf i64[64]", "buf, 0xab, 64",
			"076a27c79e5ace2a"},
		"stream_copy": {"cpa f32[64], cpb f32[64]", "cpa, cpb, 64",
			"79f12d90066b7b37"},
		"stream_scale": {"sla f32[64], slb f32[64]", "sla, slb, 0x3f400000, 64",
			"79f12d90066b7b37"},
		"stream_add": {"ada f32[64], adb f32[64], adc f32[64]", "ada, adb, adc, 64",
			"6a507ed5d28a7f4a"},
		"gather": {"ga f32[64], gb f32[64], gidx i64[64]", "ga, gb, gidx, 64",
			"7f75dbcd09355c35"},
		"scatter": {"sa f32[64], sb f32[64], sidx i64[64]", "sa, sb, sidx, 64",
			"7f75dbcd09355c35"},
		"spmv": {"sy f32[64], sval f32[512], scol i64[512], srowptr i64[65], sx f32[64]",
			"sy, sval, scol, srowptr, sx, 64", "39b47e6a89197558"},
		"ptrchase": {"chain i64[64]", "chain, 0x0, 64",
			"0a0eb80a80a42dc9"},
	}
	p := workloads.Params{Elems: 64, MemsetWords: 64}
	for name, w := range want {
		spec, err := workloads.Lookup(name, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mod := ir.NewModule(name)
		if err := spec.Build(mod); err != nil {
			t.Fatalf("%s: build: %v", name, err)
		}
		if len(mod.Funcs) == 0 || mod.Funcs[0].Name() != spec.Entry {
			t.Errorf("%s: entry %s is not the module's first function", name, spec.Entry)
		}
		var gs []string
		for _, g := range mod.Globals {
			gs = append(gs, fmt.Sprintf("%s %s[%d]", g.GName, g.Elem, g.Count))
		}
		if got := strings.Join(gs, ", "); got != w.globals {
			t.Errorf("%s: globals = %q, want %q", name, got, w.globals)
		}
		m, err := vm.New(platform.X60(), mod)
		if err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		if name == "memset" && spec.Seed != nil {
			t.Error("memset has a Seed: every instantiation would copy its zero image")
		}
		if spec.Seed != nil {
			if err := spec.Seed(m); err != nil {
				t.Fatalf("%s: seed: %v", name, err)
			}
		}
		args, err := spec.Args(m)
		if err != nil {
			t.Fatalf("%s: args: %v", name, err)
		}
		if got := renderArgs(t, m, mod, args); got != w.args {
			t.Errorf("%s: args = %q, want %q", name, got, w.args)
		}
		sum := sha256.Sum256(m.SnapshotData())
		if got := fmt.Sprintf("%x", sum[:8]); got != w.image {
			t.Errorf("%s: seeded image digest = %s, want %s", name, got, w.image)
		}
		m.Release()
	}
}

// renderArgs writes each argument as "global+offset" when it points
// into a global of mod, and as a literal otherwise.
func renderArgs(t *testing.T, m *vm.Machine, mod *ir.Module, args []uint64) string {
	t.Helper()
	out := make([]string, len(args))
	for i, a := range args {
		out[i] = fmt.Sprintf("%#x", a)
		if i == len(args)-1 {
			out[i] = fmt.Sprint(a) // the trip count
		}
		for _, g := range mod.Globals {
			base, err := m.GlobalAddr(g.GName)
			if err != nil {
				t.Fatal(err)
			}
			if a >= base && a < base+uint64(g.Count*g.Elem.Size()) {
				out[i] = g.GName
				if a > base {
					out[i] += fmt.Sprintf("+%d", a-base)
				}
			}
		}
	}
	return strings.Join(out, ", ")
}
