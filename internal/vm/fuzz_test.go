package vm_test

import (
	"bytes"
	"testing"

	"mperf/internal/platform"
	"mperf/internal/vm"
	"mperf/internal/workloads"
)

// FuzzDecodeArtifact checks that no input panics the artifact decoder,
// and that what it accepts re-encodes to an artifact that decodes and
// re-encodes to the same bytes. The seeds, the raw and instrumented X60
// builds of every catalog workload at small sizes, must re-encode to
// themselves exactly; a fuzzed input need not, since the IR parser
// also accepts layout the printer does not write (a tab for a space).
func FuzzDecodeArtifact(f *testing.F) {
	params := workloads.Params{Elems: 64, MemsetWords: 64, MatmulN: 16, MatmulTile: 8,
		Sqlite: &workloads.SqliteConfig{ProgLen: 8, Rows: 4, Queries: 1, CellArea: 64, TextArea: 64, PatLen: 2}}
	for _, name := range workloads.Names() {
		spec, err := workloads.Lookup(name, params)
		if err != nil {
			f.Fatal(err)
		}
		for _, optimize := range []bool{false, true} {
			prog, err := spec.BuildProgram(platform.X60(), optimize, optimize)
			if err != nil {
				f.Fatalf("%s: %v", name, err)
			}
			data, err := vm.EncodeArtifact(prog)
			if err != nil {
				f.Fatalf("%s: %v", name, err)
			}
			if again := reencode(f, data); !bytes.Equal(again, data) {
				f.Fatalf("%s: artifact re-encodes to other bytes:\nin:  %q\nout: %q", name, data, again)
			}
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := vm.DecodeArtifact(data); err != nil {
			return
		}
		once := reencode(t, data)
		if twice := reencode(t, once); !bytes.Equal(twice, once) {
			t.Fatalf("re-encoding is not a fixpoint:\nfirst:  %q\nsecond: %q", once, twice)
		}
	})
}

// reencode decodes an artifact that must decode and encodes it again.
func reencode(t testing.TB, data []byte) []byte {
	t.Helper()
	prog, err := vm.DecodeArtifact(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	again, err := vm.EncodeArtifact(prog)
	if err != nil {
		t.Fatalf("decoded artifact does not encode: %v", err)
	}
	return again
}
