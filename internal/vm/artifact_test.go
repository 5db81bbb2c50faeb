package vm

import (
	"strings"
	"testing"

	"mperf/internal/platform"
)

// compileSum compiles the shared sum module with a baked data image,
// mirroring what workloads.BuildProgram produces.
func compileSum(t *testing.T, n int) *Program {
	t.Helper()
	prog, err := Compile(buildSumModule(n))
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(prog, platform.X60())
	fillSumData(t, m, n)
	if err := prog.SetDataImage(m.SnapshotData()); err != nil {
		t.Fatal(err)
	}
	m.Release()
	return prog
}

// runSum executes the program once and returns the architectural
// outcome (result bits plus retired cycle/instruction counts).
func runSumProg(t *testing.T, prog *Program, n int) archResult {
	t.Helper()
	m := NewMachine(prog, platform.X60())
	defer m.Release()
	addr, err := prog.GlobalAddr("data")
	if err != nil {
		t.Fatal(err)
	}
	bits, err := m.Run("sum", addr, uint64(n))
	if err != nil {
		t.Fatal(err)
	}
	st := m.Hart().Core.Stats()
	return archResult{bits: bits, cycles: st.Cycles, instret: st.Instret}
}

// perInstructionSum is the outcome the removed per-instruction
// interpreter loop produced for the 512-element sum program on the X60,
// recorded while it and the region loop still agreed.
var perInstructionSum = archResult{bits: 0x43bfa000, cycles: 8743, instret: 3074}

// TestArtifactRoundTrip pins that a program decoded from its artifact
// behaves architecturally identically to the original — same result
// bits, same cycle and instruction counts — with the baked data image
// intact and a byte-stable encoding. The per-instruction subtest pins
// the decoded program to the recorded outcome of the per-instruction
// loop.
func TestArtifactRoundTrip(t *testing.T) {
	const n = 512
	prog := compileSum(t, n)
	want := runSumProg(t, prog, n)
	data, err := EncodeArtifact(prog)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := DecodeArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	got := runSumProg(t, loaded, n)

	t.Run("superblocks", func(t *testing.T) {
		if loaded.DataSize() != prog.DataSize() {
			t.Fatalf("data size changed: %d != %d", loaded.DataSize(), prog.DataSize())
		}
		if got != want {
			t.Fatalf("decoded program diverges: got %+v, want %+v", got, want)
		}
		// The artifact encoding itself must be stable: re-encoding the
		// decoded program reproduces the identical bytes (the
		// content-addressed store relies on this).
		data2, err := EncodeArtifact(loaded)
		if err != nil {
			t.Fatal(err)
		}
		if string(data2) != string(data) {
			t.Fatal("artifact encoding is not stable across a round trip")
		}
	})
	t.Run("per-instruction", func(t *testing.T) {
		if got != perInstructionSum {
			t.Fatalf("decoded program = %+v, per-instruction loop produced %+v", got, perInstructionSum)
		}
	})
}

// kernelBlocks lists, in plan order, the function/block names whose
// loops matched a specialized kernel.
func kernelBlocks(p *Program) []string {
	var out []string
	for _, f := range p.mod.Funcs {
		fp := p.plans[f]
		for _, bp := range fp.blocks {
			if bp.kernel != nil {
				out = append(out, f.FName+"/"+bp.block.BName)
			}
		}
	}
	return out
}

// TestArtifactHotFuncsRoundTrip pins that a program decoded from its
// artifact re-plans the same loop kernels as the original, and that
// they engage identically at run time.
func TestArtifactHotFuncsRoundTrip(t *testing.T) {
	const n = 256
	prog, err := Compile(buildFMASumModule(n))
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeArtifact(prog)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := DecodeArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	want, got := kernelBlocks(prog), kernelBlocks(loaded)
	if len(want) == 0 {
		t.Fatal("FMA sum matched no loop kernel")
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("decoded program kernels %v, original %v", got, want)
	}
	wantSum, wantSt := runFMASumProg(t, prog, n)
	gotSum, gotSt := runFMASumProg(t, loaded, n)
	if gotSum != wantSum || gotSt.KernelHits.Load() != wantSt.KernelHits.Load() ||
		gotSt.KernelIters.Load() != wantSt.KernelIters.Load() {
		t.Fatalf("decoded program: sum %f hits %d iters %d; original: sum %f hits %d iters %d",
			gotSum, gotSt.KernelHits.Load(), gotSt.KernelIters.Load(),
			wantSum, wantSt.KernelHits.Load(), wantSt.KernelIters.Load())
	}
}

// TestArtifactDecodeRejects pins the decoder's failure modes: version
// mismatches, truncations and trailing garbage all return errors (and
// never panic), so the artifact store can fall back to a recompile.
func TestArtifactDecodeRejects(t *testing.T) {
	prog := compileSum(t, 128)
	data, err := EncodeArtifact(prog)
	if err != nil {
		t.Fatal(err)
	}

	bad := append([]byte(nil), data...)
	bad[0] = ArtifactVersion + 1
	if _, err := DecodeArtifact(bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("want version error, got %v", err)
	}

	if _, err := DecodeArtifact(append(append([]byte(nil), data...), 0xAA)); err == nil {
		t.Fatal("trailing bytes accepted")
	}

	// A version-1 payload carries a superblock flag byte after the
	// version; it must be rejected by version, not misparsed.
	v1 := append([]byte{1, 1}, data[1:]...)
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("decode of a version-1 payload panicked: %v", r)
			}
		}()
		if _, err := DecodeArtifact(v1); err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("version-1 payload: want version error, got %v", err)
		}
	}()

	// A version-2 payload carries a hot-function flag byte after the
	// version; it too must be rejected by version.
	v2 := append([]byte{2, 0}, data[1:]...)
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("decode of a version-2 payload panicked: %v", r)
			}
		}()
		if _, err := DecodeArtifact(v2); err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("version-2 payload: want version error, got %v", err)
		}
	}()

	for _, cut := range []int{0, 1, 2, 3, len(data) / 2, len(data) - 1} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("decode of %d-byte truncation panicked: %v", cut, r)
				}
			}()
			if _, err := DecodeArtifact(data[:cut]); err == nil {
				t.Fatalf("truncation to %d bytes accepted", cut)
			}
		}()
	}
}
