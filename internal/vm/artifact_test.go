package vm

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
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

// decodeNoPanic runs DecodeArtifact, failing the test if it panics.
func decodeNoPanic(t *testing.T, what string, data []byte) (*Program, error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("decode of %s panicked: %v", what, r)
		}
	}()
	return DecodeArtifact(data)
}

// v3SumArtifact is a version-3 artifact of buildSumModule(4) without a
// data image, as the binary module encoding of that version wrote it.
const v3SumArtifact = "03ee01010174010464617461060004010373756d06000201610800016e05000573756d2e630101" +
	"12747269705f6d756c7469706c652e6c6f6f70200305656e747279046c6f6f7004657869740125000000000000" +
	"010100082105000000000274310200050000020702000100210600000000027432020106000000000000000000" +
	"020602000100200800000800027433020200020200001e060000000002743401020400000e0600000000027435" +
	"020203020500000105000000000274360202020005000200000c01000200000274370202070201000026000000" +
	"0000010208020102000124000000000001020600000000"

// TestArtifactDecodeRejects pins the decoder's failure modes: version
// mismatches, truncations and trailing garbage all return errors, and
// no corruption of the module text panics, so the artifact store can
// fall back to a recompile.
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

	v3, err := hex.DecodeString(v3SumArtifact)
	if err != nil {
		t.Fatal(err)
	}
	for _, old := range []struct {
		name    string
		payload []byte
	}{
		// A version-1 payload carries a superblock flag byte after the
		// version; a version-2 payload a hot-function flag byte; a
		// version-3 payload a binary module encoding. Each must be
		// rejected by version, not misparsed.
		{"version-1", append([]byte{1, 1}, data[1:]...)},
		{"version-2", append([]byte{2, 0}, data[1:]...)},
		{"version-3", v3},
	} {
		if _, err := decodeNoPanic(t, old.name+" payload", old.payload); err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("%s payload: want version error, got %v", old.name, err)
		}
	}

	for _, cut := range []int{0, 1, 2, 3, len(data) / 2, len(data) - 1} {
		if _, err := decodeNoPanic(t, fmt.Sprintf("%d-byte truncation", cut), data[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}

	// Corrupt the module text under a consistent length prefix: every
	// truncation and single-byte flip must decode to an error or a
	// program, never a panic.
	textLen, n := binary.Uvarint(data[1:])
	text, rest := data[1+n:1+n+int(textLen)], data[1+n+int(textLen):]
	withText := func(text []byte) []byte {
		out := binary.AppendUvarint([]byte{ArtifactVersion}, uint64(len(text)))
		return append(append(out, text...), rest...)
	}
	if _, err := decodeNoPanic(t, "re-framed artifact", withText(text)); err != nil {
		t.Fatalf("re-framing the intact text: %v", err)
	}
	for cut := 0; cut < len(text); cut++ {
		_, _ = decodeNoPanic(t, fmt.Sprintf("module text cut to %d bytes", cut), withText(text[:cut]))
	}
	for i := range text {
		mangled := append([]byte(nil), text...)
		mangled[i] ^= 0x5a
		_, _ = decodeNoPanic(t, fmt.Sprintf("module text flipped at byte %d", i), withText(mangled))
	}
}
