package vm

import (
	"bytes"
	"sync"
	"testing"

	"mperf/internal/platform"
)

// These tests pin the Program/Machine split: one immutable compiled
// artifact shared by many machines, each with private memory, frames
// and PMU state. The concurrency test is the -race acceptance check:
// machines off one Program must produce bit-identical architectural
// results when executed from many goroutines at once.

// fillSumData writes the deterministic input pattern vm_test's
// fillData uses, without the testing.T plumbing.
func fillSumData(t *testing.T, m *Machine, n int) {
	t.Helper()
	addr, err := m.GlobalAddr("data")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := m.WriteF32(addr+uint64(i*4), float32(i%7)*0.25); err != nil {
			t.Fatal(err)
		}
	}
}

type archResult struct {
	bits    uint64
	cycles  uint64
	instret uint64
}

func TestSharedProgramConcurrentMachines(t *testing.T) {
	const n = 2048
	prog, err := Compile(buildSumModule(n))
	if err != nil {
		t.Fatal(err)
	}
	addr, err := prog.GlobalAddr("data")
	if err != nil {
		t.Fatal(err)
	}

	runOnce := func() archResult {
		m := NewMachine(prog, platform.X60())
		defer m.Release()
		fillSumData(t, m, n)
		bits, err := m.Run("sum", addr, uint64(n))
		if err != nil {
			t.Error(err)
		}
		st := m.Hart().Core.Stats()
		return archResult{bits: bits, cycles: st.Cycles, instret: st.Instret}
	}

	want := runOnce()
	if want.cycles == 0 || want.instret == 0 {
		t.Fatalf("reference run did not charge the core: %+v", want)
	}

	const goroutines, rounds = 8, 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if got := runOnce(); got != want {
					t.Errorf("shared-program run diverged: got %+v, want %+v", got, want)
				}
			}
		}()
	}
	wg.Wait()
}

func TestReleasedMemoryIsScrubbedBeforeReuse(t *testing.T) {
	const n = 512
	// Two programs of one memory size share one instance-memory pool:
	// plain has no data image, baked has one.
	plain, err := Compile(buildSumModule(n))
	if err != nil {
		t.Fatal(err)
	}
	baked, err := Compile(buildSumModule(n))
	if err != nil {
		t.Fatal(err)
	}
	if plain.memSize != baked.memSize || plain.memPool != baked.memPool {
		t.Fatalf("equal-size programs do not share a pool (sizes %d, %d)", plain.memSize, baked.memSize)
	}
	seeder := NewMachine(baked, platform.X60())
	fillSumData(t, seeder, n)
	if err := baked.SetDataImage(seeder.SnapshotData()); err != nil {
		t.Fatal(err)
	}
	seeder.Release()

	m := NewMachine(plain, platform.X60())
	fillSumData(t, m, n)
	addr, _ := m.GlobalAddr("data")
	if v, err := m.ReadF32(addr + 4); err != nil || v == 0 {
		t.Fatalf("seed write not visible: v=%v err=%v", v, err)
	}
	m.Release()
	m.Release() // double release must be a no-op

	// Instantiate the two programs alternately, dirtying every global
	// and the top of the stack before each release. The next machine
	// very likely reuses the pooled buffer, whichever program released
	// it; either way it must observe its own image and zero elsewhere.
	zeros := make([]byte, plain.memSize)
	for round := 0; round < 3; round++ {
		for _, prog := range []*Program{plain, baked, baked, plain} {
			m := NewMachine(prog, platform.X60())
			data := m.mem[memBase:prog.stackBase]
			if prog.image != nil && !bytes.Equal(data, prog.image) {
				t.Fatalf("round %d: data region differs from the program's image", round)
			}
			if prog.image == nil && !bytes.Equal(data, zeros[:len(data)]) {
				t.Fatalf("round %d: pooled data region not scrubbed for an image-less program", round)
			}
			if !bytes.Equal(m.mem[:memBase], zeros[:memBase]) ||
				!bytes.Equal(m.mem[prog.stackBase:], zeros[prog.stackBase:]) {
				t.Fatalf("round %d: pooled memory outside the data region not scrubbed", round)
			}
			for a := uint64(memBase); a < prog.memSize; a += 8 {
				if a < prog.stackBase || a >= prog.memSize-256 {
					if err := m.WriteU64(a, 0xdeadbeef^a); err != nil {
						t.Fatal(err)
					}
				}
			}
			m.Release()
		}
	}
}

// TestSiblingRunsBesideItsOrigin: a sibling starts from its origin's
// data (seeded by the host here, not baked into an image), runs at the
// same time on its own hart, inherits the remaining step budget, and
// folds its steps into the origin on Release.
func TestSiblingRunsBesideItsOrigin(t *testing.T) {
	const n = 1024
	prog, err := Compile(buildSumModule(n))
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(prog, platform.X60())
	defer m.Release()
	fillSumData(t, m, n)
	addr, _ := m.GlobalAddr("data")

	sib := m.Sibling()
	if sib.Hart() == m.Hart() {
		t.Fatal("sibling shares its origin's hart")
	}
	var (
		sibBits uint64
		sibErr  error
		done    = make(chan struct{})
	)
	go func() {
		defer close(done)
		sibBits, sibErr = sib.Run("sum", addr, uint64(n))
	}()
	bits, err := m.Run("sum", addr, uint64(n))
	<-done
	if err != nil || sibErr != nil {
		t.Fatalf("origin err %v, sibling err %v", err, sibErr)
	}
	if bits != sibBits || bits == 0 {
		t.Errorf("sibling sum %#x, origin %#x: sibling did not start from the origin's data", sibBits, bits)
	}
	steps := m.Steps()
	if sib.Steps() != steps {
		t.Errorf("sibling ran %d steps, origin %d", sib.Steps(), steps)
	}
	sib.Release()
	if got := m.Steps(); got != 2*steps {
		t.Errorf("origin steps after the sibling's release = %d, want %d", got, 2*steps)
	}

	m.MaxSteps = m.Steps() + 10
	budgeted := m.Sibling()
	defer budgeted.Release()
	if budgeted.MaxSteps != 10 {
		t.Errorf("sibling budget = %d, want the 10 steps left", budgeted.MaxSteps)
	}
}

func TestProgramDataImageBakesSeed(t *testing.T) {
	const n = 256
	prog, err := Compile(buildSumModule(n))
	if err != nil {
		t.Fatal(err)
	}
	addr, _ := prog.GlobalAddr("data")

	// Seed one machine by hand and capture its data image.
	seeder := NewMachine(prog, platform.X60())
	fillSumData(t, seeder, n)
	want, err := seeder.Run("sum", addr, uint64(n))
	if err != nil {
		t.Fatal(err)
	}
	// Re-seed so the snapshot is the pre-run image (the run itself does
	// not write globals for this kernel, but be explicit).
	fillSumData(t, seeder, n)
	if err := prog.SetDataImage(seeder.SnapshotData()); err != nil {
		t.Fatal(err)
	}
	if err := prog.SetDataImage(seeder.SnapshotData()); err == nil {
		t.Error("second SetDataImage should be rejected")
	}
	seeder.Release()

	// A fresh machine needs no seeding: the image is copied in.
	m := NewMachine(prog, platform.X60())
	defer m.Release()
	got, err := m.Run("sum", addr, uint64(n))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("image-instantiated run = %#x, want %#x", got, want)
	}
}

func TestSetDataImageRejectsWrongSize(t *testing.T) {
	prog, err := Compile(buildSumModule(64))
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.SetDataImage(make([]byte, prog.DataSize()+1)); err == nil {
		t.Error("oversized image accepted")
	}
}
