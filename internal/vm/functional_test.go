package vm

import (
	"slices"
	"strings"
	"testing"

	"mperf/internal/ir"
	"mperf/internal/machine"
	"mperf/internal/mem"
	"mperf/internal/platform"
)

// buildAccumModule returns f32 @accum(ptr a, ptr c, i64 n), which
// calls @axpy(a, c, n), a self-loop inside the kernel vocabulary that
// accumulates c[i] = fma(a[i], 3, c[i]), and then returns c[n-1]. Every
// run changes c, so results and memory tell runs apart, while the
// timing depends on no data value.
func buildAccumModule(n int) *ir.Module {
	mod := ir.NewModule("t")
	mod.NewGlobal("a", ir.F32, n)
	mod.NewGlobal("c", ir.F32, n)

	axpy := mod.NewFunc("axpy", ir.Void,
		ir.NewParam("a", ir.Ptr), ir.NewParam("c", ir.Ptr), ir.NewParam("n", ir.I64))
	b := ir.NewBuilder(axpy)
	entry := b.NewBlock("entry")
	loop := axpy.NewBlock("loop")
	exit := axpy.NewBlock("exit")
	b.Br(loop)
	b.SetBlock(loop)
	i := b.Phi(ir.I64)
	x := b.Load(ir.F32, b.GEP(axpy.Params[0], i, 4))
	pc := b.GEP(axpy.Params[1], i, 4)
	b.Store(b.FMA(x, ir.ConstFloat(ir.F32, 3), b.Load(ir.F32, pc)), pc)
	inext := b.Add(i, ir.ConstInt(ir.I64, 1))
	b.CondBr(b.ICmp(ir.PredLT, inext, axpy.Params[2]), loop, exit)
	ir.AddIncoming(i, ir.ConstInt(ir.I64, 0), entry)
	ir.AddIncoming(i, inext, loop)
	b.SetBlock(exit)
	b.RetVoid()

	f := mod.NewFunc("accum", ir.F32,
		ir.NewParam("a", ir.Ptr), ir.NewParam("c", ir.Ptr), ir.NewParam("n", ir.I64))
	b = ir.NewBuilder(f)
	b.NewBlock("entry")
	b.Call(axpy, f.Params[0], f.Params[1], f.Params[2])
	last := b.Sub(f.Params[2], ir.ConstInt(ir.I64, 1))
	b.Ret(b.Load(ir.F32, b.GEP(f.Params[1], last, 4)))
	return mod
}

// memCounters is every statistic of a memory hierarchy.
type memCounters struct {
	hier                     [7]uint64
	l1, l2                   [3]uint64
	dramBytes, dramTransfers uint64
}

func countersOf(h *mem.Hierarchy) memCounters {
	l1, l2 := h.L1D(), h.L2()
	return memCounters{
		hier: [7]uint64{h.WriteBacks, h.L1Accesses, h.L1Hits, h.L2Accesses, h.L2Hits,
			h.L1Bytes, h.L2Bytes},
		l1:            [3]uint64{l1.Accesses, l1.Misses, l1.Evicts},
		l2:            [3]uint64{l2.Accesses, l2.Misses, l2.Evicts},
		dramBytes:     h.DRAM().Bytes,
		dramTransfers: h.DRAM().Transfers,
	}
}

// TestRunFunctional pins the functional run on an in-order and an
// out-of-order pipeline: it computes what Run computes, leaves the
// core exactly as it found it (a timed run after it costs what it
// would have cost without it), and traps on the step budget at the
// same step.
func TestRunFunctional(t *testing.T) {
	const n = 2048
	prog, err := Compile(buildAccumModule(n))
	if err != nil {
		t.Fatal(err)
	}
	for _, plat := range []*platform.Platform{platform.X60(), platform.C910()} {
		t.Run(plat.Name, func(t *testing.T) {
			newMachine := func() *Machine {
				m := NewMachine(prog, plat)
				t.Cleanup(m.Release)
				a, _ := m.GlobalAddr("a")
				c, _ := m.GlobalAddr("c")
				for i := 0; i < n; i++ {
					if err := m.WriteF32(a+uint64(i*4), float32(i%7)*0.25); err != nil {
						t.Fatal(err)
					}
					if err := m.WriteF32(c+uint64(i*4), 1); err != nil {
						t.Fatal(err)
					}
				}
				return m
			}
			run := func(m *Machine, functional bool) uint64 {
				t.Helper()
				a, _ := m.GlobalAddr("a")
				c, _ := m.GlobalAddr("c")
				exec := m.Run
				if functional {
					exec = m.RunFunctional
				}
				res, err := exec("accum", a, c, n)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			image := func(m *Machine) []float32 {
				c, _ := m.GlobalAddr("c")
				out := make([]float32, n)
				for i := range out {
					out[i], _ = m.ReadF32(c + uint64(i*4))
				}
				return out
			}

			// Reference: two timed runs.
			ref := newMachine()
			run(ref, false)
			want := run(ref, false)

			// A timed run, then a functional one.
			m := newMachine()
			run(m, false)
			core := m.Hart().Core
			stats, counters := core.Stats(), countersOf(core.Mem())
			hits := m.kernelHits
			if got := run(m, true); got != want {
				t.Errorf("RunFunctional returned %#x, Run %#x", got, want)
			}
			if got, want := image(m), image(ref); !slices.Equal(got, want) {
				t.Error("RunFunctional left memory different from Run's")
			}
			if m.kernelHits == hits {
				t.Error("no loop kernel ran in the functional run")
			}
			if got := core.Stats(); got != stats {
				t.Errorf("RunFunctional moved the core's Stats:\nbefore %+v\nafter  %+v", stats, got)
			}
			if got := countersOf(core.Mem()); got != counters {
				t.Errorf("RunFunctional moved the memory hierarchy:\nbefore %+v\nafter  %+v", counters, got)
			}

			// The next timed run costs exactly what the reference's
			// second timed run cost (the timing depends on no data
			// value): predictor, scoreboard, store buffer, caches and
			// DRAM channel were left as they were.
			run(m, false)
			if got, want := core.Stats(), ref.Hart().Core.Stats(); got != want {
				t.Errorf("timed run after RunFunctional left Stats\n%+v\nwant\n%+v", got, want)
			}

			// The step budget traps at the same step, and a trapped
			// functional run charges nothing either.
			timed, fn := newMachine(), newMachine()
			timed.MaxSteps, fn.MaxSteps = 5000, 5000
			a, _ := timed.GlobalAddr("a")
			c, _ := timed.GlobalAddr("c")
			_, errTimed := timed.Run("accum", a, c, n)
			_, errFn := fn.RunFunctional("accum", a, c, n)
			if errTimed == nil || errFn == nil || !strings.Contains(errFn.Error(), "step budget") {
				t.Fatalf("step budget not enforced: Run %v, RunFunctional %v", errTimed, errFn)
			}
			if errFn.Error() != errTimed.Error() || fn.Steps() != timed.Steps() {
				t.Errorf("RunFunctional trapped at step %d (%v), Run at %d (%v)",
					fn.Steps(), errFn, timed.Steps(), errTimed)
			}
			if got := fn.Hart().Core.Stats(); got != (machine.Stats{}) {
				t.Errorf("trapped RunFunctional charged the core: %+v", got)
			}
			// The trap cleared the functional mode: the next run is timed.
			fn.MaxSteps = defaultMaxStep
			run(fn, false)
			if fn.Hart().Core.Cycles() == 0 {
				t.Error("Run after a trapped RunFunctional charged nothing")
			}
		})
	}
}
