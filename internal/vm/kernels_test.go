package vm

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"mperf/internal/ir"
	"mperf/internal/isa"
	"mperf/internal/kernel"
	"mperf/internal/machine"
	"mperf/internal/platform"
	"mperf/internal/pmu"
)

// buildFMASumModule is buildSumModule with the accumulation expressed
// as an FMA, so the loop body falls entirely inside the specialized
// kernel vocabulary.
func buildFMASumModule(n int) *ir.Module {
	m := ir.NewModule("t")
	m.NewGlobal("data", ir.F32, n)
	f := m.NewFunc("sum", ir.F32, ir.NewParam("a", ir.Ptr), ir.NewParam("n", ir.I64))
	b := ir.NewBuilder(f)
	entry := b.NewBlock("entry")
	loop := f.NewBlock("loop")
	exit := f.NewBlock("exit")
	b.SetBlock(entry)
	b.Br(loop)
	b.SetBlock(loop)
	i := b.Phi(ir.I64)
	acc := b.Phi(ir.F32)
	p := b.GEP(f.Params[0], i, 4)
	v := b.Load(ir.F32, p)
	s := b.FMA(v, ir.ConstFloat(ir.F32, 1), acc)
	inext := b.Add(i, ir.ConstInt(ir.I64, 1))
	c := b.ICmp(ir.PredLT, inext, f.Params[1])
	b.CondBr(c, loop, exit)
	ir.AddIncoming(i, ir.ConstInt(ir.I64, 0), entry)
	ir.AddIncoming(i, inext, loop)
	ir.AddIncoming(acc, ir.ConstFloat(ir.F32, 0), entry)
	ir.AddIncoming(acc, s, loop)
	b.SetBlock(exit)
	b.Ret(s)
	return m
}

// runFMASum compiles the module, runs it, and returns the result plus
// the machine's kernel coverage.
func runFMASum(t *testing.T, n int) (float32, *ExecStats) {
	t.Helper()
	prog, err := Compile(buildFMASumModule(n))
	if err != nil {
		t.Fatal(err)
	}
	return runFMASumProg(t, prog, n)
}

// runFMASumProg seeds and runs a compiled FMA-sum program.
func runFMASumProg(t *testing.T, prog *Program, n int) (float32, *ExecStats) {
	t.Helper()
	m := NewMachine(prog, platform.X60())
	st := new(ExecStats)
	m.SetExecStats(st)
	defer m.Release()
	addr, err := m.GlobalAddr("data")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := m.WriteF32(addr+uint64(i*4), float32(i%7)*0.25); err != nil {
			t.Fatal(err)
		}
	}
	bits, err := m.Run("sum", addr, uint64(n))
	if err != nil {
		t.Fatal(err)
	}
	m.FlushExecStats()
	return math.Float32frombits(uint32(bits)), st
}

// TestWithHotFuncsGatesKernels pins that kernel specialization engages
// on the FMA loop — every iteration runs natively — and that the
// kernel computes the same sum as a scalar reference.
func TestWithHotFuncsGatesKernels(t *testing.T) {
	const n = 512
	got, st := runFMASum(t, n)
	if st.KernelHits.Load() == 0 || st.KernelIters.Load() != n {
		t.Errorf("kernel hits=%d iters=%d, want engaged with %d iters",
			st.KernelHits.Load(), st.KernelIters.Load(), n)
	}
	var want float32
	for i := 0; i < n; i++ {
		want += float32(i%7) * 0.25
	}
	if got != want {
		t.Errorf("kernel sum %f != reference %f", got, want)
	}
}

// operandLoopTrips is the trip count of buildOperandLoopModule's loop.
const operandLoopTrips = 64

// buildOperandLoopModule returns i64 @loop(), a self-loop inside the
// kernel vocabulary with an immediate in every operand position it
// allows: add, mul and icmp immediates, a gep whose base is a global
// and one whose index is a constant, stored i64 and f32 immediates, a
// splat of an immediate, an f32 FMA with immediate factors, an
// mperf.count handle, and a phi whose back-edge value is a constant.
// It loads and stores i64, f32 and <8 x f32>.
func buildOperandLoopModule() *ir.Module {
	const n = operandLoopTrips
	mod := ir.NewModule("t")
	// fbuf comes last, so the stored f32 immediate sets the dirty mark.
	ibuf := mod.NewGlobal("ibuf", ir.I64, n+8)
	vbuf := mod.NewGlobal("vbuf", ir.F32, n*8)
	fbuf := mod.NewGlobal("fbuf", ir.F32, n+8)
	count := mod.NewFunc("mperf.count", ir.Void, ir.NewParam("h", ir.I64),
		ir.NewParam("lb", ir.I64), ir.NewParam("sb", ir.I64),
		ir.NewParam("io", ir.I64), ir.NewParam("fo", ir.I64))
	f := mod.NewFunc("loop", ir.I64)
	b := ir.NewBuilder(f)
	entry := b.NewBlock("entry")
	loop := f.NewBlock("loop")
	exit := f.NewBlock("exit")
	b.Br(loop)
	b.SetBlock(loop)
	i := b.Phi(ir.I64)
	k := b.Phi(ir.I64)
	pi := b.GEP(ibuf, i, 8)
	x := b.Load(ir.I64, pi)
	y := b.Add(x, ir.ConstInt(ir.I64, 11))
	z := b.Mul(y, ir.ConstInt(ir.I64, 3))
	w := b.Add(z, k)
	b.Store(w, pi)
	b.Store(ir.ConstInt(ir.I64, 42), b.GEP(ibuf, ir.ConstInt(ir.I64, n+2), 8))
	pf := b.GEP(fbuf, i, 4)
	g := b.FMA(b.Load(ir.F32, pf), ir.ConstFloat(ir.F32, 1.5), ir.ConstFloat(ir.F32, 0.25))
	b.Store(g, pf)
	b.Store(ir.ConstFloat(ir.F32, 0.5), b.GEP(fbuf, ir.ConstInt(ir.I64, n+3), 4))
	pv := b.GEP(vbuf, i, 32)
	v := b.Load(ir.VecOf(ir.F32, 8), pv)
	s := b.Splat(ir.ConstFloat(ir.F32, 2), 8)
	b.Store(b.FMA(v, s, v), pv)
	b.Call(count, ir.ConstInt(ir.I64, 7), ir.ConstInt(ir.I64, 8),
		ir.ConstInt(ir.I64, 4), ir.ConstInt(ir.I64, 1), ir.ConstInt(ir.I64, 2))
	inext := b.Add(i, ir.ConstInt(ir.I64, 1))
	b.CondBr(b.ICmp(ir.PredLT, inext, ir.ConstInt(ir.I64, n)), loop, exit)
	ir.AddIncoming(i, ir.ConstInt(ir.I64, 0), entry)
	ir.AddIncoming(i, inext, loop)
	ir.AddIncoming(k, ir.ConstInt(ir.I64, 7), entry)
	ir.AddIncoming(k, ir.ConstInt(ir.I64, 3), loop)
	b.SetBlock(exit)
	b.Ret(w)
	return mod
}

// countRuntime sums the mperf.count calls it receives.
type countRuntime struct{ calls, sum int64 }

func (r *countRuntime) LoopBegin(id int64) int64 { return id }
func (r *countRuntime) LoopEnd(int64)            {}
func (r *countRuntime) IsInstrumented() bool     { return true }
func (r *countRuntime) Count(h, lb, sb, io, fo int64) {
	r.calls++
	r.sum += h + lb*10 + sb*100 + io*1000 + fo*10000
}

// everyEdgeSink hides the PMU's overflow headroom, so a sampled run
// delivers events at every block edge: the delivery FlushEdge must be
// indistinguishable from.
type everyEdgeSink struct{ *pmu.PMU }

func (everyEdgeSink) Headroom() (uint64, uint64) { return 0, 0 }

// armSampler opens the record collector's sampling group on m and
// enables it: a leader overflowing every period counts of the
// platform's sampling-capable cycle event (u_mode_cycle on the X60,
// cycles elsewhere), with cycles and instructions read into every
// sample. The returned function disables the group and drains it.
func armSampler(t *testing.T, m *Machine, period uint64) func() ([]kernel.SampleRecord, uint64) {
	t.Helper()
	k := m.Kernel()
	leader := isa.EventCycles
	if m.Platform().Caps.OverflowIRQ == pmu.OverflowLimited {
		leader = isa.RawEvent(isa.X60EventUModeCycle)
	}
	fd, err := k.PerfEventOpen(kernel.EventAttr{
		Label: "leader", Config: leader, SamplePeriod: period, Disabled: true,
		SampleType: kernel.SampleIP | kernel.SampleTime | kernel.SampleCallchain |
			kernel.SampleRead | kernel.SamplePeriod,
		ReadFormat: kernel.FormatGroup,
	}, -1)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range []isa.EventCode{isa.EventCycles, isa.EventInstructions} {
		if _, err := k.PerfEventOpen(kernel.EventAttr{Label: ev.String(), Config: ev, Disabled: true}, fd); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.EnableGroup(fd); err != nil {
		t.Fatal(err)
	}
	return func() ([]kernel.SampleRecord, uint64) {
		if err := k.DisableGroup(fd); err != nil {
			t.Fatal(err)
		}
		rb, err := k.Ring(fd)
		if err != nil {
			t.Fatal(err)
		}
		return rb.Drain(), rb.Lost
	}
}

// streamLoopTrips is the trip count of buildStreamLoopModule's loop.
const streamLoopTrips = 256

// buildStreamLoopModule returns void @loop() in the shape of the
// catalog's STREAM kernels over the f32 globals a, b and c, lanes
// wide: a[i] = b[i] op c[i] (stream_add for fadd) or, with scale set,
// a[i] = 3 op b[i] (stream_scale for fmul), the factor an immediate,
// splatted for vectors.
func buildStreamLoopModule(op ir.Op, lanes int, scale bool) *ir.Module {
	mod := ir.NewModule("t")
	n := streamLoopTrips * lanes
	ga, gb, gc := mod.NewGlobal("a", ir.F32, n), mod.NewGlobal("b", ir.F32, n), mod.NewGlobal("c", ir.F32, n)
	f := mod.NewFunc("loop", ir.Void)
	b := ir.NewBuilder(f)
	entry := b.NewBlock("entry")
	loop := f.NewBlock("loop")
	exit := f.NewBlock("exit")
	b.Br(loop)
	b.SetBlock(loop)
	i := b.Phi(ir.I64)
	ty, size := ir.F32, int64(4*lanes)
	if lanes > 1 {
		ty = ir.VecOf(ir.F32, lanes)
	}
	var x, y ir.Value = b.Load(ty, b.GEP(gb, i, size)), nil
	if scale {
		y = x
		if x = ir.ConstFloat(ir.F32, 3); lanes > 1 {
			x = b.Splat(x, lanes)
		}
	} else {
		y = b.Load(ty, b.GEP(gc, i, size))
	}
	var r ir.Value
	switch op {
	case ir.OpFAdd:
		r = b.FAdd(x, y)
	case ir.OpFSub:
		r = b.FSub(x, y)
	case ir.OpFMul:
		r = b.FMul(x, y)
	default:
		r = b.FDiv(x, y)
	}
	b.Store(r, b.GEP(ga, i, size))
	inext := b.Add(i, ir.ConstInt(ir.I64, 1))
	b.CondBr(b.ICmp(ir.PredLT, inext, ir.ConstInt(ir.I64, streamLoopTrips)), loop, exit)
	ir.AddIncoming(i, ir.ConstInt(ir.I64, 0), entry)
	ir.AddIncoming(i, inext, loop)
	b.SetBlock(exit)
	b.RetVoid()
	return mod
}

// seedF32 fills the first elems f32 elements of each named global with
// a pattern that has no zero, so a division stays finite.
func seedF32(t *testing.T, m *Machine, elems uint64, globals ...string) {
	t.Helper()
	for _, g := range globals {
		addr, err := m.GlobalAddr(g)
		if err != nil {
			t.Fatal(err)
		}
		for j := uint64(0); j < elems; j++ {
			if err := m.WriteF32(addr+4*j, float32(j%13)*0.75-2); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// kernelCase is one loop program TestKernelMatchesGenericExecutor
// runs both ways: mod's @loop, whose kernel runs trips iterations in a
// whole run, with its globals filled by seed.
type kernelCase struct {
	name  string
	mod   *ir.Module
	trips uint64
	count bool // @loop calls mperf.count, so it traps without a runtime
	seed  func(t *testing.T, m *Machine)
}

func kernelCases() []kernelCase {
	seedStream := func(lanes uint64) func(*testing.T, *Machine) {
		return func(t *testing.T, m *Machine) { seedF32(t, m, streamLoopTrips*lanes, "b", "c") }
	}
	cases := []kernelCase{{
		name: "operand-loop", mod: buildOperandLoopModule(), trips: operandLoopTrips, count: true,
		seed: func(t *testing.T, m *Machine) {
			ibuf, _ := m.GlobalAddr("ibuf")
			for j := uint64(0); j < operandLoopTrips; j++ {
				if err := m.WriteU64(ibuf+8*j, j*0x9e3779b97f4a7c15); err != nil {
					t.Fatal(err)
				}
			}
			seedF32(t, m, operandLoopTrips, "fbuf")
			seedF32(t, m, 8*operandLoopTrips, "vbuf")
		},
	}}
	for _, lanes := range []int{1, 8} {
		for _, sc := range []struct {
			name  string
			op    ir.Op
			scale bool
		}{
			{"stream_add", ir.OpFAdd, false},
			{"stream_scale", ir.OpFMul, true},
			{"fsub", ir.OpFSub, false},
			{"fdiv", ir.OpFDiv, true},
		} {
			cases = append(cases, kernelCase{
				name: fmt.Sprintf("%s/lanes=%d", sc.name, lanes),
				mod:  buildStreamLoopModule(sc.op, lanes, sc.scale), trips: streamLoopTrips,
				seed: seedStream(uint64(lanes)),
			})
		}
	}
	return cases
}

// TestKernelMatchesGenericExecutor runs each kernel case's loop
// through its kernel and again through the generic executor (kernels
// disabled), and requires the same return value, memory image, dirty
// mark, runtime counts, steps and core Stats. A step budget that runs
// out mid-loop, a missing runtime, an out-of-bounds load or store and
// a vector type the platform cannot run must each trap both paths at
// the same step with the same message and the same charges. Under an
// armed PMU sampler, the kernel with deferred edge delivery and the
// generic executor delivering at every edge must also record the same
// samples.
func TestKernelMatchesGenericExecutor(t *testing.T) {
	cases := kernelCases()
	progs := make([]*Program, len(cases))
	for i, kc := range cases {
		prog, err := Compile(kc.mod)
		if err != nil {
			t.Fatalf("%s: %v", kc.name, err)
		}
		progs[i] = prog
	}
	for _, plat := range []*platform.Platform{platform.X60(), platform.I5_1135G7()} {
		t.Run(plat.Name, func(t *testing.T) {
			for i, kc := range cases {
				t.Run(kc.name, func(t *testing.T) { checkKernelMatchesGeneric(t, kc, progs[i], plat) })
			}
		})
	}
	t.Run("out-of-bounds", checkOutOfBoundsTraps)
	t.Run("illegal-vector", checkIllegalVectorTrap)
}

func checkKernelMatchesGeneric(t *testing.T, kc kernelCase, prog *Program, plat *platform.Platform) {
	type outcome struct {
		ret     uint64
		err     error
		m       *Machine
		rt      *countRuntime
		stats   machine.Stats
		samples []kernel.SampleRecord
		lost    uint64
	}
	// run executes @loop through its kernel or the generic executor; a
	// non-zero period arms a sampler, and the generic run then delivers
	// at every block edge.
	run := func(useKernel bool, maxSteps uint64, withRuntime bool, period uint64) outcome {
		m := NewMachine(prog, plat)
		t.Cleanup(m.Release)
		rt := new(countRuntime)
		if withRuntime {
			m.SetRuntime(rt)
		}
		m.noKernels = !useKernel
		if !useKernel && period > 0 {
			m.Hart().Core.SetSink(everyEdgeSink{m.Hart().PMU})
		}
		m.MaxSteps = maxSteps
		kc.seed(t, m)
		var drain func() ([]kernel.SampleRecord, uint64)
		if period > 0 {
			drain = armSampler(t, m, period)
		}
		ret, err := m.Run("loop")
		o := outcome{ret: ret, err: err, m: m, rt: rt, stats: m.Hart().Core.Stats()}
		if drain != nil {
			o.samples, o.lost = drain()
		}
		if useKernel && err == nil && m.kernelIters != kc.trips {
			t.Errorf("kernel ran %d iterations, want %d", m.kernelIters, kc.trips)
		}
		if !useKernel && m.kernelHits != 0 {
			t.Errorf("generic run entered %d kernels", m.kernelHits)
		}
		return o
	}

	kern, gen := run(true, defaultMaxStep, true, 0), run(false, defaultMaxStep, true, 0)
	if kern.err != nil || gen.err != nil {
		t.Fatalf("kernel run: %v, generic run: %v", kern.err, gen.err)
	}
	if kern.ret != gen.ret {
		t.Errorf("kernel returned %#x, generic %#x", kern.ret, gen.ret)
	}
	if !bytes.Equal(kern.m.mem, gen.m.mem) {
		t.Error("kernel left a different memory image")
	}
	if kern.m.dirtyHigh != gen.m.dirtyHigh {
		t.Errorf("dirty high-water mark: kernel %#x, generic %#x", kern.m.dirtyHigh, gen.m.dirtyHigh)
	}
	if *kern.rt != *gen.rt || kc.count && kern.rt.calls != int64(kc.trips) {
		t.Errorf("mperf.count: kernel %+v, generic %+v", *kern.rt, *gen.rt)
	}
	if kern.stats != gen.stats {
		t.Errorf("Stats differ:\nkernel  %+v\ngeneric %+v", kern.stats, gen.stats)
	}
	if kern.m.Steps() != gen.m.Steps() {
		t.Errorf("steps: kernel %d, generic %d", kern.m.Steps(), gen.m.Steps())
	}

	// A step budget that runs out mid-loop traps at the same step with
	// the same charges.
	budget := gen.m.Steps() / 2
	kern, gen = run(true, budget, true, 0), run(false, budget, true, 0)
	if kern.err == nil || !strings.Contains(kern.err.Error(), "step budget") {
		t.Fatalf("kernel run under a step budget: %v", kern.err)
	}
	if kern.err.Error() != gen.err.Error() || kern.m.Steps() != gen.m.Steps() {
		t.Errorf("budget trap: kernel at step %d (%v), generic at %d (%v)",
			kern.m.Steps(), kern.err, gen.m.Steps(), gen.err)
	}
	if kern.stats != gen.stats {
		t.Errorf("budget trap Stats differ:\nkernel  %+v\ngeneric %+v", kern.stats, gen.stats)
	}

	// Without a runtime, mperf.count traps in the first iteration, after
	// the call uop is charged.
	if kc.count {
		kern, gen = run(true, defaultMaxStep, false, 0), run(false, defaultMaxStep, false, 0)
		if kern.err == nil || !strings.Contains(kern.err.Error(), "no runtime installed") {
			t.Fatalf("kernel run without a runtime: %v", kern.err)
		}
		if kern.err.Error() != gen.err.Error() || kern.stats != gen.stats {
			t.Errorf("runtime trap: kernel %v %+v\ngeneric %v %+v", kern.err, kern.stats, gen.err, gen.stats)
		}
	}

	// Under an armed sampler, whole and cut short by the step budget, at
	// a period below one iteration's cycles and at one spanning several.
	for _, period := range []uint64{7, 97} {
		for _, budget := range []uint64{defaultMaxStep, budget} {
			kern, gen = run(true, budget, true, period), run(false, budget, true, period)
			label := fmt.Sprintf("period %d, budget %d", period, budget)
			if fmt.Sprint(kern.err) != fmt.Sprint(gen.err) || kern.ret != gen.ret || kern.stats != gen.stats {
				t.Errorf("%s: kernel %v %#x %+v\ngeneric %v %#x %+v", label,
					kern.err, kern.ret, kern.stats, gen.err, gen.ret, gen.stats)
			}
			if kern.m.kernelHits == 0 && kern.m.kernelIters == 0 {
				t.Errorf("%s: the sampled run never entered the kernel", label)
			}
			if len(gen.samples) < 4 {
				t.Errorf("%s: only %d samples", label, len(gen.samples))
			}
			if !reflect.DeepEqual(kern.samples, gen.samples) || kern.lost != gen.lost {
				t.Errorf("%s: kernel recorded %d samples (%d lost), generic %d (%d lost)\nkernel  %+v\ngeneric %+v",
					label, len(kern.samples), kern.lost, len(gen.samples), gen.lost, kern.samples, gen.samples)
			}
		}
	}
}

// buildOOBModule returns i64 @walk(ptr p, ptr q, ptr r, ptr s, ptr t,
// ptr u, i64 n), a kernel-shaped loop that, for i < n, loads the i64 at
// p[i], the f32 at q[i] and the <8 x f32> at r[i], stores them to s[i],
// t[i] and u[i], and returns the sum of the i64s.
func buildOOBModule() *ir.Module {
	mod := ir.NewModule("t")
	f := mod.NewFunc("walk", ir.I64, ir.NewParam("p", ir.Ptr), ir.NewParam("q", ir.Ptr),
		ir.NewParam("r", ir.Ptr), ir.NewParam("s", ir.Ptr), ir.NewParam("t", ir.Ptr),
		ir.NewParam("u", ir.Ptr), ir.NewParam("n", ir.I64))
	b := ir.NewBuilder(f)
	entry := b.NewBlock("entry")
	loop := f.NewBlock("loop")
	exit := f.NewBlock("exit")
	b.Br(loop)
	b.SetBlock(loop)
	i := b.Phi(ir.I64)
	acc := b.Phi(ir.I64)
	x := b.Load(ir.I64, b.GEP(f.Params[0], i, 8))
	y := b.Load(ir.F32, b.GEP(f.Params[1], i, 4))
	v := b.Load(ir.VecOf(ir.F32, 8), b.GEP(f.Params[2], i, 32))
	b.Store(x, b.GEP(f.Params[3], i, 8))
	b.Store(y, b.GEP(f.Params[4], i, 4))
	b.Store(v, b.GEP(f.Params[5], i, 32))
	s := b.Add(acc, x)
	inext := b.Add(i, ir.ConstInt(ir.I64, 1))
	b.CondBr(b.ICmp(ir.PredLT, inext, f.Params[6]), loop, exit)
	ir.AddIncoming(i, ir.ConstInt(ir.I64, 0), entry)
	ir.AddIncoming(i, inext, loop)
	ir.AddIncoming(acc, ir.ConstInt(ir.I64, 0), entry)
	ir.AddIncoming(acc, s, loop)
	b.SetBlock(exit)
	b.Ret(s)
	return mod
}

// checkOutOfBoundsTraps walks each load and store of a kernel off the
// end of memory in turn — i64, f32 and an <8 x f32> whose lanes
// straddle the end — and past the top of the address space, where
// addr+size wraps to a small number. The kernel must trap with the
// generic executor's message at the same step, leaving the same memory
// image and dirty high-water mark, so a vector store writes exactly the
// lanes before the one that traps, and the same core statistics, so the
// trapping iteration's completed uops are charged.
func checkOutOfBoundsTraps(t *testing.T) {
	prog, err := Compile(buildOOBModule())
	if err != nil {
		t.Fatal(err)
	}
	if fp := prog.plans[prog.mod.FuncByName("walk")]; fp.blocks[1].kernel == nil {
		t.Fatal("the walk loop has no kernel")
	}
	const trips = 10
	cases := []struct {
		name  string
		param int                     // the pointer argument that runs off
		ptr   func(end uint64) uint64 // its value, given the memory size
		trap  string
	}{
		{"load-i64", 0, func(end uint64) uint64 { return end - 3*8 }, "load from invalid address"},
		{"load-f32", 1, func(end uint64) uint64 { return end - 3*4 }, "load from invalid address"},
		// Lane 6 of iteration 2 is the first outside.
		{"load-vector", 2, func(end uint64) uint64 { return end - 3*32 + 8 }, "load from invalid address"},
		{"store-i64", 3, func(end uint64) uint64 { return end - 3*8 }, "store to invalid address"},
		{"store-f32", 4, func(end uint64) uint64 { return end - 3*4 }, "store to invalid address"},
		{"store-vector", 5, func(end uint64) uint64 { return end - 3*32 + 8 }, "store to invalid address"},
		{"load-i64-wrap", 0, func(uint64) uint64 { return math.MaxUint64 - 7 }, "load from invalid address"},
		{"store-f32-wrap", 4, func(uint64) uint64 { return math.MaxUint64 - 3 }, "store to invalid address"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			compareWalkTraps(t, prog, platform.X60(), func(end uint64) []uint64 {
				args := walkArgs(trips)
				args[tc.param] = tc.ptr(end)
				return args
			}, tc.trap)
		})
	}
}

// walkArgs returns in-bounds arguments for buildOOBModule's @walk:
// loads from the bottom of memory, stores to three disjoint buffers
// above it.
func walkArgs(trips uint64) []uint64 {
	return []uint64{memBase, memBase, memBase,
		memBase + 0x1000, memBase + 0x2000, memBase + 0x3000, trips}
}

// compareWalkTraps runs @walk on plat through its loop kernel and
// through the generic executor, with the arguments args returns for
// the machine's memory size. Both must trap with the same message,
// which contains trap, at the same step, leaving the same memory
// image, dirty high-water mark and core statistics.
func compareWalkTraps(t *testing.T, prog *Program, plat *platform.Platform, args func(end uint64) []uint64, trap string) {
	t.Helper()
	run := func(kernel bool) (*Machine, error) {
		m := NewMachine(prog, plat)
		t.Cleanup(m.Release)
		m.noKernels = !kernel
		_, err := m.Run("walk", args(uint64(len(m.mem)))...)
		return m, err
	}
	km, kerr := run(true)
	gm, gerr := run(false)
	if kerr == nil || !strings.Contains(kerr.Error(), trap) {
		t.Fatalf("kernel run: %v, want %q", kerr, trap)
	}
	if gerr == nil || kerr.Error() != gerr.Error() || km.Steps() != gm.Steps() {
		t.Errorf("kernel trapped at step %d (%v), generic at %d (%v)",
			km.Steps(), kerr, gm.Steps(), gerr)
	}
	if !bytes.Equal(km.mem, gm.mem) {
		t.Error("kernel left a different memory image")
	}
	if km.dirtyHigh != gm.dirtyHigh {
		t.Errorf("dirty high-water mark: kernel %#x, generic %#x", km.dirtyHigh, gm.dirtyHigh)
	}
	if ks, gs := km.Hart().Core.Stats(), gm.Hart().Core.Stats(); ks != gs {
		t.Errorf("Stats differ:\nkernel  %+v\ngeneric %+v", ks, gs)
	}
}

// checkIllegalVectorTrap runs the walk loop, whose body loads and
// stores an <8 x f32>, on platforms that cannot execute it: the U74
// has no vector unit, and the C910's 16-byte VLEN is too narrow. The kernel
// checks vector types once per loop entry, so it must still run the
// ops before the first vector one and trap there with the same
// charges as the generic executor, which checks per step.
func checkIllegalVectorTrap(t *testing.T) {
	prog, err := Compile(buildOOBModule())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		plat *platform.Platform
		trap string
	}{
		{platform.U74(), "has no vector unit"},
		{platform.C910(), "exceeds VLEN of 16 bytes"},
	} {
		t.Run(tc.plat.Name, func(t *testing.T) {
			compareWalkTraps(t, prog, tc.plat, func(uint64) []uint64 { return walkArgs(10) }, tc.trap)
		})
	}
}
