package kernel

import (
	"errors"
	"testing"

	"mperf/internal/isa"
	"mperf/internal/machine"
	"mperf/internal/pmu"
	"mperf/internal/sbi"
)

// fakeCPU is a minimal execution context for driving the kernel layer
// without the interpreter.
type fakeCPU struct {
	pc     uint64
	stack  []uint64
	cycles uint64
	freq   float64
	priv   isa.PrivMode
}

func (f *fakeCPU) PC() uint64 { return f.pc }
func (f *fakeCPU) Callchain(buf []uint64) int {
	n := copy(buf, f.stack)
	return n
}
func (f *fakeCPU) Priv() isa.PrivMode { return f.priv }
func (f *fakeCPU) Cycles() uint64     { return f.cycles }
func (f *fakeCPU) FreqHz() float64    { return f.freq }

func x60PMUSpec() pmu.Spec {
	return pmu.Spec{
		CounterWidthBits: 64,
		NumProgrammable:  8,
		Events: map[isa.EventCode]isa.Signal{
			isa.EventCycles:       isa.SigCycle,
			isa.EventInstructions: isa.SigInstret,
			isa.EventCacheMisses:  isa.SigL1DMiss,
		},
		RawEvents: map[uint32]isa.Signal{
			isa.X60EventUModeCycle: isa.SigUModeCycle,
			isa.X60EventSModeCycle: isa.SigSModeCycle,
		},
		Overflow: pmu.OverflowLimited,
		SamplingEvents: map[isa.EventCode]bool{
			isa.RawEvent(isa.X60EventUModeCycle): true,
			isa.RawEvent(isa.X60EventSModeCycle): true,
		},
	}
}

func fullPMUSpec() pmu.Spec {
	s := x60PMUSpec()
	s.Overflow = pmu.OverflowFull
	s.SamplingEvents = nil
	return s
}

// testRig bundles the layered stack for a test.
type testRig struct {
	cpu *fakeCPU
	fw  *sbi.Firmware
	k   *Subsystem
}

func newRig(spec pmu.Spec) *testRig {
	cpu := &fakeCPU{freq: 1e9, pc: 0x1000, stack: []uint64{0x1000, 0x2000, 0x3000}}
	fw := sbi.New(pmu.New(spec))
	return &testRig{cpu: cpu, fw: fw, k: New(fw, cpu)}
}

// run advances simulated execution: cycles and instret flow into the
// PMU; u-mode cycles mirror total cycles (the fake runs in U-mode).
func (r *testRig) run(cycles, instret uint64) {
	r.cpu.cycles += cycles
	b := &machine.DeltaBatch{}
	b.Add(isa.SigCycle, cycles)
	b.Add(isa.SigInstret, instret)
	b.Add(isa.SigUModeCycle, cycles)
	r.fw.PMU().Apply(b)
}

func TestCountingEventLifecycle(t *testing.T) {
	r := newRig(x60PMUSpec())
	fd, err := r.k.PerfEventOpen(EventAttr{Label: "cycles", Config: isa.EventCycles, Disabled: true}, -1)
	if err != nil {
		t.Fatal(err)
	}
	r.run(100, 80) // not yet enabled
	if err := r.k.Enable(fd); err != nil {
		t.Fatal(err)
	}
	r.run(100, 80)
	if err := r.k.Disable(fd); err != nil {
		t.Fatal(err)
	}
	r.run(100, 80) // disabled again
	v, err := r.k.ReadCount(fd)
	if err != nil {
		t.Fatal(err)
	}
	if v != 100 {
		t.Errorf("count = %d, want 100 (only the enabled window)", v)
	}
}

func TestOpenSamplingCyclesFailsOnX60(t *testing.T) {
	r := newRig(x60PMUSpec())
	_, err := r.k.PerfEventOpen(EventAttr{
		Label:        "cycles",
		Config:       isa.EventCycles,
		SamplePeriod: 10000,
		SampleType:   SampleIP,
	}, -1)
	if !errors.Is(err, ErrNotSupported) {
		t.Fatalf("sampling cycles on X60: err = %v, want ErrNotSupported", err)
	}
	// Same for instructions — the documented defect covers both.
	_, err = r.k.PerfEventOpen(EventAttr{
		Label:        "instructions",
		Config:       isa.EventInstructions,
		SamplePeriod: 10000,
		SampleType:   SampleIP,
	}, -1)
	if !errors.Is(err, ErrNotSupported) {
		t.Fatalf("sampling instructions on X60: err = %v, want ErrNotSupported", err)
	}
}

func TestOpenSamplingCyclesWorksOnFullPMU(t *testing.T) {
	r := newRig(fullPMUSpec())
	fd, err := r.k.PerfEventOpen(EventAttr{
		Label:        "cycles",
		Config:       isa.EventCycles,
		SamplePeriod: 100,
		SampleType:   SampleIP | SampleTime,
	}, -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.k.Enable(fd); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		r.run(100, 90)
	}
	rb, _ := r.k.Ring(fd)
	recs := rb.Drain()
	if len(recs) != 10 {
		t.Fatalf("got %d samples, want 10", len(recs))
	}
	if recs[0].IP != 0x1000 {
		t.Errorf("sample IP = %#x, want 0x1000", recs[0].IP)
	}
}

// TestX60GroupingWorkaround is the heart of the paper's first
// contribution: a sampling-capable vendor counter leads a group whose
// members are the defective cycles/instret counters; every leader
// overflow snapshots the whole group.
func TestX60GroupingWorkaround(t *testing.T) {
	r := newRig(x60PMUSpec())

	leaderFD, err := r.k.PerfEventOpen(EventAttr{
		Label:        "u_mode_cycle",
		Config:       isa.RawEvent(isa.X60EventUModeCycle),
		SamplePeriod: 1000,
		SampleType:   SampleIP | SampleCallchain | SampleRead | SampleTime,
		ReadFormat:   FormatGroup,
		Disabled:     true,
	}, -1)
	if err != nil {
		t.Fatalf("leader open failed: %v", err)
	}
	cycFD, err := r.k.PerfEventOpen(EventAttr{
		Label: "cycles", Config: isa.EventCycles, Disabled: true,
	}, leaderFD)
	if err != nil {
		t.Fatalf("cycles member open failed: %v", err)
	}
	insFD, err := r.k.PerfEventOpen(EventAttr{
		Label: "instructions", Config: isa.EventInstructions, Disabled: true,
	}, leaderFD)
	if err != nil {
		t.Fatalf("instret member open failed: %v", err)
	}

	if err := r.k.EnableGroup(leaderFD); err != nil {
		t.Fatalf("group enable failed: %v", err)
	}
	for i := 0; i < 50; i++ {
		r.run(100, 86) // IPC 0.86, as it happens
	}
	rb, _ := r.k.Ring(leaderFD)
	recs := rb.Drain()
	if len(recs) != 5 {
		t.Fatalf("got %d samples, want 5 (5000 u-cycles / period 1000)", len(recs))
	}
	last := recs[len(recs)-1]
	if len(last.Group) != 3 {
		t.Fatalf("group read has %d values, want 3", len(last.Group))
	}
	if last.Group[0].FD != leaderFD || last.Group[1].FD != cycFD || last.Group[2].FD != insFD {
		t.Error("group read not in leader-first open order")
	}
	cycles := last.Group[1].Value
	instret := last.Group[2].Value
	if cycles == 0 || instret == 0 {
		t.Fatal("member counters did not count")
	}
	ipc := float64(instret) / float64(cycles)
	if ipc < 0.85 || ipc > 0.87 {
		t.Errorf("derived IPC = %.3f, want 0.86", ipc)
	}
	if len(last.Callchain) != 3 {
		t.Errorf("callchain depth = %d, want 3", len(last.Callchain))
	}
}

func TestGroupMemberCannotLead(t *testing.T) {
	r := newRig(fullPMUSpec())
	leaderFD, _ := r.k.PerfEventOpen(EventAttr{Label: "cycles", Config: isa.EventCycles}, -1)
	memberFD, err := r.k.PerfEventOpen(EventAttr{Label: "instructions", Config: isa.EventInstructions}, leaderFD)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.k.PerfEventOpen(EventAttr{Label: "cache-misses", Config: isa.EventCacheMisses}, memberFD); !errors.Is(err, ErrBadGroup) {
		t.Errorf("grouping under a member: err = %v, want ErrBadGroup", err)
	}
	if err := r.k.EnableGroup(memberFD); !errors.Is(err, ErrBadGroup) {
		t.Errorf("EnableGroup on member: err = %v, want ErrBadGroup", err)
	}
}

func TestUnknownEventRejected(t *testing.T) {
	r := newRig(x60PMUSpec())
	_, err := r.k.PerfEventOpen(EventAttr{Label: "branches", Config: isa.EventBranchInstructions}, -1)
	if !errors.Is(err, ErrUnknownEvent) {
		t.Errorf("err = %v, want ErrUnknownEvent", err)
	}
}

func TestCounterExhaustion(t *testing.T) {
	r := newRig(x60PMUSpec())
	// 8 programmable + 2 fixed; cache-misses only fits programmable.
	var lastErr error
	opened := 0
	for i := 0; i < 10; i++ {
		_, err := r.k.PerfEventOpen(EventAttr{Label: "cm", Config: isa.EventCacheMisses}, -1)
		if err != nil {
			lastErr = err
			break
		}
		opened++
	}
	if opened != 8 {
		t.Errorf("opened %d cache-miss events, want 8", opened)
	}
	if !errors.Is(lastErr, ErrNoCounter) {
		t.Errorf("err = %v, want ErrNoCounter", lastErr)
	}
}

func TestCloseReleasesCounter(t *testing.T) {
	r := newRig(x60PMUSpec())
	var fds []int
	for i := 0; i < 8; i++ {
		fd, err := r.k.PerfEventOpen(EventAttr{Label: "cm", Config: isa.EventCacheMisses}, -1)
		if err != nil {
			t.Fatal(err)
		}
		fds = append(fds, fd)
	}
	if err := r.k.Close(fds[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := r.k.PerfEventOpen(EventAttr{Label: "cm", Config: isa.EventCacheMisses}, -1); err != nil {
		t.Errorf("open after close failed: %v", err)
	}
	if _, err := r.k.ReadCount(fds[0]); !errors.Is(err, ErrBadFD) {
		t.Errorf("read of closed fd: err = %v, want ErrBadFD", err)
	}
}

func TestReadGroupOrder(t *testing.T) {
	r := newRig(fullPMUSpec())
	leaderFD, _ := r.k.PerfEventOpen(EventAttr{Label: "cycles", Config: isa.EventCycles, Disabled: true}, -1)
	memFD, _ := r.k.PerfEventOpen(EventAttr{Label: "instructions", Config: isa.EventInstructions, Disabled: true}, leaderFD)
	r.k.EnableGroup(leaderFD)
	r.run(10, 7)
	vals, err := r.k.ReadGroup(memFD) // reading via a member resolves the leader's group
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 2 || vals[0].FD != leaderFD || vals[1].FD != memFD {
		t.Fatalf("group read order wrong: %+v", vals)
	}
	if vals[0].Value != 10 || vals[1].Value != 7 {
		t.Errorf("group values = %d,%d; want 10,7", vals[0].Value, vals[1].Value)
	}
}

func TestResetCount(t *testing.T) {
	r := newRig(fullPMUSpec())
	fd, _ := r.k.PerfEventOpen(EventAttr{Label: "cycles", Config: isa.EventCycles, Disabled: true}, -1)
	r.k.Enable(fd)
	r.run(100, 50)
	if err := r.k.ResetCount(fd); err != nil {
		t.Fatal(err)
	}
	r.run(30, 20)
	if v, _ := r.k.ReadCount(fd); v != 30 {
		t.Errorf("count after reset = %d, want 30", v)
	}
}

func TestFreqModeAdaptsPeriod(t *testing.T) {
	r := newRig(fullPMUSpec())
	// Ask for 1 kHz on a 1 GHz clock → the stable period is ~1e6 cycles.
	fd, err := r.k.PerfEventOpen(EventAttr{
		Label:      "cycles",
		Config:     isa.EventCycles,
		SampleFreq: 1000,
		SampleType: SampleIP,
	}, -1)
	if err != nil {
		t.Fatal(err)
	}
	r.k.Enable(fd)
	for i := 0; i < 5000; i++ {
		r.run(10_000, 8000)
	}
	rb, _ := r.k.Ring(fd)
	n := rb.Len()
	// 50e6 cycles at 1 GHz = 50 ms → ≈50 samples at 1 kHz.
	if n < 25 || n > 100 {
		t.Errorf("freq mode produced %d samples over 50ms, want ≈50", n)
	}
}

func TestBothPeriodAndFreqRejected(t *testing.T) {
	r := newRig(fullPMUSpec())
	_, err := r.k.PerfEventOpen(EventAttr{
		Label: "cycles", Config: isa.EventCycles,
		SamplePeriod: 100, SampleFreq: 100,
	}, -1)
	if err == nil {
		t.Error("attr with both period and freq accepted")
	}
}

func TestRingBufferOverflowCountsLost(t *testing.T) {
	rb := NewRingBuffer(4)
	for i := 0; i < 10; i++ {
		rb.Push(SampleRecord{IP: uint64(i)})
	}
	if rb.Lost != 6 {
		t.Errorf("lost = %d, want 6", rb.Lost)
	}
	recs := rb.Drain()
	if len(recs) != 4 {
		t.Fatalf("drained %d, want 4", len(recs))
	}
	if recs[0].IP != 0 || recs[3].IP != 3 {
		t.Error("ring kept the wrong records (must keep the earliest)")
	}
	if rb.Len() != 0 {
		t.Error("drain must empty the ring")
	}
}

func TestRingBufferDrainOrder(t *testing.T) {
	rb := NewRingBuffer(8)
	rb.Push(SampleRecord{IP: 1})
	rb.Push(SampleRecord{IP: 2})
	rb.Drain()
	rb.Push(SampleRecord{IP: 3})
	rb.Push(SampleRecord{IP: 4})
	recs := rb.Drain()
	if len(recs) != 2 || recs[0].IP != 3 || recs[1].IP != 4 {
		t.Errorf("drain order wrong: %+v", recs)
	}
}

// TestRingBufferGrowsOnDemand pins the on-demand ring: a new buffer
// holds no backing array, Lost counts exactly past the capacity, and
// records keep their order across drain-and-refill.
func TestRingBufferGrowsOnDemand(t *testing.T) {
	rb := NewRingBuffer(RingBufferSize)
	if rb.records != nil || rb.Cap() != RingBufferSize || rb.Len() != 0 {
		t.Fatalf("new ring holds %d records of backing array, cap %d; want none, cap %d",
			cap(rb.records), rb.Cap(), RingBufferSize)
	}
	if recs := rb.Drain(); len(recs) != 0 {
		t.Errorf("empty drain returned %d records", len(recs))
	}

	small := NewRingBuffer(5)
	for i := 0; i < 12; i++ {
		small.Push(SampleRecord{IP: uint64(i)})
	}
	if small.Lost != 7 || small.Len() != 5 {
		t.Errorf("after 12 pushes into 5: lost %d, len %d; want 7, 5", small.Lost, small.Len())
	}
	recs := small.Drain()
	for i, r := range recs {
		if r.IP != uint64(i) {
			t.Fatalf("record %d has IP %d, want %d (earliest kept, in order)", i, r.IP, i)
		}
	}
	if small.records != nil {
		t.Error("drain must hand the records over and reset the ring")
	}
	for i := 100; i < 103; i++ {
		small.Push(SampleRecord{IP: uint64(i)})
	}
	recs2 := small.Drain()
	if len(recs2) != 3 || recs2[0].IP != 100 || recs2[2].IP != 102 || small.Lost != 7 {
		t.Errorf("refill after drain: %+v, lost %d", recs2, small.Lost)
	}
	if recs[0].IP != 0 || recs[4].IP != 4 {
		t.Error("refill overwrote records already handed over")
	}
}

func TestBadFDErrors(t *testing.T) {
	r := newRig(fullPMUSpec())
	if err := r.k.Enable(99); !errors.Is(err, ErrBadFD) {
		t.Error("Enable on bad fd must fail")
	}
	if _, err := r.k.ReadCount(99); !errors.Is(err, ErrBadFD) {
		t.Error("ReadCount on bad fd must fail")
	}
	if _, err := r.k.Ring(99); !errors.Is(err, ErrBadFD) {
		t.Error("Ring on bad fd must fail")
	}
	if err := r.k.Close(99); !errors.Is(err, ErrBadFD) {
		t.Error("Close on bad fd must fail")
	}
}

func TestSamplePrivRecorded(t *testing.T) {
	r := newRig(fullPMUSpec())
	r.cpu.priv = isa.PrivS
	fd, _ := r.k.PerfEventOpen(EventAttr{
		Label: "cycles", Config: isa.EventCycles,
		SamplePeriod: 50, SampleType: SampleIP,
	}, -1)
	r.k.Enable(fd)
	r.run(100, 50)
	rb, _ := r.k.Ring(fd)
	recs := rb.Drain()
	if len(recs) == 0 || recs[0].Priv != isa.PrivS {
		t.Error("sample must record the privilege mode at overflow")
	}
}
