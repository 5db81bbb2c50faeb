package machine

import (
	"testing"
	"testing/quick"

	"mperf/internal/isa"
	"mperf/internal/mem"
)

func testMemConfig() mem.HierarchyConfig {
	return mem.HierarchyConfig{
		L1D:  mem.CacheConfig{Name: "L1D", SizeBytes: 32 << 10, LineSize: 64, Ways: 4, HitLatency: 3},
		L2:   mem.CacheConfig{Name: "L2", SizeBytes: 512 << 10, LineSize: 64, Ways: 8, HitLatency: 12},
		DRAM: mem.DRAMConfig{BytesPerCycle: 8, Latency: 100},
	}
}

func inOrderConfig() Config {
	cfg := Config{
		Name:               "test-inorder",
		Kind:               InOrder,
		FreqHz:             1e9,
		IssueWidth:         2,
		MispredictPenalty:  8,
		PredictorBits:      10,
		BTBBits:            9,
		StoreBufferEntries: 4,
		Mem:                testMemConfig(),
	}
	cfg.Latency[OpIntALU] = 1
	cfg.Latency[OpIntMul] = 3
	cfg.Latency[OpIntDiv] = 20
	cfg.Latency[OpFPAdd] = 4
	cfg.Latency[OpFMA] = 4
	cfg.Latency[OpLoad] = 0
	return cfg
}

func oooConfig() Config {
	cfg := inOrderConfig()
	cfg.Name = "test-ooo"
	cfg.Kind = OutOfOrder
	cfg.IssueWidth = 4
	cfg.MLP = 8
	cfg.MispredictPenalty = 15
	return cfg
}

func alu(dst, src int32) Uop {
	return Uop{Class: OpIntALU, Dst: dst, Src1: src, Src2: -1, Src3: -1, IntOps: 1}
}

// execOne charges one uop as a one-uop region with salt 0, so its
// scoreboard slots are the uop's registers masked into the scoreboard.
func execOne(c *Core, u Uop, d RegionDyn) {
	c.ExecRegion([]Uop{u}, []RegionDyn{d}, 0)
}

func TestConfigValidate(t *testing.T) {
	good := inOrderConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := good
	bad.IssueWidth = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero issue width accepted")
	}
	bad = oooConfig()
	bad.MLP = 0
	if err := bad.Validate(); err == nil {
		t.Error("OoO core without MLP accepted")
	}
	bad = good
	bad.Name = ""
	if err := bad.Validate(); err == nil {
		t.Error("nameless config accepted")
	}
}

func TestInOrderIndependentALUThroughput(t *testing.T) {
	c := NewCore(inOrderConfig(), nil)
	const n = 10_000
	for i := 0; i < n; i++ {
		// Independent ops: different dst/src each time.
		u := alu(int32(i%128), int32((i+1)%128))
		// Break the accidental dependency the modulo creates.
		u.Src1 = -1
		execOne(c, u, RegionDyn{})
	}
	ipc := c.Stats().IPC()
	if ipc < 1.8 || ipc > 2.05 {
		t.Errorf("independent ALU IPC = %.2f, want ≈ issue width 2", ipc)
	}
}

func TestInOrderDependencyChainSerializes(t *testing.T) {
	cfg := inOrderConfig()
	cfg.Latency[OpIntMul] = 5
	c := NewCore(cfg, nil)
	const n = 1000
	for i := 0; i < n; i++ {
		// mul r1 <- r1: a serial dependency chain at 5-cycle latency.
		execOne(c, Uop{Class: OpIntMul, Dst: 1, Src1: 1, Src2: -1, Src3: -1, IntOps: 1}, RegionDyn{})
	}
	cpi := float64(c.Cycles()) / float64(n)
	if cpi < 4.5 || cpi > 5.5 {
		t.Errorf("dependent mul chain CPI = %.2f, want ≈ latency 5", cpi)
	}
}

func TestInOrderLoadUseStall(t *testing.T) {
	c := NewCore(inOrderConfig(), nil)
	// Warm one line, then ping-pong load→use on the same register.
	execOne(c, Uop{Class: OpLoad, Dst: 1, Src1: -1, Src2: -1, Src3: -1, Size: 8}, RegionDyn{Addr: 0x1000})
	start := c.Cycles()
	const n = 1000
	for i := 0; i < n; i++ {
		execOne(c, Uop{Class: OpLoad, Dst: 1, Src1: -1, Src2: -1, Src3: -1, Size: 8}, RegionDyn{Addr: 0x1000})
		execOne(c, alu(2, 1), RegionDyn{}) // uses the load result
	}
	cpi := float64(c.Cycles()-start) / float64(2*n)
	// Each pair costs at least the L1 hit latency (3) → CPI ≥ 1.5.
	if cpi < 1.4 {
		t.Errorf("load-use CPI = %.2f, expected stalls to push it above 1.4", cpi)
	}
	if c.Stats().StallCycles == 0 {
		t.Error("expected recorded stall cycles")
	}
}

func TestOutOfOrderHidesLatency(t *testing.T) {
	c := NewCore(oooConfig(), nil)
	const n = 10_000
	for i := 0; i < n; i++ {
		// The same serial chain that cripples the in-order core.
		execOne(c, Uop{Class: OpIntMul, Dst: 1, Src1: 1, Src2: -1, Src3: -1, IntOps: 1}, RegionDyn{})
	}
	ipc := c.Stats().IPC()
	if ipc < 3.5 {
		t.Errorf("OoO IPC on mul chain = %.2f, want ≈ issue width 4", ipc)
	}
}

func TestMispredictPenaltyCharged(t *testing.T) {
	cfg := inOrderConfig()
	c := NewCore(cfg, nil)
	// Pseudo-random outcomes defeat any history predictor: expect a
	// mispredict rate in the vicinity of 50%.
	const n = 2000
	rng := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < n; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		execOne(c, Uop{Class: OpBranch, Dst: -1, Src1: -1, Src2: -1, Src3: -1, BrID: 7}, RegionDyn{Taken: rng>>63 == 1})
	}
	st := c.Stats()
	if st.Mispredicts < n/4 {
		t.Errorf("mispredicts = %d, want at least %d on random pattern",
			st.Mispredicts, n/4)
	}
	if st.Cycles < st.Mispredicts*cfg.MispredictPenalty {
		t.Errorf("cycles %d do not cover mispredict penalties (%d × %d)",
			st.Cycles, st.Mispredicts, cfg.MispredictPenalty)
	}
}

func TestBiasedBranchPredictsWell(t *testing.T) {
	c := NewCore(inOrderConfig(), nil)
	const n = 10_000
	for i := 0; i < n; i++ {
		execOne(c, Uop{Class: OpBranch, Dst: -1, Src1: -1, Src2: -1, Src3: -1, BrID: 3}, RegionDyn{Taken: true})
	}
	st := c.Stats()
	if rate := float64(st.Mispredicts) / float64(st.Branches); rate > 0.01 {
		t.Errorf("always-taken branch mispredict rate = %.3f, want ≈ 0", rate)
	}
}

func TestIndirectPredictorStableTarget(t *testing.T) {
	c := NewCore(oooConfig(), nil)
	const n = 5000
	for i := 0; i < n; i++ {
		execOne(c, Uop{Class: OpIndirect, Dst: -1, Src1: -1, Src2: -1, Src3: -1, BrID: 11}, RegionDyn{Target: 0xAB00})
	}
	st := c.Stats()
	if rate := float64(st.Mispredicts) / float64(st.Branches); rate > 0.05 {
		t.Errorf("stable indirect target mispredict rate = %.3f, want ≈ 0", rate)
	}
}

func TestStreamingStoresAreBandwidthBound(t *testing.T) {
	cfg := inOrderConfig()
	c := NewCore(cfg, nil)
	// Stream 8-byte stores over a huge region: every line misses, DRAM
	// must fill and eventually write back. Stored bytes per cycle must
	// not exceed the channel's capability.
	const n = 200_000
	for i := 0; i < n; i++ {
		execOne(c, Uop{Class: OpStore, Dst: -1, Src1: -1, Src2: -1, Src3: -1, Size: 8}, RegionDyn{Addr: uint64(i * 8)})
	}
	storedBytesPerCycle := float64(n*8) / float64(c.Cycles())
	if storedBytesPerCycle > cfg.Mem.DRAM.BytesPerCycle {
		t.Errorf("stored %.2f B/cycle exceeds channel %.2f B/cycle",
			storedBytesPerCycle, cfg.Mem.DRAM.BytesPerCycle)
	}
	if storedBytesPerCycle < 1 {
		t.Errorf("stored %.2f B/cycle suspiciously low for an 8 B/cycle channel",
			storedBytesPerCycle)
	}
}

func TestInstructionExpansion(t *testing.T) {
	cfg := inOrderConfig()
	cfg.InstrExpansion[OpIntALU] = 512 // 2.0 instructions per ALU uop
	c := NewCore(cfg, nil)
	for i := 0; i < 1000; i++ {
		u := alu(1, -1)
		execOne(c, u, RegionDyn{})
	}
	if got := c.Instret(); got != 2000 {
		t.Errorf("instret = %d, want 2000 with 2.0 expansion", got)
	}
}

func TestTimerTickAccountsSModeCycles(t *testing.T) {
	cfg := inOrderConfig()
	cfg.TimerIntervalCycles = 1000
	cfg.TimerHandlerCycles = 50
	var sink recordingSink
	c := NewCore(cfg, &sink)
	for i := 0; i < 10_000; i++ {
		u := alu(1, -1)
		execOne(c, u, RegionDyn{})
	}
	if c.Stats().TimerTicks == 0 {
		t.Fatal("expected timer ticks")
	}
	if sink.totals[isa.SigSModeCycle] == 0 {
		t.Error("timer ticks must produce s_mode_cycle signal")
	}
	want := c.Stats().TimerTicks * cfg.TimerHandlerCycles
	if got := sink.totals[isa.SigSModeCycle]; got != want {
		t.Errorf("s_mode cycles = %d, want %d", got, want)
	}
}

// recordingSink accumulates every delta per signal.
type recordingSink struct {
	totals [isa.NumSignals]uint64
}

func (r *recordingSink) Apply(b *DeltaBatch) {
	for i := 0; i < b.N; i++ {
		r.totals[b.Sig[i]] += b.Val[i]
	}
}

// WatchMask reports every signal watched: the recording sink observes
// every batch in full.
func (r *recordingSink) WatchMask() uint64 { return ^uint64(0) }

// timeOnlySink watches only the cycle/instret/mode-cycle signals (the
// X60 sampling-workaround set), which routes uops through the batched
// block-boundary delivery path.
type timeOnlySink struct{ recordingSink }

func (t *timeOnlySink) WatchMask() uint64 {
	return 1<<uint(isa.SigCycle) | 1<<uint(isa.SigInstret) |
		1<<uint(isa.SigUModeCycle) | 1<<uint(isa.SigSModeCycle) | 1<<uint(isa.SigMModeCycle)
}

// TestBatchedTimeDeltasSumExactly pins the batched delivery path: with
// a time-only watcher, deltas accumulate across uops and flush at
// block boundaries, and their totals must equal the core's own
// counters exactly — including the S-mode attribution of timer ticks.
func TestBatchedTimeDeltasSumExactly(t *testing.T) {
	cfg := inOrderConfig()
	cfg.TimerIntervalCycles = 1000
	cfg.TimerHandlerCycles = 50
	var sink timeOnlySink
	c := NewCore(cfg, &sink)
	for i := 0; i < 10_000; i++ {
		execOne(c, alu(int32(i%64), -1), RegionDyn{})
		if i%7 == 0 { // irregular "block boundaries"
			c.FlushEvents()
		}
	}
	c.FlushEvents()
	if got := sink.totals[isa.SigCycle]; got != c.Cycles() {
		t.Errorf("batched cycle total %d != core cycles %d", got, c.Cycles())
	}
	if got := sink.totals[isa.SigInstret]; got != c.Instret() {
		t.Errorf("batched instret total %d != core instret %d", got, c.Instret())
	}
	if c.Stats().TimerTicks == 0 {
		t.Fatal("expected timer ticks")
	}
	wantS := c.Stats().TimerTicks * cfg.TimerHandlerCycles
	if got := sink.totals[isa.SigSModeCycle]; got != wantS {
		t.Errorf("batched s_mode total %d != timer handler cycles %d", got, wantS)
	}
	if got := sink.totals[isa.SigUModeCycle] + sink.totals[isa.SigSModeCycle]; got != c.Cycles() {
		t.Errorf("mode cycles %d do not cover total cycles %d", got, c.Cycles())
	}
}

// TestQuietPathMatchesObserved pins the charge rule against the
// reference stepper: a core with no sink, charging through ExecRegion
// one uop at a time, must
// charge exactly the same cycles, instructions and statistics as the
// reference rule observed by a full-mask sink, for an identical uop
// stream mixing ALU, memory, divide and branch work across both
// pipeline kinds.
func TestQuietPathMatchesObserved(t *testing.T) {
	stream := func(c *Core, exec func(*Core, Uop, RegionDyn)) {
		seed := uint64(12345)
		next := func() uint64 {
			seed = seed*6364136223846793005 + 1442695040888963407
			return seed >> 33
		}
		for i := 0; i < 50_000; i++ {
			var u Uop
			var d RegionDyn
			u.Src1, u.Src2, u.Src3, u.Dst = -1, -1, -1, -1
			switch next() % 8 {
			case 0, 1, 2:
				u.Class = OpIntALU
				u.Dst = int32(next() % 64)
				u.Src1 = int32(next() % 64)
				u.IntOps = 1
			case 3:
				u.Class = OpLoad
				u.Dst = int32(next() % 64)
				d.Addr = 0x2000 + (next() % (1 << 20))
				u.Size = 8
			case 4:
				u.Class = OpStore
				u.Src1 = int32(next() % 64)
				d.Addr = 0x2000 + (next() % (1 << 20))
				u.Size = 8
			case 5:
				u.Class = OpFMA
				u.Dst = int32(next() % 64)
				u.Src1 = int32(next() % 64)
				u.Flops = 2
			case 6:
				u.Class = OpBranch
				u.BrID = uint32(next()%16) + 1
				d.Taken = next()%3 == 0
			case 7:
				u.Class = OpIntDiv
				u.Dst = int32(next() % 64)
				u.Src1 = int32(next() % 64)
				u.IntOps = 1
			}
			exec(c, u, d)
		}
	}
	for _, cfg := range []Config{inOrderConfig(), oooConfig()} {
		cfg.TimerIntervalCycles = 10_000
		cfg.TimerHandlerCycles = 100
		quiet := NewCore(cfg, nil)
		var sink recordingSink
		observed := NewCore(cfg, &sink)
		stream(quiet, execOne)
		stream(observed, (*Core).refExec)
		if quiet.Cycles() != observed.Cycles() {
			t.Errorf("%s: quiet cycles %d != observed %d", cfg.Name, quiet.Cycles(), observed.Cycles())
		}
		if quiet.Instret() != observed.Instret() {
			t.Errorf("%s: quiet instret %d != observed %d", cfg.Name, quiet.Instret(), observed.Instret())
		}
		if quiet.Stats() != observed.Stats() {
			t.Errorf("%s: stats diverge:\nquiet:    %+v\nobserved: %+v", cfg.Name, quiet.Stats(), observed.Stats())
		}
	}
}

func TestSinkCycleDeltasSumToCycles(t *testing.T) {
	var sink recordingSink
	c := NewCore(inOrderConfig(), &sink)
	for i := 0; i < 5000; i++ {
		switch i % 4 {
		case 0:
			execOne(c, alu(int32(i%64), -1), RegionDyn{})
		case 1:
			execOne(c, Uop{Class: OpLoad, Dst: 1, Src1: -1, Src2: -1, Src3: -1, Size: 8}, RegionDyn{Addr: uint64(i * 64)})
		case 2:
			execOne(c, Uop{Class: OpBranch, Dst: -1, Src1: -1, Src2: -1, Src3: -1, BrID: uint32(i % 7)}, RegionDyn{Taken: i%3 == 0})
		case 3:
			execOne(c, Uop{Class: OpFMA, Dst: 2, Src1: 1, Src2: 2, Src3: -1, Flops: 2}, RegionDyn{})
		}
	}
	if got := sink.totals[isa.SigCycle]; got != c.Cycles() {
		t.Errorf("sink saw %d cycles, core reports %d", got, c.Cycles())
	}
	if got := sink.totals[isa.SigInstret]; got != c.Instret() {
		t.Errorf("sink saw %d instret, core reports %d", got, c.Instret())
	}
	if sink.totals[isa.SigFPFlop] == 0 {
		t.Error("expected FLOP signals from FMA uops")
	}
}

func TestUModeVsSModeCycleSplit(t *testing.T) {
	var sink recordingSink
	cfg := inOrderConfig()
	c := NewCore(cfg, &sink)
	execOne(c, alu(1, -1), RegionDyn{})
	c.SetPriv(isa.PrivS)
	for i := 0; i < 100; i++ {
		execOne(c, alu(1, -1), RegionDyn{})
	}
	c.SetPriv(isa.PrivU)
	if sink.totals[isa.SigSModeCycle] == 0 {
		t.Error("S-mode execution must produce s_mode_cycle")
	}
	total := sink.totals[isa.SigUModeCycle] + sink.totals[isa.SigSModeCycle] +
		sink.totals[isa.SigMModeCycle]
	if total != sink.totals[isa.SigCycle] {
		t.Errorf("mode cycles %d do not sum to total cycles %d",
			total, sink.totals[isa.SigCycle])
	}
}

func TestSpecFlopsOvercountOnMisses(t *testing.T) {
	c := NewCore(oooConfig(), nil)
	// Strided loads that miss, each followed by FP work: the spec-flop
	// counter must exceed the true flop count (miss-replay overcount).
	for i := 0; i < 10_000; i++ {
		execOne(c, Uop{Class: OpVecLoad, Dst: 1, Src1: -1, Src2: -1, Src3: -1, Size: 32, Lanes: 8}, RegionDyn{Addr: uint64(i * 256)})
		execOne(c, Uop{Class: OpVecFMA, Dst: 2, Src1: 1, Src2: 2, Src3: -1, Flops: 16, Lanes: 8}, RegionDyn{})
	}
	st := c.Stats()
	if st.SpecFlops <= st.Flops {
		t.Errorf("spec flops %d must exceed true flops %d on miss-heavy code",
			st.SpecFlops, st.Flops)
	}
	if ratio := float64(st.SpecFlops) / float64(st.Flops); ratio > 2.1 {
		t.Errorf("overcount ratio %.2f implausibly high", ratio)
	}
}

func TestSpecFlopsNoOvercountWhenResident(t *testing.T) {
	c := NewCore(oooConfig(), nil)
	// Warm a single line, then hammer it: no misses, no overcount.
	for i := 0; i < 1000; i++ {
		execOne(c, Uop{Class: OpLoad, Dst: 1, Src1: -1, Src2: -1, Src3: -1, Size: 8}, RegionDyn{Addr: 0x40})
		execOne(c, Uop{Class: OpFMA, Dst: 2, Src1: 1, Src2: 2, Src3: -1, Flops: 2}, RegionDyn{})
	}
	st := c.Stats()
	overcount := float64(st.SpecFlops)/float64(st.Flops) - 1
	if overcount > 0.05 {
		t.Errorf("cache-resident overcount = %.3f, want ≈ 0", overcount)
	}
}

func TestResetRestoresCore(t *testing.T) {
	c := NewCore(inOrderConfig(), nil)
	for i := 0; i < 100; i++ {
		execOne(c, Uop{Class: OpLoad, Dst: 1, Src1: -1, Src2: -1, Src3: -1, Size: 8}, RegionDyn{Addr: uint64(i * 64)})
	}
	c.Reset()
	if c.Cycles() != 0 || c.Instret() != 0 {
		t.Error("reset must zero counters")
	}
	st := c.Stats()
	if st.Loads != 0 || st.L1DMisses != 0 {
		t.Error("reset must zero statistics")
	}
}

func TestCyclesMonotoneProperty(t *testing.T) {
	c := NewCore(inOrderConfig(), nil)
	classes := []OpClass{OpIntALU, OpIntMul, OpLoad, OpStore, OpBranch, OpFMA, OpIntDiv}
	if err := quick.Check(func(sel uint8, dst, src int8, addr uint32, taken bool) bool {
		before := c.Cycles()
		cl := classes[int(sel)%len(classes)]
		u := Uop{Class: cl, Dst: int32(dst), Src1: int32(src), Src2: -1, Src3: -1,
			Size: 8, BrID: uint32(sel)}
		execOne(c, u, RegionDyn{Addr: uint64(addr), Taken: taken})
		return c.Cycles() >= before
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestSecondsConversion(t *testing.T) {
	cfg := inOrderConfig()
	cfg.FreqHz = 2e9
	c := NewCore(cfg, nil)
	for i := 0; i < 1000; i++ {
		execOne(c, alu(1, -1), RegionDyn{})
	}
	want := float64(c.Cycles()) / 2e9
	if got := c.Seconds(); got != want {
		t.Errorf("Seconds() = %g, want %g", got, want)
	}
}

func TestOpClassPredicates(t *testing.T) {
	if !OpLoad.IsMem() || !OpVecStore.IsMem() || OpIntALU.IsMem() {
		t.Error("IsMem misclassifies")
	}
	if !OpVecFMA.IsVector() || OpFMA.IsVector() {
		t.Error("IsVector misclassifies")
	}
	if !OpFMA.IsFP() || !OpVecALU.IsFP() || OpIntALU.IsFP() {
		t.Error("IsFP misclassifies")
	}
	if !OpBranch.IsBranch() || !OpIndirect.IsBranch() || OpJump.IsBranch() {
		t.Error("IsBranch misclassifies")
	}
}

func TestDeltaBatchSkipsZeroAndOverflow(t *testing.T) {
	var b DeltaBatch
	b.Add(isa.SigCycle, 0)
	if b.N != 0 {
		t.Error("zero delta must be skipped")
	}
	for i := 0; i < 32; i++ {
		b.Add(isa.SigCycle, 1)
	}
	if b.N != len(b.Sig) {
		t.Errorf("batch overflowed to %d entries", b.N)
	}
}
