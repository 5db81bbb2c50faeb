package pmu_test

import (
	"fmt"
	"testing"

	"mperf/internal/isa"
	"mperf/internal/machine"
	"mperf/internal/platform"
	"mperf/internal/pmu"
)

// perUopSink hides the PMU's SamplingActive, so the core must assume a
// sampler is armed and deliver every non-time signal one uop at a time.
type perUopSink struct{ machine.EventSink }

// deferrableSignals lists every signal the core can deliver from its
// flush marks instead of per uop.
var deferrableSignals = []isa.Signal{
	isa.SigUModeCycle, isa.SigSModeCycle, isa.SigMModeCycle,
	isa.SigL1DAccess, isa.SigL1DMiss, isa.SigL2Access, isa.SigL2Miss,
	isa.SigBranch, isa.SigBranchMiss, isa.SigLoad, isa.SigStore,
	isa.SigIntOp, isa.SigFPFlop, isa.SigSpecFlop, isa.SigStall,
	isa.SigDRAMBytes, isa.SigL1DBytes, isa.SigL2Bytes,
}

// deferrableSpec maps raw vendor event i to deferrableSignals[i], one
// programmable counter each, with 48-bit counters so values wrap like
// the x86 reference's.
func deferrableSpec() pmu.Spec {
	raw := make(map[uint32]isa.Signal, len(deferrableSignals))
	for i, sig := range deferrableSignals {
		raw[uint32(i)] = sig
	}
	return pmu.Spec{
		CounterWidthBits: 48,
		NumProgrammable:  len(deferrableSignals),
		Events: map[isa.EventCode]isa.Signal{
			isa.EventCycles:       isa.SigCycle,
			isa.EventInstructions: isa.SigInstret,
		},
		RawEvents: raw,
		Overflow:  pmu.OverflowFull,
	}
}

// deferralStream is a deterministic mixed uop stream: memory traffic
// over a working set larger than L2, biased and random branches,
// indirect jumps, divides and scalar and vector FP work. Dynamic
// operands (addresses, branch outcomes, indirect targets) are in the
// parallel dyn slice, as the VM hands them to ExecRegion.
func deferralStream(n int) ([]machine.Uop, []machine.RegionDyn) {
	seed := uint64(0x5EED)
	next := func() uint64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return seed >> 33
	}
	us := make([]machine.Uop, n)
	dyn := make([]machine.RegionDyn, n)
	for i := range us {
		u, d := &us[i], &dyn[i]
		u.Dst, u.Src1, u.Src2, u.Src3 = -1, -1, -1, -1
		switch next() % 10 {
		case 0, 1:
			u.Class, u.IntOps = machine.OpIntALU, 1
			u.Dst, u.Src1 = int32(next()%64), int32(next()%64)
		case 2:
			u.Class, u.Size = machine.OpLoad, 8
			u.Dst = int32(next() % 64)
			d.Addr = 0x2000 + next()%(4<<20)
		case 3:
			u.Class, u.Size = machine.OpStore, 8
			u.Src1 = int32(next() % 64)
			d.Addr = 0x2000 + next()%(4<<20)
		case 4:
			u.Class, u.Size, u.Lanes = machine.OpVecLoad, 32, 8
			u.Dst = int32(next() % 64)
			d.Addr = 0x2000 + next()%(1<<16)
		case 5:
			u.Class, u.Flops, u.Lanes = machine.OpVecFMA, 16, 8
			u.Dst, u.Src1, u.Src2 = int32(next()%64), int32(next()%64), int32(next()%64)
		case 6:
			u.Class, u.Flops = machine.OpFMA, 2
			u.Dst, u.Src1 = int32(next()%64), int32(next()%64)
		case 7:
			u.Class = machine.OpBranch
			u.BrID = uint32(next()%16) + 1
			d.Taken = next()%3 == 0
		case 8:
			u.Class = machine.OpIndirect
			u.BrID = uint32(next()%8) + 1
			d.Target = 0xA000 + (next()%4)*0x40
		case 9:
			u.Class, u.IntOps = machine.OpIntDiv, 1
			u.Dst, u.Src1 = int32(next()%64), int32(next()%64)
		}
	}
	return us, dyn
}

// drive charges the stream in irregular chunks through ExecRegion
// (salt 0, so raw register ids are the slots), alternating one-uop
// regions with whole-chunk regions and flushing at every chunk edge
// like a block boundary. Every 97 chunks it switches privilege mode
// after a flush, the way a trap entry would, so every mode-cycle
// signal fires.
func drive(c *machine.Core, us []machine.Uop, dyn []machine.RegionDyn) {
	sizes := []int{1, 7, 2, 31, 3, 64, 5, 17, 11, 1, 128, 23}
	modes := []isa.PrivMode{isa.PrivU, isa.PrivS, isa.PrivM, isa.PrivU}
	for i, s := 0, 0; i < len(us); i, s = i+sizes[s%len(sizes)], s+1 {
		end := min(i+sizes[s%len(sizes)], len(us))
		if s%2 == 0 {
			for j := i; j < end; j++ {
				c.ExecRegion(us[j:j+1], dyn[j:j+1], 0)
			}
		} else {
			c.ExecRegion(us[i:end], dyn[i:end], 0)
		}
		c.FlushEvents()
		if s%97 == 96 {
			c.SetPriv(modes[(s/97)%len(modes)])
		}
	}
	c.FlushEvents()
}

// TestDeferredMatchesPerUop is the differential check of deferred
// counter delivery: a non-sampling PMU fed from the core's flush marks
// must end with exactly the counter values of the same PMU fed one
// batch per uop, for every deferrable signal, on both pipeline kinds
// (and the x86 fractional instret expansion), with timer ticks and
// privilege switches in the stream. Count counters start only after a
// time-only phase, so stale count marks would replay that phase.
func TestDeferredMatchesPerUop(t *testing.T) {
	us, dyn := deferralStream(60_000)
	half := len(us) / 2
	for _, plat := range []*platform.Platform{platform.X60(), platform.C910(), platform.I5_1135G7()} {
		t.Run(plat.Name, func(t *testing.T) {
			cfg := plat.Core
			cfg.TimerIntervalCycles = 5_000
			cfg.TimerHandlerCycles = 300

			type side struct {
				pmu  *pmu.PMU
				core *machine.Core
			}
			newSide := func(perUop bool) side {
				p := pmu.New(deferrableSpec())
				var sink machine.EventSink = p
				if perUop {
					sink = perUopSink{p}
				}
				return side{p, machine.NewCore(cfg, sink)}
			}
			start := func(s side, idx int, ev isa.EventCode) {
				if err := s.pmu.Configure(idx, ev); err != nil {
					t.Fatal(err)
				}
				if err := s.pmu.Start(idx, 0, true); err != nil {
					t.Fatal(err)
				}
			}
			deferred, ref := newSide(false), newSide(true)
			for _, s := range []side{deferred, ref} {
				// Phase 1: time signals only.
				start(s, pmu.CounterCycle, isa.EventCycles)
				start(s, pmu.CounterInstret, isa.EventInstructions)
				for i := 0; i < 3; i++ {
					start(s, pmu.FirstHPM+i, isa.RawEvent(uint32(i)))
				}
				drive(s.core, us[:half], dyn[:half])
				// Phase 2: every deferrable signal.
				for i := 3; i < len(deferrableSignals); i++ {
					start(s, pmu.FirstHPM+i, isa.RawEvent(uint32(i)))
				}
				s.core.RefreshSinkMask()
				drive(s.core, us[half:], dyn[half:])
			}
			if deferred.core.SamplingActive() || !ref.core.SamplingActive() {
				t.Fatal("the reference must deliver per uop and the deferred side must not")
			}
			if deferred.core.Stats() != ref.core.Stats() {
				t.Fatalf("core state diverges:\ndeferred: %+v\nper-uop:  %+v", deferred.core.Stats(), ref.core.Stats())
			}
			st := deferred.core.Stats()
			if st.TimerTicks == 0 || st.Mispredicts == 0 || st.L2Misses == 0 {
				t.Fatalf("stream too tame to exercise every signal: %+v", st)
			}
			for idx := 0; idx < deferred.pmu.NumCounters(); idx++ {
				if idx == 1 {
					continue // the time CSR slot
				}
				a, _ := deferred.pmu.Read(idx)
				b, _ := ref.pmu.Read(idx)
				name := "cycles"
				if idx == pmu.CounterInstret {
					name = "instructions"
				} else if idx >= pmu.FirstHPM {
					name = deferrableSignals[idx-pmu.FirstHPM].String()
				}
				if a != b {
					t.Errorf("%s: deferred %d, per-uop %d", name, a, b)
				}
				if a == 0 {
					t.Errorf("%s: counted nothing", name)
				}
			}
			if c, _ := deferred.pmu.Read(pmu.CounterCycle); c != st.Cycles {
				t.Errorf("cycles counter %d != core cycles %d", c, st.Cycles)
			}
			if n, _ := deferred.pmu.Read(pmu.CounterInstret); n != st.Instret {
				t.Errorf("instret counter %d != core instret %d", n, st.Instret)
			}
		})
	}
}

// TestDeferredDeliveryIsRegionGranular pins the mechanism itself: while
// counting without a sampler, a core charging a whole stream of memory
// and branch uops hands the sink a single batch at the flush.
func TestDeferredDeliveryIsRegionGranular(t *testing.T) {
	p := pmu.New(deferrableSpec())
	sink := &countingSink{PMU: p}
	c := machine.NewCore(platform.X60().Core, sink)
	for i := range deferrableSignals {
		if err := p.Configure(pmu.FirstHPM+i, isa.RawEvent(uint32(i))); err != nil {
			t.Fatal(err)
		}
		if err := p.Start(pmu.FirstHPM+i, 0, true); err != nil {
			t.Fatal(err)
		}
	}
	us, dyn := deferralStream(5_000)
	for i := range us {
		c.ExecRegion(us[i:i+1], dyn[i:i+1], 0)
	}
	if sink.applies != 0 {
		t.Fatalf("%d batches delivered before the flush, want 0", sink.applies)
	}
	c.FlushEvents()
	if sink.applies != 1 {
		t.Fatalf("%d batches delivered by one flush, want 1", sink.applies)
	}
	loads, _ := p.Read(pmu.FirstHPM + indexOf(isa.SigLoad))
	if want := c.Stats().Loads; loads != want {
		t.Errorf("loads counter %d, core charged %d", loads, want)
	}
}

// countingSink is the PMU with its Apply calls counted.
type countingSink struct {
	*pmu.PMU
	applies int
}

func (s *countingSink) Apply(b *machine.DeltaBatch) {
	s.applies++
	s.PMU.Apply(b)
}

func indexOf(sig isa.Signal) int {
	for i, s := range deferrableSignals {
		if s == sig {
			return i
		}
	}
	panic(fmt.Sprintf("signal %v is not deferrable", sig))
}

// everyEdgeSink hides the PMU's overflow headroom, so the core's
// FlushEdge delivers at every edge.
type everyEdgeSink struct{ *countingSink }

func (everyEdgeSink) Headroom() (uint64, uint64) { return 0, 0 }

// overflowRecord is what an overflow handler saw: the counter, the
// core's clock and every counter's value, as a group read would.
type overflowRecord struct {
	counter int
	cycles  uint64
	values  [pmu.FirstHPM + 3]uint64
}

// TestFlushEdgeMatchesEveryEdge is the core-level differential check of
// FlushEdge: with samplers armed on cycles, instret and all three
// mode-cycle signals, a core that delivers only when an overflow can
// fire must raise the same overflows, at the same clock, with the same
// counter values seen from the handler, as one delivering at every
// edge, across timer ticks, privilege switches between edges and a
// handler that re-arms with a new period the way freq-mode sampling
// does. It must also deliver fewer batches.
func TestFlushEdgeMatchesEveryEdge(t *testing.T) {
	us, dyn := deferralStream(60_000)
	sizes := []int{1, 7, 2, 31, 3, 64, 5, 17, 11, 1, 128, 23}
	modes := []isa.PrivMode{isa.PrivS, isa.PrivU, isa.PrivM, isa.PrivU}
	for _, plat := range []*platform.Platform{platform.X60(), platform.I5_1135G7()} {
		t.Run(plat.Name, func(t *testing.T) {
			cfg := plat.Core
			cfg.TimerIntervalCycles = 5_000
			cfg.TimerHandlerCycles = 300
			run := func(everyEdge bool) ([]overflowRecord, int) {
				p := pmu.New(deferrableSpec())
				sink := &countingSink{PMU: p}
				var es machine.EventSink = sink
				if everyEdge {
					es = everyEdgeSink{sink}
				}
				c := machine.NewCore(cfg, es)
				counters := []struct {
					idx    int
					ev     isa.EventCode
					period uint64
				}{
					{pmu.CounterCycle, isa.EventCycles, 5003},
					{pmu.CounterInstret, isa.EventInstructions, 4001},
					{pmu.FirstHPM, isa.RawEvent(0), 997},      // u_mode_cycle
					{pmu.FirstHPM + 1, isa.RawEvent(1), 211},  // s_mode_cycle
					{pmu.FirstHPM + 2, isa.RawEvent(2), 1499}, // m_mode_cycle
				}
				var log []overflowRecord
				p.SetOverflowHandler(func(idx int) {
					r := overflowRecord{counter: idx, cycles: c.Cycles()}
					for i := range r.values {
						r.values[i], _ = p.Read(i)
					}
					log = append(log, r)
					if len(log)%5 == 0 {
						if err := p.Disarm(idx); err != nil {
							t.Fatal(err)
						}
						if err := p.Arm(idx, 300+uint64(len(log)%7)*101); err != nil {
							t.Fatal(err)
						}
					}
				})
				for _, k := range counters {
					if err := p.Configure(k.idx, k.ev); err != nil {
						t.Fatal(err)
					}
					if err := p.Arm(k.idx, k.period); err != nil {
						t.Fatal(err)
					}
					if err := p.Start(k.idx, 0, true); err != nil {
						t.Fatal(err)
					}
				}
				c.RefreshSinkMask()
				for i, s := 0, 0; i < len(us); i, s = i+sizes[s%len(sizes)], s+1 {
					end := min(i+sizes[s%len(sizes)], len(us))
					c.ExecRegion(us[i:end], dyn[i:end], 0)
					c.FlushEdge()
					if s%37 == 36 {
						c.ExecRegion(us[i:i+1], dyn[i:i+1], 0)
						c.SetPriv(modes[(s/37)%len(modes)])
					}
				}
				c.FlushEvents()
				return log, sink.applies
			}
			got, gotApplies := run(false)
			want, wantApplies := run(true)
			if len(want) < 100 {
				t.Fatalf("only %d overflows", len(want))
			}
			for i := 0; i < len(got) && i < len(want); i++ {
				if got[i] != want[i] {
					t.Fatalf("overflow %d: %+v, every edge %+v", i, got[i], want[i])
				}
			}
			if len(got) != len(want) {
				t.Errorf("%d overflows, every edge %d", len(got), len(want))
			}
			if gotApplies >= wantApplies {
				t.Errorf("%d batches, every edge %d", gotApplies, wantApplies)
			}
			t.Logf("%d overflows; %d batches, %d at every edge", len(got), gotApplies, wantApplies)
		})
	}
}
