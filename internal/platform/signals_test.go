package platform

import (
	"testing"

	"mperf/internal/isa"
	"mperf/internal/machine"
)

// signalSink watches every signal and records which ones the core ever
// delivers with a non-zero delta.
type signalSink struct {
	sampling bool
	seen     [isa.NumSignals]bool
}

func (s *signalSink) Apply(b *machine.DeltaBatch) {
	for i := 0; i < b.N; i++ {
		s.seen[b.Sig[i]] = true
	}
}

func (s *signalSink) WatchMask() uint64    { return ^uint64(0) }
func (s *signalSink) SamplingActive() bool { return s.sampling }

// Headroom reports none, so every block edge delivers.
func (s *signalSink) Headroom() (uint64, uint64) { return 0, 0 }

// deliveredSignals drives a core of the given configuration through
// every uop class — cache-missing loads and stores over a 4 MiB
// footprint, unpredictable branches and indirect jumps, dependent
// arithmetic — in U, S and M mode, and returns the signals its sink
// received.
func deliveredSignals(cfg machine.Config, sampling bool) [isa.NumSignals]bool {
	sink := &signalSink{sampling: sampling}
	core := machine.NewCore(cfg, sink)
	seed := uint64(42)
	next := func() uint64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return seed >> 33
	}
	privs := []isa.PrivMode{isa.PrivU, isa.PrivS, isa.PrivM}
	region := make([]machine.Uop, 0, int(machine.NumOpClasses))
	dyn := make([]machine.RegionDyn, 0, int(machine.NumOpClasses))
	for round := 0; round < 3000; round++ {
		core.SetPriv(privs[round%len(privs)])
		region, dyn = region[:0], dyn[:0]
		for cl := machine.OpClass(0); cl < machine.NumOpClasses; cl++ {
			u := machine.Uop{Class: cl, Dst: int32(next() % 32), Src1: int32(next() % 32),
				Src2: -1, Src3: -1, Size: 8, Lanes: 1, BrID: uint32(next()%8) + 1}
			if cl.IsVector() {
				u.Size, u.Lanes = 32, 8
			}
			if cl.IsFP() {
				u.Flops = uint32(u.Lanes)
			} else {
				u.IntOps = 1
			}
			region = append(region, u)
			dyn = append(dyn, machine.RegionDyn{
				Addr:   0x10000 + next()%(4<<20),
				Taken:  next()%2 == 0,
				Target: 0x8000 + (next()%8)*0x40,
			})
		}
		core.ExecRegion(region, dyn, 0)
		core.FlushEvents()
	}
	return sink.seen
}

// TestMappedSignalsAreDelivered guards against silently-zero counters:
// every signal a catalog platform maps through its generalized or raw
// event table must be one the core actually delivers, both while
// counting and while a sampler is armed. A signal without a Stats
// counter (fp_ops, vec_fp_ops, l1i_*) would read zero forever.
func TestMappedSignalsAreDelivered(t *testing.T) {
	for _, p := range Catalog() {
		for _, sampling := range []bool{false, true} {
			seen := deliveredSignals(p.Core, sampling)
			for code, sig := range p.PMUSpec.Events {
				if !seen[sig] {
					t.Errorf("%s (sampling=%v): event %v maps to %s, which the core never delivers",
						p.Name, sampling, code, sig)
				}
			}
			for code, sig := range p.PMUSpec.RawEvents {
				if !seen[sig] {
					t.Errorf("%s (sampling=%v): raw event %#x maps to %s, which the core never delivers",
						p.Name, sampling, code, sig)
				}
			}
		}
	}
}
