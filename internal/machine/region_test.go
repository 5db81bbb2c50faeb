package machine

import (
	"fmt"
	"testing"

	"mperf/internal/isa"
)

// regionStream generates a deterministic mixed uop stream in template
// form: raw planner register ids in the uops, dynamic operands
// (addresses, branch outcomes, indirect targets) in a parallel dyn
// slice — the exact shape the VM hands to ExecRegion.
func regionStream(n int) ([]Uop, []RegionDyn) {
	tmpl := make([]Uop, n)
	dyn := make([]RegionDyn, n)
	seed := uint64(0xBADC0FFEE)
	next := func() uint64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return seed >> 33
	}
	for i := range tmpl {
		u := &tmpl[i]
		u.Dst, u.Src1, u.Src2, u.Src3 = -1, -1, -1, -1
		switch next() % 10 {
		case 0, 1, 2:
			u.Class = OpIntALU
			u.Dst = int32(next() % 64)
			u.Src1 = int32(next() % 64)
			u.IntOps = 1
		case 3:
			u.Class = OpLoad
			u.Dst = int32(next() % 64)
			u.Size = 8
			dyn[i].Addr = 0x2000 + next()%(1<<20)
		case 4:
			u.Class = OpStore
			u.Src1 = int32(next() % 64)
			u.Size = 8
			dyn[i].Addr = 0x2000 + next()%(1<<20)
		case 5:
			u.Class = OpVecLoad
			u.Dst = int32(next() % 64)
			u.Size = 32
			u.Lanes = 8
			dyn[i].Addr = 0x2000 + next()%(1<<20)
		case 6:
			u.Class = OpFMA
			u.Dst = int32(next() % 64)
			u.Src1 = int32(next() % 64)
			u.Src2 = int32(next() % 64)
			u.Flops = 2
		case 7:
			u.Class = OpBranch
			u.BrID = uint32(next()%16) + 1
			dyn[i].Taken = next()%3 == 0
		case 8:
			u.Class = OpIndirect
			u.BrID = uint32(next()%8) + 1
			dyn[i].Target = 0xA000 + (next()%4)*0x40
		case 9:
			u.Class = OpIntDiv
			u.Dst = int32(next() % 64)
			u.Src1 = int32(next() % 64)
			u.IntOps = 1
		}
	}
	return tmpl, dyn
}

// regionSizes slices a stream into irregular regions.
var regionSizes = []int{1, 7, 2, 31, 3, 64, 5, 17, 11, 1, 128, 23}

// forEachRegion calls f with the bounds of each irregular region of a
// stream of n uops.
func forEachRegion(n int, f func(i, end int)) {
	for i, s := 0, 0; i < n; i, s = i+regionSizes[s%len(regionSizes)], s+1 {
		end := i + regionSizes[s%len(regionSizes)]
		if end > n {
			end = n
		}
		f(i, end)
	}
}

// saltedUop materializes uop i of a template stream the way the
// reference stepper consumes it: registers salted into scoreboard
// slots. Its dynamic operands stay in dyn[i].
func saltedUop(tmpl []Uop, dyn []RegionDyn, i int, salt uint32) Uop {
	slot := func(r int32) int32 {
		if r < 0 {
			return -1
		}
		return int32((uint32(r) + salt) & (scoreboardSize - 1))
	}
	u := tmpl[i]
	u.Dst, u.Src1, u.Src2, u.Src3 = slot(u.Dst), slot(u.Src1), slot(u.Src2), slot(u.Src3)
	return u
}

// TestRegionMatchesExec pins the core's one charge rule to the
// reference stepper: charging a uop stream through ExecRegion — in
// irregular region-sized slices — must leave the core in exactly the
// state that one reference step per uop produces, for both pipeline
// kinds and for every sink shape (quiet, time-only watcher, full-mask
// watcher), including every event total the sink observed.
func TestRegionMatchesExec(t *testing.T) {
	const salt = uint32(7 * 251)
	tmpl, dyn := regionStream(50_000)

	sinks := map[string]func() EventSink{
		"quiet":    func() EventSink { return nil },
		"timeonly": func() EventSink { return &timeOnlySink{} },
		"fullmask": func() EventSink { return &recordingSink{} },
	}
	totals := func(s EventSink) *[isa.NumSignals]uint64 {
		switch r := s.(type) {
		case *timeOnlySink:
			return &r.totals
		case *recordingSink:
			return &r.totals
		}
		return nil
	}

	for _, cfg := range []Config{inOrderConfig(), oooConfig()} {
		cfg.TimerIntervalCycles = 10_000
		cfg.TimerHandlerCycles = 100
		for name, mkSink := range sinks {
			t.Run(fmt.Sprintf("%s/%s", cfg.Name, name), func(t *testing.T) {
				sinkA, sinkB := mkSink(), mkSink()
				perUop := NewCore(cfg, sinkA)
				region := NewCore(cfg, sinkB)

				for i := range tmpl {
					perUop.refExec(saltedUop(tmpl, dyn, i, salt), dyn[i])
				}
				perUop.FlushEvents()

				forEachRegion(len(tmpl), func(i, end int) {
					region.ExecRegion(tmpl[i:end], dyn[i:end], salt)
				})
				region.FlushEvents()

				if perUop.Cycles() != region.Cycles() {
					t.Errorf("cycles diverge: per-uop %d, region %d", perUop.Cycles(), region.Cycles())
				}
				if perUop.Instret() != region.Instret() {
					t.Errorf("instret diverges: per-uop %d, region %d", perUop.Instret(), region.Instret())
				}
				if perUop.Stats() != region.Stats() {
					t.Errorf("stats diverge:\nper-uop: %+v\nregion:  %+v", perUop.Stats(), region.Stats())
				}
				ta, tb := totals(sinkA), totals(sinkB)
				if ta != nil && *ta != *tb {
					t.Errorf("sink totals diverge:\nper-uop: %v\nregion:  %v", *ta, *tb)
				}
			})
		}
	}
}

// batchLogSink records every delivered batch in order, watching every
// time and count signal with a sampler reported armed, so the core must
// flush after every uop.
type batchLogSink struct {
	log     []uint64 // signal<<56 | value per entry; 0 ends a batch
	batches int
}

func (s *batchLogSink) Apply(b *DeltaBatch) {
	for i := 0; i < b.N; i++ {
		s.log = append(s.log, uint64(b.Sig[i])<<56|b.Val[i])
	}
	s.log = append(s.log, 0)
	s.batches++
}

func (s *batchLogSink) WatchMask() uint64    { return timeSigMask | countSigMask }
func (s *batchLogSink) SamplingActive() bool { return true }

// Headroom reports none, so every block edge delivers.
func (s *batchLogSink) Headroom() (uint64, uint64) { return 0, 0 }

// TestPerUopBatchesMatchReference pins the delivery a sampler on an
// event counter relies on: with a sampler armed and every time and
// count signal watched, ExecRegion plus its per-uop FlushEvents must
// hand the sink exactly the batch sequence the reference stepper
// builds from each uop's own deltas — same batches, same signals in
// the same order, same values — on both pipeline kinds, across timer
// ticks and U/S/M privilege switches between regions.
func TestPerUopBatchesMatchReference(t *testing.T) {
	const salt = uint32(3 * 251)
	tmpl, dyn := regionStream(50_000)
	privs := []isa.PrivMode{isa.PrivU, isa.PrivS, isa.PrivU, isa.PrivM}
	for _, cfg := range []Config{inOrderConfig(), oooConfig()} {
		cfg.TimerIntervalCycles = 5_000
		cfg.TimerHandlerCycles = 100
		t.Run(cfg.Name, func(t *testing.T) {
			var refSink, sink batchLogSink
			ref := NewCore(cfg, &refSink)
			core := NewCore(cfg, &sink)
			n := 0
			forEachRegion(len(tmpl), func(i, end int) {
				p := privs[n%len(privs)]
				n++
				ref.SetPriv(p)
				core.SetPriv(p)
				for j := i; j < end; j++ {
					ref.refExec(saltedUop(tmpl, dyn, j, salt), dyn[j])
				}
				ref.FlushEvents()
				core.ExecRegion(tmpl[i:end], dyn[i:end], salt)
				core.FlushEvents()
			})
			if ref.Stats().TimerTicks == 0 {
				t.Fatal("stream produced no timer ticks")
			}
			if ref.Stats() != core.Stats() {
				t.Errorf("stats diverge:\nreference: %+v\ncore:      %+v", ref.Stats(), core.Stats())
			}
			if refSink.batches != sink.batches || len(refSink.log) != len(sink.log) {
				t.Errorf("reference delivered %d batches (%d entries), core %d (%d)",
					refSink.batches, len(refSink.log), sink.batches, len(sink.log))
			}
			for i := 0; i < len(refSink.log) && i < len(sink.log); i++ {
				if refSink.log[i] != sink.log[i] {
					t.Fatalf("batch logs diverge at entry %d: reference %s=%d, core %s=%d", i,
						isa.Signal(refSink.log[i]>>56), refSink.log[i]&(1<<56-1),
						isa.Signal(sink.log[i]>>56), sink.log[i]&(1<<56-1))
				}
			}
			t.Logf("%d batches, %d entries", sink.batches, len(sink.log))
		})
	}
}
