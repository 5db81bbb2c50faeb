package machine

import (
	"testing"

	"mperf/internal/isa"
)

// TestByteSignalsMatchStats pins the per-level byte attribution plumbing
// with per-uop delivery: for a mixed load/store stream, the l1d_bytes,
// l2_bytes and dram_bytes deltas delivered through the EventSink must
// sum to exactly the core's charged Stats, which must in turn equal the
// hierarchy's own per-level byte counters — on both pipeline kinds.
func TestByteSignalsMatchStats(t *testing.T) {
	for _, cfg := range []Config{inOrderConfig(), oooConfig()} {
		t.Run(cfg.Name, func(t *testing.T) {
			var sink recordingSink
			c := NewCore(cfg, &sink)
			seed := uint64(99)
			next := func() uint64 {
				seed = seed*6364136223846793005 + 1442695040888963407
				return seed >> 33
			}
			for i := 0; i < 20_000; i++ {
				u := Uop{Src1: -1, Src2: -1, Src3: -1, Dst: -1}
				d := RegionDyn{Addr: 0x4000 + (next() % (1 << 18))}
				u.Size = 1 << (next() % 4) // 1, 2, 4, 8 bytes
				if next()%3 == 0 {
					u.Class = OpStore
					u.Src1 = int32(next() % 32)
				} else {
					u.Class = OpLoad
					u.Dst = int32(next() % 32)
				}
				execOne(c, u, d)
			}
			st := c.Stats()
			if st.L1DBytes == 0 || st.L2Bytes == 0 || st.DRAMBytes == 0 {
				t.Fatalf("byte stats not charged: %+v", st)
			}
			if got := sink.totals[isa.SigL1DBytes]; got != st.L1DBytes {
				t.Errorf("l1d_bytes signal = %d, stats charge %d", got, st.L1DBytes)
			}
			if got := sink.totals[isa.SigL2Bytes]; got != st.L2Bytes {
				t.Errorf("l2_bytes signal = %d, stats charge %d", got, st.L2Bytes)
			}
			if got := sink.totals[isa.SigDRAMBytes]; got != st.DRAMBytes {
				t.Errorf("dram_bytes signal = %d, stats charge %d", got, st.DRAMBytes)
			}
			h := c.Mem()
			if st.L1DBytes != h.L1Bytes || st.L2Bytes != h.L2Bytes {
				t.Errorf("stats bytes (%d, %d) diverge from hierarchy (%d, %d)",
					st.L1DBytes, st.L2Bytes, h.L1Bytes, h.L2Bytes)
			}
			if st.DRAMBytes != h.DRAM().Bytes {
				t.Errorf("stats DRAM bytes %d != channel %d", st.DRAMBytes, h.DRAM().Bytes)
			}
		})
	}
}
