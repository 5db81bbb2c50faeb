package machine

import (
	"mperf/internal/isa"
	"mperf/internal/mem"
)

// This file keeps the reference stepper: the per-uop observed charge
// rule the core used before regions became its only charge path. It
// charges one uop at a time, returns the access and mispredict results
// it needs, and builds the uop's delta batch directly from them instead
// of from flush marks. It shares no code with chargeInOrder,
// chargeOutOfOrder or FlushEvents, so the tests that compare the two
// catch a bug in either. Signals without a Stats counter (fp_ops,
// vec_fp_ops, l1i_*) are not emitted, matching the core.

// refExec charges one uop, with its dynamic operands in d, through the
// reference rule and delivers its deltas, leaving the flush marks
// current. The uop's registers are used as scoreboard slots unsalted.
func (c *Core) refExec(uop Uop, d RegionDyn) {
	u := &uop
	if !c.sinkMaskValid {
		c.RefreshSinkMask()
	}
	mask := c.sinkMask
	startCycles := c.cycles
	startInstret := c.instretFx >> 8
	startStalls := c.stats.StallCycles

	var access mem.AccessResult
	var mispredict bool
	if c.cfg.Kind == InOrder {
		access, mispredict = c.refInOrder(u, d)
	} else {
		access, mispredict = c.refOutOfOrder(u, d)
	}

	// Retired-instruction accounting via per-class expansion.
	c.instretFx += uint64(c.cfg.expansion(u.Class))
	c.stats.Uops++

	// OS timer tick: periodically spend handler time in S-mode.
	var timerCycles uint64
	if c.nextTimer != 0 && c.cycles >= c.nextTimer {
		timerCycles = c.cfg.TimerHandlerCycles
		c.cycles += timerCycles
		// The handler retires roughly one instruction per cycle.
		c.instretFx += timerCycles << 8
		c.nextTimer += c.cfg.TimerIntervalCycles
		c.stats.TimerTicks++
	}

	c.refEmit(u, mask, startCycles, startInstret, startStalls, access, mispredict, timerCycles)
	c.mark = c.Stats()
}

// refInOrder charges time through the register scoreboard.
func (c *Core) refInOrder(u *Uop, d RegionDyn) (access mem.AccessResult, mispredict bool) {
	// Stall until all sources are ready.
	earliest := c.cycles
	if u.Src1 >= 0 {
		if r := c.ready[uint32(u.Src1)&(scoreboardSize-1)]; r > earliest {
			earliest = r
		}
	}
	if u.Src2 >= 0 {
		if r := c.ready[uint32(u.Src2)&(scoreboardSize-1)]; r > earliest {
			earliest = r
		}
	}
	if u.Src3 >= 0 {
		if r := c.ready[uint32(u.Src3)&(scoreboardSize-1)]; r > earliest {
			earliest = r
		}
	}
	if earliest > c.cycles {
		c.stats.StallCycles += earliest - c.cycles
		c.cycles = earliest
		c.issued = 0
	}
	if c.issued >= c.cfg.IssueWidth {
		c.cycles++
		c.issued = 0
	}

	lat := c.cfg.Latency[u.Class]
	switch u.Class {
	case OpLoad, OpVecLoad:
		access = c.memh.Access(c.cycles, d.Addr, int(u.Size), false)
		lat += access.Latency
	case OpStore, OpVecStore:
		access = c.memh.Access(c.cycles, d.Addr, int(u.Size), true)
		// Stores retire through the store buffer at posted-write cost
		// (bandwidth, not round-trip latency); the pipeline stalls only
		// when the buffer is full and the oldest entry has not drained.
		complete := c.cycles + access.PostedLatency
		oldest := c.storeBuf[c.storeHead]
		if oldest > c.cycles {
			c.stats.StallCycles += oldest - c.cycles
			c.cycles = oldest
			c.issued = 0
			if complete < c.cycles {
				complete = c.cycles
			}
		}
		c.storeBuf[c.storeHead] = complete
		c.storeHead = (c.storeHead + 1) % len(c.storeBuf)
	case OpBranch:
		mispredict = c.bp.conditional(u.BrID, d.Taken)
	case OpIndirect:
		mispredict = c.bp.indirect(u.BrID, d.Target)
	}
	if mispredict {
		c.cycles += c.cfg.MispredictPenalty
		c.issued = 0
	}

	c.issued++
	if u.Dst >= 0 {
		c.ready[uint32(u.Dst)&(scoreboardSize-1)] = c.cycles + lat
	}
	return access, mispredict
}

// refOutOfOrder charges time through the analytic model: issue
// bandwidth plus un-hidable penalties.
func (c *Core) refOutOfOrder(u *Uop, d RegionDyn) (access mem.AccessResult, mispredict bool) {
	// Issue bandwidth: 1/width cycles per uop, in ×256 fixed point.
	c.fracCycle += 256 / uint64(c.cfg.IssueWidth)
	if c.fracCycle >= 256 {
		c.cycles += c.fracCycle >> 8
		c.fracCycle &= 255
	}

	switch u.Class {
	case OpLoad, OpVecLoad:
		access = c.memh.Access(c.cycles, d.Addr, int(u.Size), false)
		if access.L1Miss {
			// The window overlaps misses; expose latency/MLP.
			pen := access.Latency / uint64(c.cfg.MLP)
			c.cycles += pen
			c.stats.StallCycles += pen
			c.replayFP = 8 // downstream FP uops re-issue (counter overcount)
		}
	case OpStore, OpVecStore:
		access = c.memh.Access(c.cycles, d.Addr, int(u.Size), true)
		complete := c.cycles + access.PostedLatency
		oldest := c.storeBuf[c.storeHead]
		if oldest > c.cycles {
			// Store buffer full behind a saturated channel.
			c.stats.StallCycles += oldest - c.cycles
			c.cycles = oldest
			if complete < c.cycles {
				complete = c.cycles
			}
		}
		c.storeBuf[c.storeHead] = complete
		c.storeHead = (c.storeHead + 1) % len(c.storeBuf)
	case OpIntDiv, OpFPDiv:
		// Partially pipelined long-latency units.
		pen := c.cfg.Latency[u.Class] / 2
		c.cycles += pen
		c.stats.StallCycles += pen
	case OpBranch:
		mispredict = c.bp.conditional(u.BrID, d.Taken)
	case OpIndirect:
		mispredict = c.bp.indirect(u.BrID, d.Target)
	}
	if mispredict {
		c.cycles += c.cfg.MispredictPenalty
		c.stats.StallCycles += c.cfg.MispredictPenalty
	}
	return access, mispredict
}

// refEmit folds the uop's effects into statistics and delivers its
// deltas to the event sink as one batch. Signals outside the sink's
// watch mask are skipped at construction.
func (c *Core) refEmit(u *Uop, mask uint64, startCycles, startInstret, startStalls uint64,
	access mem.AccessResult, mispredict bool, timerCycles uint64) {

	cycleDelta := c.cycles - startCycles
	instretDelta := (c.instretFx >> 8) - startInstret
	stallDelta := c.stats.StallCycles - startStalls

	flops := uint64(u.Flops)
	specFlops := flops
	if flops > 0 && c.replayFP > 0 {
		specFlops += flops
		c.replayFP--
	}

	c.stats.Flops += flops
	c.stats.SpecFlops += specFlops
	c.stats.IntOps += uint64(u.IntOps)
	if access.L1Miss {
		c.stats.L1DMisses++
	}
	if access.L2Miss {
		c.stats.L2Misses++
	}
	c.stats.L1DBytes += access.L1Bytes
	c.stats.L2Bytes += access.L2Bytes
	c.stats.DRAMBytes += access.DRAMBytes

	switch u.Class {
	case OpLoad, OpVecLoad:
		c.stats.Loads++
	case OpStore, OpVecStore:
		c.stats.Stores++
	}

	if c.sink == nil {
		return
	}
	b := &c.batch
	b.N = 0
	b.AddWatched(mask, isa.SigCycle, cycleDelta)
	b.AddWatched(mask, isa.SigInstret, instretDelta)
	// Mode-cycle signals come after the base counters so that a
	// sampling leader bound to one of them observes fully-updated
	// cycles/instret values in its group snapshot.
	userCycles := cycleDelta - timerCycles
	switch c.priv {
	case isa.PrivU:
		b.AddWatched(mask, isa.SigUModeCycle, userCycles)
	case isa.PrivS:
		b.AddWatched(mask, isa.SigSModeCycle, userCycles)
	case isa.PrivM:
		b.AddWatched(mask, isa.SigMModeCycle, userCycles)
	}
	b.AddWatched(mask, isa.SigSModeCycle, timerCycles)
	switch u.Class {
	case OpLoad, OpVecLoad:
		b.AddWatched(mask, isa.SigLoad, 1)
		b.AddWatched(mask, isa.SigL1DAccess, 1)
	case OpStore, OpVecStore:
		b.AddWatched(mask, isa.SigStore, 1)
		b.AddWatched(mask, isa.SigL1DAccess, 1)
	case OpBranch, OpIndirect:
		b.AddWatched(mask, isa.SigBranch, 1)
		if mispredict {
			b.AddWatched(mask, isa.SigBranchMiss, 1)
		}
	}
	if access.L1Miss {
		b.AddWatched(mask, isa.SigL1DMiss, 1)
		b.AddWatched(mask, isa.SigL2Access, 1)
	}
	if access.L2Miss {
		b.AddWatched(mask, isa.SigL2Miss, 1)
	}
	b.AddWatched(mask, isa.SigStall, stallDelta)
	b.AddWatched(mask, isa.SigDRAMBytes, access.DRAMBytes)
	b.AddWatched(mask, isa.SigL1DBytes, access.L1Bytes)
	b.AddWatched(mask, isa.SigL2Bytes, access.L2Bytes)
	b.AddWatched(mask, isa.SigFPFlop, flops)
	b.AddWatched(mask, isa.SigSpecFlop, specFlops)
	b.AddWatched(mask, isa.SigIntOp, uint64(u.IntOps))
	if b.N > 0 {
		c.sink.Apply(b)
	}
}
