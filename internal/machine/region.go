package machine

import "mperf/internal/mem"

// This file holds the core's charge rule, one loop per pipeline kind.
// The interpreter records one RegionDyn per micro-op while running a
// straight-line region's semantics, then charges the whole region
// through ExecRegion in a single call. ExecRegion is the only way to
// charge a uop.
// TestRegionMatchesExec pins the loops to the reference stepper kept
// in the tests.

// RegionDyn carries the dynamic operands of one micro-op in a fused
// region: the memory address, conditional-branch outcome and indirect
// target that only exist at execution time. The static remainder of
// the uop (class, size, retired-work counts, raw register ids) lives
// in the region's immutable template.
type RegionDyn struct {
	Addr   uint64
	Target uint64
	Taken  bool
}

// SamplingSink is optionally implemented by an EventSink that can fire
// overflow samples (the PMU model). Cores and the interpreter use it to
// decide how often events are flushed. With a sampler armed, the
// interpreter flushes at every block edge — sample PCs attribute at
// block edges, so coalescing flushes would move samples — and, while a
// count signal is watched, ExecRegion flushes after every uop. Without
// one, every watched signal is summed and delivered at region
// granularity. A sink that does not implement it is conservatively
// treated as sampling whenever its watch mask is non-zero.
type SamplingSink interface {
	// SamplingActive reports whether any overflow sampler is armed on a
	// running counter.
	SamplingActive() bool
}

// SamplingActive reports whether the sink currently has an armed
// overflow sampler (cached at the last RefreshSinkMask, like the watch
// mask). While it is false, event delivery is purely additive, so
// block-edge flushes may be coalesced without changing any counter.
func (c *Core) SamplingActive() bool {
	if !c.sinkMaskValid {
		c.RefreshSinkMask()
	}
	return c.sinkSampling
}

// ExecRegion charges a straight-line region of micro-ops in one call.
// tmpl is the region's immutable charge template — uops whose
// Dst/Src1..3 hold the planner's raw register ids, salted into
// scoreboard slots here — and dyn holds the recorded runtime operands,
// parallel to tmpl.
//
// The pipeline loops below charge every uop into Stats without building
// batches; FlushEvents later delivers the summed deltas. When
// needsPerUop (a sampler armed while a count signal is watched), the
// region is charged one uop at a time through the same loop with a
// flush after each, so an overflow on an event counter fires at the uop
// that crosses it.
func (c *Core) ExecRegion(tmpl []Uop, dyn []RegionDyn, salt uint32) {
	if len(tmpl) == 0 {
		return
	}
	if !c.sinkMaskValid {
		c.RefreshSinkMask()
	}
	if !c.perUop {
		c.charge(tmpl, dyn, salt)
		return
	}
	for i := range tmpl {
		c.charge(tmpl[i:i+1], dyn[i:i+1], salt)
		c.FlushEvents()
	}
}

// charge runs the pipeline's charge loop over a region.
func (c *Core) charge(tmpl []Uop, dyn []RegionDyn, salt uint32) {
	if c.cfg.Kind == InOrder {
		c.chargeInOrder(tmpl, dyn, salt)
	} else {
		c.chargeOutOfOrder(tmpl, dyn, salt)
	}
}

// chargeInOrder charges time through the register scoreboard: a uop
// issues once its sources are ready and an issue slot is free; loads
// add their access latency to the destination's ready time, stores
// drain through the store buffer, and mispredicts flush the pipeline.
func (c *Core) chargeInOrder(tmpl []Uop, dyn []RegionDyn, salt uint32) {
	for i := range tmpl {
		u := &tmpl[i]

		// Stall until all sources are ready.
		earliest := c.cycles
		if u.Src1 >= 0 {
			if r := c.ready[(uint32(u.Src1)+salt)&(scoreboardSize-1)]; r > earliest {
				earliest = r
			}
		}
		if u.Src2 >= 0 {
			if r := c.ready[(uint32(u.Src2)+salt)&(scoreboardSize-1)]; r > earliest {
				earliest = r
			}
		}
		if u.Src3 >= 0 {
			if r := c.ready[(uint32(u.Src3)+salt)&(scoreboardSize-1)]; r > earliest {
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
			access := c.memh.Access(c.cycles, dyn[i].Addr, int(u.Size), false)
			lat += access.Latency
			c.chargeAccess(access)
			c.stats.Loads++
		case OpStore, OpVecStore:
			access := c.memh.Access(c.cycles, dyn[i].Addr, int(u.Size), true)
			// Stores retire through the store buffer at posted-write cost
			// (bandwidth, not round-trip latency); the pipeline stalls
			// only when the buffer is full and the oldest entry has not
			// drained.
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
			c.chargeAccess(access)
			c.stats.Stores++
		case OpBranch:
			if c.bp.conditional(u.BrID, dyn[i].Taken) {
				c.cycles += c.cfg.MispredictPenalty
				c.issued = 0
			}
		case OpIndirect:
			if c.bp.indirect(u.BrID, dyn[i].Target) {
				c.cycles += c.cfg.MispredictPenalty
				c.issued = 0
			}
		}

		c.issued++
		if u.Dst >= 0 {
			c.ready[(uint32(u.Dst)+salt)&(scoreboardSize-1)] = c.cycles + lat
		}

		// Retired-instruction accounting via per-class expansion.
		c.instretFx += uint64(c.cfg.expansion(u.Class))
		c.stats.Uops++

		// OS timer tick: periodically spend handler time in S-mode.
		if c.nextTimer != 0 && c.cycles >= c.nextTimer {
			timerCycles := c.cfg.TimerHandlerCycles
			c.cycles += timerCycles
			// The handler retires roughly one instruction per cycle.
			c.instretFx += timerCycles << 8
			c.nextTimer += c.cfg.TimerIntervalCycles
			c.stats.TimerTicks++
		}

		flops := uint64(u.Flops)
		specFlops := flops
		if flops > 0 && c.replayFP > 0 {
			specFlops += flops
			c.replayFP--
		}
		c.stats.Flops += flops
		c.stats.SpecFlops += specFlops
		c.stats.IntOps += uint64(u.IntOps)
	}
}

// chargeOutOfOrder charges time through the analytic out-of-order
// model: issue bandwidth plus the penalties the window cannot hide
// (L1 misses divided by the memory-level parallelism, a full store
// buffer, long-latency dividers and mispredicts).
func (c *Core) chargeOutOfOrder(tmpl []Uop, dyn []RegionDyn, salt uint32) {
	issueFx := 256 / uint64(c.cfg.IssueWidth)
	for i := range tmpl {
		u := &tmpl[i]

		// Issue bandwidth: 1/width cycles per uop, in ×256 fixed point.
		c.fracCycle += issueFx
		if c.fracCycle >= 256 {
			c.cycles += c.fracCycle >> 8
			c.fracCycle &= 255
		}

		switch u.Class {
		case OpLoad, OpVecLoad:
			access := c.memh.Access(c.cycles, dyn[i].Addr, int(u.Size), false)
			if access.L1Miss {
				// The window overlaps misses; expose latency/MLP.
				pen := access.Latency / uint64(c.cfg.MLP)
				c.cycles += pen
				c.stats.StallCycles += pen
				c.replayFP = 8 // downstream FP uops re-issue (counter overcount)
			}
			c.chargeAccess(access)
			c.stats.Loads++
		case OpStore, OpVecStore:
			access := c.memh.Access(c.cycles, dyn[i].Addr, int(u.Size), true)
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
			c.chargeAccess(access)
			c.stats.Stores++
		case OpIntDiv, OpFPDiv:
			// Partially pipelined long-latency units.
			pen := c.cfg.Latency[u.Class] / 2
			c.cycles += pen
			c.stats.StallCycles += pen
		case OpBranch:
			if c.bp.conditional(u.BrID, dyn[i].Taken) {
				c.cycles += c.cfg.MispredictPenalty
				c.stats.StallCycles += c.cfg.MispredictPenalty
			}
		case OpIndirect:
			if c.bp.indirect(u.BrID, dyn[i].Target) {
				c.cycles += c.cfg.MispredictPenalty
				c.stats.StallCycles += c.cfg.MispredictPenalty
			}
		}

		// Retired-instruction accounting via per-class expansion.
		c.instretFx += uint64(c.cfg.expansion(u.Class))
		c.stats.Uops++

		// OS timer tick: periodically spend handler time in S-mode.
		if c.nextTimer != 0 && c.cycles >= c.nextTimer {
			timerCycles := c.cfg.TimerHandlerCycles
			c.cycles += timerCycles
			// The handler retires roughly one instruction per cycle.
			c.instretFx += timerCycles << 8
			c.nextTimer += c.cfg.TimerIntervalCycles
			c.stats.TimerTicks++
		}

		flops := uint64(u.Flops)
		specFlops := flops
		if flops > 0 && c.replayFP > 0 {
			specFlops += flops
			c.replayFP--
		}
		c.stats.Flops += flops
		c.stats.SpecFlops += specFlops
		c.stats.IntOps += uint64(u.IntOps)
	}
}

// chargeAccess folds a memory access's event counts into the
// statistics.
func (c *Core) chargeAccess(access mem.AccessResult) {
	if access.L1Miss {
		c.stats.L1DMisses++
	}
	if access.L2Miss {
		c.stats.L2Misses++
	}
	c.stats.L1DBytes += access.L1Bytes
	c.stats.L2Bytes += access.L2Bytes
	c.stats.DRAMBytes += access.DRAMBytes
}
