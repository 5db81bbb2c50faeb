package machine

import "mperf/internal/mem"

// This file holds the core's charge rule, one loop per pipeline kind.
// The interpreter records one RegionDyn per micro-op while running a
// straight-line region's semantics, then charges the whole region
// through ExecRegion in a single call. ExecRegion is the only way to
// charge a uop.
//
// Each loop keeps the core's running state (clock, issue slot or
// fraction, replay count, timer, store-buffer head) and the region's
// count sums in locals and writes them back once at the end of the
// region. Nothing the loop calls reads them: the memory hierarchy is
// handed the local clock, and FlushEvents only runs between charges.
// The per-uop order of scoreboard, store buffer, predictor, timer and
// replay rule is the reference stepper's, which TestRegionMatchesExec
// and TestPerUopBatchesMatchReference pin.

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
// interpreter calls FlushEdge at every block edge — sample PCs
// attribute at block edges — which delivers only once the pending
// cycles or instret reach the sink's Headroom, and, while a count
// signal is watched, ExecRegion flushes after every uop. Without one,
// every watched signal is summed and delivered at region granularity.
// A sink that does not implement it is conservatively treated as
// sampling whenever its watch mask is non-zero, with no headroom, so
// every block edge delivers.
type SamplingSink interface {
	// SamplingActive reports whether any overflow sampler is armed on a
	// running counter.
	SamplingActive() bool
	// Headroom bounds the deltas that cannot fire an overflow: a batch
	// whose cycle delta is below cycles and whose instret delta is below
	// instret makes no armed counter overflow. Every mode-cycle delta is
	// at most the cycle delta, so an armed mode-cycle counter bounds
	// cycles; an armed counter on any other signal must make both 0.
	// The core re-reads it after every delivery while sampling.
	Headroom() (cycles, instret uint64)
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
	cycles, issued, replayFP := c.cycles, c.issued, c.replayFP
	nextTimer, storeHead := c.nextTimer, c.storeHead
	var instretFx, stall, loads, stores, flops, specFlops, intOps uint64
	for i := range tmpl {
		u := &tmpl[i]

		// Stall until all sources are ready.
		earliest := cycles
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
		if earliest > cycles {
			stall += earliest - cycles
			cycles = earliest
			issued = 0
		}
		if issued >= c.cfg.IssueWidth {
			cycles++
			issued = 0
		}

		lat := c.cfg.Latency[u.Class]
		switch u.Class {
		case OpLoad, OpVecLoad:
			access := c.memh.Access(cycles, dyn[i].Addr, int(u.Size), false)
			lat += access.Latency
			c.chargeAccess(access)
			loads++
		case OpStore, OpVecStore:
			access := c.memh.Access(cycles, dyn[i].Addr, int(u.Size), true)
			// Stores retire through the store buffer at posted-write cost
			// (bandwidth, not round-trip latency); the pipeline stalls
			// only when the buffer is full and the oldest entry has not
			// drained.
			complete := cycles + access.PostedLatency
			oldest := c.storeBuf[storeHead]
			if oldest > cycles {
				stall += oldest - cycles
				cycles = oldest
				issued = 0
				if complete < cycles {
					complete = cycles
				}
			}
			c.storeBuf[storeHead] = complete
			if storeHead++; storeHead == len(c.storeBuf) {
				storeHead = 0
			}
			c.chargeAccess(access)
			stores++
		case OpBranch:
			if c.bp.conditional(u.BrID, dyn[i].Taken) {
				cycles += c.cfg.MispredictPenalty
				issued = 0
			}
		case OpIndirect:
			if c.bp.indirect(u.BrID, dyn[i].Target) {
				cycles += c.cfg.MispredictPenalty
				issued = 0
			}
		}

		issued++
		if u.Dst >= 0 {
			c.ready[(uint32(u.Dst)+salt)&(scoreboardSize-1)] = cycles + lat
		}

		// Retired-instruction accounting via per-class expansion.
		instretFx += c.expand[u.Class]

		// OS timer tick: periodically spend handler time in S-mode.
		if nextTimer != 0 && cycles >= nextTimer {
			timerCycles := c.cfg.TimerHandlerCycles
			cycles += timerCycles
			// The handler retires roughly one instruction per cycle.
			instretFx += timerCycles << 8
			nextTimer += c.cfg.TimerIntervalCycles
			c.stats.TimerTicks++
		}

		if f := uint64(u.Flops); f > 0 {
			flops += f
			specFlops += f
			if replayFP > 0 {
				specFlops += f
				replayFP--
			}
		}
		intOps += uint64(u.IntOps)
	}
	c.cycles, c.issued, c.replayFP = cycles, issued, replayFP
	c.nextTimer, c.storeHead = nextTimer, storeHead
	c.settle(len(tmpl), instretFx, stall, loads, stores, flops, specFlops, intOps)
}

// chargeOutOfOrder charges time through the analytic out-of-order
// model: issue bandwidth plus the penalties the window cannot hide
// (L1 misses divided by the memory-level parallelism, a full store
// buffer, long-latency dividers and mispredicts).
func (c *Core) chargeOutOfOrder(tmpl []Uop, dyn []RegionDyn, salt uint32) {
	issueFx := 256 / uint64(c.cfg.IssueWidth)
	cycles, fracCycle, replayFP := c.cycles, c.fracCycle, c.replayFP
	nextTimer, storeHead := c.nextTimer, c.storeHead
	var instretFx, stall, loads, stores, flops, specFlops, intOps uint64
	for i := range tmpl {
		u := &tmpl[i]

		// Issue bandwidth: 1/width cycles per uop, in ×256 fixed point.
		fracCycle += issueFx
		if fracCycle >= 256 {
			cycles += fracCycle >> 8
			fracCycle &= 255
		}

		switch u.Class {
		case OpLoad, OpVecLoad:
			access := c.memh.Access(cycles, dyn[i].Addr, int(u.Size), false)
			if access.L1Miss {
				// The window overlaps misses; expose latency/MLP.
				pen := access.Latency / uint64(c.cfg.MLP)
				cycles += pen
				stall += pen
				replayFP = 8 // downstream FP uops re-issue (counter overcount)
			}
			c.chargeAccess(access)
			loads++
		case OpStore, OpVecStore:
			access := c.memh.Access(cycles, dyn[i].Addr, int(u.Size), true)
			complete := cycles + access.PostedLatency
			oldest := c.storeBuf[storeHead]
			if oldest > cycles {
				// Store buffer full behind a saturated channel.
				stall += oldest - cycles
				cycles = oldest
				if complete < cycles {
					complete = cycles
				}
			}
			c.storeBuf[storeHead] = complete
			if storeHead++; storeHead == len(c.storeBuf) {
				storeHead = 0
			}
			c.chargeAccess(access)
			stores++
		case OpIntDiv, OpFPDiv:
			// Partially pipelined long-latency units.
			pen := c.cfg.Latency[u.Class] / 2
			cycles += pen
			stall += pen
		case OpBranch:
			if c.bp.conditional(u.BrID, dyn[i].Taken) {
				cycles += c.cfg.MispredictPenalty
				stall += c.cfg.MispredictPenalty
			}
		case OpIndirect:
			if c.bp.indirect(u.BrID, dyn[i].Target) {
				cycles += c.cfg.MispredictPenalty
				stall += c.cfg.MispredictPenalty
			}
		}

		// Retired-instruction accounting via per-class expansion.
		instretFx += c.expand[u.Class]

		// OS timer tick: periodically spend handler time in S-mode.
		if nextTimer != 0 && cycles >= nextTimer {
			timerCycles := c.cfg.TimerHandlerCycles
			cycles += timerCycles
			// The handler retires roughly one instruction per cycle.
			instretFx += timerCycles << 8
			nextTimer += c.cfg.TimerIntervalCycles
			c.stats.TimerTicks++
		}

		if f := uint64(u.Flops); f > 0 {
			flops += f
			specFlops += f
			if replayFP > 0 {
				specFlops += f
				replayFP--
			}
		}
		intOps += uint64(u.IntOps)
	}
	c.cycles, c.fracCycle, c.replayFP = cycles, fracCycle, replayFP
	c.nextTimer, c.storeHead = nextTimer, storeHead
	c.settle(len(tmpl), instretFx, stall, loads, stores, flops, specFlops, intOps)
}

// settle writes a charge loop's region sums back into the statistics.
func (c *Core) settle(uops int, instretFx, stall, loads, stores, flops, specFlops, intOps uint64) {
	c.instretFx += instretFx
	s := &c.stats
	s.Uops += uint64(uops)
	s.StallCycles += stall
	s.Loads += loads
	s.Stores += stores
	s.Flops += flops
	s.SpecFlops += specFlops
	s.IntOps += intOps
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
