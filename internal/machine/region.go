package machine

// This file implements region-granular charging: the interpreter's
// superblock execution mode records one RegionDyn per micro-op while
// running a straight-line region's semantics, then charges the whole
// region through ExecRegion in a single call. The per-uop charging
// logic is the same as Exec's — the quiet pipeline loops are inlined
// here so a region costs one call instead of one call per uop — and
// TestRegionMatchesExec pins the equivalence.

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
// overflow samples (the PMU model). Cores use it to decide how events
// are delivered. With a sampler armed, time signals stay
// block-granular — sample PCs attribute at block edges, so coalescing
// flushes would move samples — and any other watched signal goes per
// uop. Without one, every signal with a Stats counter is summed and
// delivered at region granularity. A sink that does not implement it
// is conservatively treated as sampling whenever its watch mask is
// non-zero.
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
// Dst/Src1..3 hold the planner's raw register ids (salted into
// scoreboard slots here, exactly like the per-uop path) — and dyn
// holds the recorded runtime operands, parallel to tmpl.
//
// The charge sequence is identical to calling Exec once per uop with
// the same operands: unless needsPerUop (a sampler armed while a
// non-time signal is watched, or a signal with no Stats counter), the
// quiet pipeline loops below charge every uop without building batches
// and FlushEvents later delivers the summed deltas; otherwise each uop
// runs through the full observed Exec path, preserving per-uop event
// delivery and sampling semantics.
func (c *Core) ExecRegion(tmpl []Uop, dyn []RegionDyn, salt uint32) {
	if len(tmpl) == 0 {
		return
	}
	if !c.sinkMaskValid {
		c.RefreshSinkMask()
	}
	if c.perUop {
		c.regionObserved(tmpl, dyn, salt)
		return
	}
	if c.cfg.Kind == InOrder {
		c.regionQuietInOrder(tmpl, dyn, salt)
	} else {
		c.regionQuietOutOfOrder(tmpl, dyn, salt)
	}
}

// regionQuietInOrder is execQuietInOrder plus execQuiet's retirement
// tail, fused over the whole region with salted slot hashing inlined.
func (c *Core) regionQuietInOrder(tmpl []Uop, dyn []RegionDyn, salt uint32) {
	for i := range tmpl {
		u := &tmpl[i]

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
			c.chargeQuietAccess(access)
			c.stats.Loads++
		case OpStore, OpVecStore:
			access := c.memh.Access(c.cycles, dyn[i].Addr, int(u.Size), true)
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
			c.chargeQuietAccess(access)
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

		c.instretFx += uint64(c.cfg.expansion(u.Class))
		c.stats.Uops++

		if c.nextTimer != 0 && c.cycles >= c.nextTimer {
			timerCycles := c.cfg.TimerHandlerCycles
			c.cycles += timerCycles
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

// regionQuietOutOfOrder is execQuietOutOfOrder plus execQuiet's
// retirement tail, fused the same way.
func (c *Core) regionQuietOutOfOrder(tmpl []Uop, dyn []RegionDyn, salt uint32) {
	issueFx := 256 / uint64(c.cfg.IssueWidth)
	for i := range tmpl {
		u := &tmpl[i]

		c.fracCycle += issueFx
		if c.fracCycle >= 256 {
			c.cycles += c.fracCycle >> 8
			c.fracCycle &= 255
		}

		switch u.Class {
		case OpLoad, OpVecLoad:
			access := c.memh.Access(c.cycles, dyn[i].Addr, int(u.Size), false)
			if access.L1Miss {
				pen := access.Latency / uint64(c.cfg.MLP)
				c.cycles += pen
				c.stats.StallCycles += pen
				c.replayFP = 8
			}
			c.chargeQuietAccess(access)
			c.stats.Loads++
		case OpStore, OpVecStore:
			access := c.memh.Access(c.cycles, dyn[i].Addr, int(u.Size), true)
			complete := c.cycles + access.PostedLatency
			oldest := c.storeBuf[c.storeHead]
			if oldest > c.cycles {
				c.stats.StallCycles += oldest - c.cycles
				c.cycles = oldest
				if complete < c.cycles {
					complete = c.cycles
				}
			}
			c.storeBuf[c.storeHead] = complete
			c.storeHead = (c.storeHead + 1) % len(c.storeBuf)
			c.chargeQuietAccess(access)
			c.stats.Stores++
		case OpIntDiv, OpFPDiv:
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

		c.instretFx += uint64(c.cfg.expansion(u.Class))
		c.stats.Uops++

		if c.nextTimer != 0 && c.cycles >= c.nextTimer {
			timerCycles := c.cfg.TimerHandlerCycles
			c.cycles += timerCycles
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

// regionObserved charges a region while events need per-uop delivery
// (see needsPerUop): each uop is materialized (template copy, salted
// slots, dyn overlay) and run through the full per-uop Exec path, so
// per-uop event delivery — including mid-region overflow sampling on
// event counters — behaves exactly like the unfused interpreter.
func (c *Core) regionObserved(tmpl []Uop, dyn []RegionDyn, salt uint32) {
	var u Uop
	for i := range tmpl {
		u = tmpl[i]
		if u.Dst >= 0 {
			u.Dst = int32((uint32(u.Dst) + salt) & (scoreboardSize - 1))
		}
		if u.Src1 >= 0 {
			u.Src1 = int32((uint32(u.Src1) + salt) & (scoreboardSize - 1))
		}
		if u.Src2 >= 0 {
			u.Src2 = int32((uint32(u.Src2) + salt) & (scoreboardSize - 1))
		}
		if u.Src3 >= 0 {
			u.Src3 = int32((uint32(u.Src3) + salt) & (scoreboardSize - 1))
		}
		u.Addr = dyn[i].Addr
		u.Taken = dyn[i].Taken
		u.Target = dyn[i].Target
		c.Exec(&u)
	}
}
