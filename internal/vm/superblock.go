package vm

import (
	"sync/atomic"

	"mperf/internal/machine"
)

// This file implements block-at-a-time execution, the interpreter's
// only activation loop: every basic block carries an immutable charge
// template built at plan time, and the dispatch loop charges each block
// through one machine.Core.ExecRegion call. Instruction semantics run
// through the pre-bound step executors; emit records each uop's dynamic
// operands (address, branch outcome, indirect target) into a pending
// buffer that is flushed at block exits, before calls and intrinsics
// (whose runtimes read the cycle clock), at returns, and on traps — so
// the core sees the uops in program order.
//
// While an overflow sampler is armed, the loop also calls
// machine.Core.FlushEdge at every block edge and moves the core's PC
// there, so samples attribute to block PCs. FlushEdge delivers only
// when the cycles or instret pending since the last delivery could
// reach an armed counter's next overflow; skipped edges are delivered
// ahead of that batch, so every sample keeps the IP, time, period,
// callchain and group reads a delivery at every edge would give it.
// Loop kernels run under sampling too, with an edge flush before every
// iteration. TestSuperblockInvariance pins the catalog's profiles to
// the golden corpus, and TestEdgeDeliveryMatchesEveryEdge in
// internal/miniperf the sample streams to a delivery at every edge.

// CodegenTag returns the cache-key component describing the VM's
// plan/execution scheme. Program caches must include it in their keys
// so artifacts are never reused across codegen changes.
func CodegenTag() string { return "cg3" }

// ExecStats aggregates execution coverage counters across machines —
// how many instructions ran and how often specialized loop kernels
// hit. Machines flush into it on Release (and on FlushExecStats); it is
// safe for concurrent use. Coverage is deliberately kept out of Profile
// output so profiles do not depend on cache state or kernel matching.
type ExecStats struct {
	// TotalSteps counts interpreted IR instructions.
	TotalSteps atomic.Uint64
	// KernelHits counts entries into specialized loop kernels.
	KernelHits atomic.Uint64
	// KernelIters counts loop iterations executed by specialized
	// kernels.
	KernelIters atomic.Uint64
}

// SetExecStats installs a coverage accumulator the machine flushes
// into on Release (or FlushExecStats).
func (m *Machine) SetExecStats(st *ExecStats) { m.execStats = st }

// FlushExecStats adds the machine's coverage counters into the
// installed accumulator and zeroes them.
func (m *Machine) FlushExecStats() {
	if m.execStats == nil {
		return
	}
	m.execStats.TotalSteps.Add(m.steps - m.statBase)
	m.execStats.KernelHits.Add(m.kernelHits)
	m.execStats.KernelIters.Add(m.kernelIters)
	m.statBase = m.steps
	m.kernelHits, m.kernelIters = 0, 0
}

// flushPending charges the deferred uops of the current block through
// the core in one call and advances the flush cursor. It is called at
// block exits, before calls (so callee-side clock reads and charges
// follow the caller's in program order), and from Run's trap recovery
// (the pending prefix is exactly the uops that completed before the
// trap). A functional run only advances the cursor.
func (m *Machine) flushPending() {
	if m.pendN == 0 {
		return
	}
	n := m.pendFrom + m.pendN
	if !m.functional {
		m.hart.Core.ExecRegion(m.pendTmpl[m.pendFrom:n], m.pendDyn[m.pendFrom:n], m.pendSalt)
	}
	m.pendFrom, m.pendN = n, 0
}

// callFused executes one activation block-at-a-time, with charges
// deferred into the pending buffers and batched through one ExecRegion
// call per block. Without an armed sampler, event delivery is pure
// accumulation, so events are flushed only when control leaves the
// frame. With one (the state only changes between runs, so it is read
// once per activation), every block edge calls FlushEdge and moves the
// core's PC; the previous block was charged at its own exit, so a
// sample attributes the cycles before the edge to the block that spent
// them. Loop kernels make the same edge calls per iteration. Per-block
// step budgeting is the same either way.
func (m *Machine) callFused(fp *funcPlan, args []uint64, vargs [][]uint64) (uint64, []uint64) {
	if len(m.frames) >= maxCallDepth {
		trapf("call depth exceeded in @%s", fp.fn.FName)
	}
	m.frameSeq++
	var fr *frame
	if pool := m.framePools[fp.index]; len(pool) > 0 {
		fr = pool[len(pool)-1]
		m.framePools[fp.index] = pool[:len(pool)-1]
	} else {
		fr = &frame{
			fp:    fp,
			regs:  make([]uint64, fp.numRegs),
			vregs: make([][]uint64, fp.numRegs),
		}
	}
	fr.salt = m.frameSeq * 251
	fr.stackSave = m.stackTop
	fr.curPC = fp.base
	fr.retVal, fr.retVec = 0, nil
	copy(fr.regs, args)
	for _, r := range fp.vecParams {
		v := vargs[r]
		copy(fr.vregDst(r, len(v)), v)
	}
	m.frames = append(m.frames, fr)

	core := m.hart.Core
	sampling := core.SamplingActive()

	bp := fp.entry
	for {
		if kern := bp.kernel; kern != nil && !m.noKernels {
			bp = kern(m, fr)
			continue
		}
		m.steps += uint64(len(bp.steps))
		if m.steps > m.MaxSteps {
			trapf("step budget exceeded (%d)", m.MaxSteps)
		}
		if sampling {
			core.FlushEdge()
			core.SetPC(bp.pc)
		}
		fr.curPC = bp.pc
		if len(m.pendDyn) < len(bp.tmpl) {
			m.pendDyn = make([]machine.RegionDyn, len(bp.tmpl)+64)
		}
		m.pendTmpl, m.pendFrom, m.pendN, m.pendSalt = bp.tmpl, 0, 0, fr.salt

		var next *blockPlan
		steps := bp.steps
		for i := range steps {
			st := &steps[i]
			if next = st.exec(m, fr, st); next != nil {
				break
			}
		}
		if next == nil {
			trapf("block %s fell through without terminator", bp.block.BName)
		}
		m.flushPending()
		if next == retMarker {
			break
		}
		bp = next
	}

	// Deliver batched deltas before control leaves the frame. A sampled
	// exit is one more block edge, whose delivery may wait until an
	// overflow can fire; Run flushes unconditionally when it returns.
	core.FlushEdge()
	m.frames = m.frames[:len(m.frames)-1]
	m.stackTop = fr.stackSave
	m.framePools[fp.index] = append(m.framePools[fp.index], fr)
	return fr.retVal, fr.retVec
}
