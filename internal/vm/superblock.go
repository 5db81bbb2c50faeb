package vm

import (
	"sync/atomic"

	"mperf/internal/ir"
	"mperf/internal/machine"
)

// This file implements superblock execution, the interpreter's only
// activation loop: straight-line regions — basic blocks and
// single-predecessor chains of unconditionally linked blocks — are
// fused at plan time into immutable charge templates, and the dispatch
// loop charges each region through one machine.Core.ExecRegion call.
// Instruction semantics run through the pre-bound step executors; emit
// records each uop's dynamic operands (address, branch outcome,
// indirect target) into a pending buffer that is flushed at region
// exits, before calls and intrinsics (whose runtimes read the cycle
// clock), at returns, and on traps — so the core sees the uops in
// program order.
//
// While an overflow sampler is armed, the loop also charges and calls
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

// buildRegions fuses a planned function's blocks into superblocks:
// every block gets an immutable charge template (raw register ids;
// salted into scoreboard slots at charge time), and every block heads
// a maximal chain through unconditional branches into
// single-predecessor successors — a straight-line region with no side
// entries, charged as one unit.
func buildRegions(fp *funcPlan) {
	for _, bp := range fp.blocks {
		bp.tmpl = make([]machine.Uop, len(bp.steps))
		for i := range bp.steps {
			st := &bp.steps[i]
			u := st.proto
			u.Dst = st.dst
			u.Src1, u.Src2, u.Src3 = st.srcRegs[0], st.srcRegs[1], st.srcRegs[2]
			bp.tmpl[i] = u
		}
	}

	preds := make([]int, len(fp.blocks))
	preds[fp.entry.index]++ // the function-entry edge
	for _, bp := range fp.blocks {
		term := &bp.steps[len(bp.steps)-1]
		for _, tgt := range term.targets {
			preds[tgt.index]++
		}
	}

	for _, bp := range fp.blocks {
		chain := []*blockPlan{bp}
		cur := bp
		for {
			term := &cur.steps[len(cur.steps)-1]
			if term.in.Op != ir.OpBr {
				break
			}
			nxt := term.targets[0]
			if nxt == cur || nxt == fp.entry || preds[nxt.index] != 1 {
				break
			}
			// Guard against cycles of dead single-predecessor blocks.
			if chainContains(chain, nxt) {
				break
			}
			chain = append(chain, nxt)
			cur = nxt
		}
		bp.chain = chain
		if len(chain) == 1 {
			bp.chainTmpl = bp.tmpl
			continue
		}
		n := 0
		for _, cb := range chain {
			n += len(cb.tmpl)
		}
		ct := make([]machine.Uop, 0, n)
		for _, cb := range chain {
			ct = append(ct, cb.tmpl...)
		}
		bp.chainTmpl = ct
	}
}

func chainContains(chain []*blockPlan, bp *blockPlan) bool {
	for _, cb := range chain {
		if cb == bp {
			return true
		}
	}
	return false
}

// flushPending charges the deferred uops of the current region through
// the core in one call and advances the flush cursor. It is called at
// region exits, before calls (so callee-side clock reads and charges
// follow the caller's in program order), per block while sampling, and
// from Run's trap recovery (the pending prefix is exactly the uops that
// completed before the trap). A functional run only advances the cursor.
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

// callFused executes one activation region-at-a-time, with charges
// deferred into the pending buffers and batched through one ExecRegion
// call per region. Without an armed sampler, event delivery is pure
// accumulation, so events are flushed only when control leaves the
// frame. With one (the state only changes between runs, so it is read
// once per activation), every block edge charges the pending uops,
// calls FlushEdge and moves the core's PC: a sample must attribute the
// cycles before the edge to the block that spent them. Loop kernels
// make the same edge calls per iteration. Per-block step budgeting is
// the same either way.
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
		chain := bp.chain
		if len(m.pendDyn) < len(bp.chainTmpl) {
			m.pendDyn = make([]machine.RegionDyn, len(bp.chainTmpl)+64)
		}
		m.pendTmpl = bp.chainTmpl
		m.pendFrom, m.pendN = 0, 0
		m.pendSalt = fr.salt

		var next *blockPlan
		for _, cb := range chain {
			m.steps += uint64(len(cb.steps))
			if m.steps > m.MaxSteps {
				trapf("step budget exceeded (%d)", m.MaxSteps)
			}
			if sampling {
				// Flush BEFORE moving the PC: samples fired by the flush
				// must attribute the previous block's cycles to the
				// block (and frame) that accumulated them.
				m.flushPending()
				core.FlushEdge()
				core.SetPC(cb.pc)
			}
			fr.curPC = cb.pc

			steps := cb.steps
			next = nil
			for i := range steps {
				st := &steps[i]
				if next = st.exec(m, fr, st); next != nil {
					break
				}
			}
			if next == nil {
				trapf("block %s fell through without terminator", cb.block.BName)
			}
			if next == retMarker {
				break
			}
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
