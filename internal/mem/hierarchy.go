package mem

// AccessResult reports what a memory access cost and where it was
// served from. The core model folds Latency into the pipeline; the
// event counts feed the PMU signals.
type AccessResult struct {
	Latency uint64 // total cycles until data available
	// PostedLatency is the cost with the fixed DRAM access latency
	// stripped: queueing plus channel occupancy only. Stores retire
	// through this figure — a posted write does not wait for the DRAM
	// round trip, only for bandwidth.
	PostedLatency uint64
	L1Miss        bool   // missed in L1D
	L2Miss        bool   // missed in L2 (implies DRAM traffic)
	L1Bytes       uint64 // bytes demanded of L1D (the access itself)
	L2Bytes       uint64 // bytes moved between L1D and L2 (fills + writebacks)
	DRAMBytes     uint64 // bytes moved on the memory channel
}

// HierarchyConfig describes a two-level cache hierarchy over DRAM.
// All platforms in the catalog use L1D + shared L2; modelling deeper
// hierarchies adds nothing to the paper's experiments (the paper's own
// arithmetic-intensity accounting stops at L1, §5.2).
type HierarchyConfig struct {
	L1D  CacheConfig
	L2   CacheConfig
	DRAM DRAMConfig
}

// Hierarchy is the per-core memory system: L1D backed by L2 backed by a
// DRAM channel. It is not safe for concurrent use; each simulated core
// owns one.
type Hierarchy struct {
	l1d  *Cache
	l2   *Cache
	dram *DRAM

	lineSize uint64

	// Statistics beyond the per-level counters.
	WriteBacks uint64

	// Per-level traffic attribution. The Accesses/Hits pairs count
	// demand lookups only (no writeback or fill probes), so the
	// conservation law L1Accesses == L1Hits + L2Accesses holds exactly.
	// The byte counters aggregate the per-access L1Bytes/L2Bytes fields.
	L1Accesses uint64
	L1Hits     uint64
	L2Accesses uint64
	L2Hits     uint64
	L1Bytes    uint64
	L2Bytes    uint64
}

// NewHierarchy constructs the memory system.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	return &Hierarchy{
		l1d:      NewCache(cfg.L1D),
		l2:       NewCache(cfg.L2),
		dram:     NewDRAM(cfg.DRAM),
		lineSize: uint64(cfg.L1D.LineSize),
	}
}

// L1D returns the first-level data cache (for statistics inspection).
func (h *Hierarchy) L1D() *Cache { return h.l1d }

// L2 returns the second-level cache.
func (h *Hierarchy) L2() *Cache { return h.l2 }

// DRAM returns the memory channel.
func (h *Hierarchy) DRAM() *DRAM { return h.dram }

// Access performs a data access of size bytes at addr starting at cycle
// now. Accesses that straddle line boundaries touch every affected
// line; the returned latency is the maximum of the per-line latencies
// (lines are fetched in parallel across banks in this model) and the
// event counts are the sums.
//
// The single-line access, the overwhelmingly common case, is resolved
// here: an L1 hit returns without touching the refill path, and a miss
// goes through missLine. Both leave every counter, tag, dirty bit and
// LRU stamp exactly as the per-line loop (accessLine) would.
func (h *Hierarchy) Access(now uint64, addr uint64, size int, write bool) AccessResult {
	if size <= 0 {
		return AccessResult{}
	}
	first := h.l1d.LineAddr(addr)
	last := h.l1d.LineAddr(addr + uint64(size) - 1)
	if first == last {
		h.L1Accesses++
		h.L1Bytes += uint64(size)
		if h.l1d.Lookup(first, write) {
			h.L1Hits++
			lat := h.l1d.cfg.HitLatency
			return AccessResult{Latency: lat, PostedLatency: lat, L1Bytes: uint64(size)}
		}
		res := h.missLine(now, first, write)
		res.L1Bytes = uint64(size)
		return res
	}
	var res AccessResult
	for line := first; ; line += h.lineSize {
		r := h.accessLine(now, line, write)
		if r.Latency > res.Latency {
			res.Latency = r.Latency
		}
		if r.PostedLatency > res.PostedLatency {
			res.PostedLatency = r.PostedLatency
		}
		res.L2Bytes += r.L2Bytes
		res.DRAMBytes += r.DRAMBytes
		res.L1Miss = res.L1Miss || r.L1Miss
		res.L2Miss = res.L2Miss || r.L2Miss
		if line == last {
			break
		}
	}
	res.L1Bytes = uint64(size)
	h.L1Bytes += res.L1Bytes
	return res
}

// accessLine resolves a single line through the hierarchy.
func (h *Hierarchy) accessLine(now uint64, line uint64, write bool) AccessResult {
	h.L1Accesses++
	if h.l1d.Lookup(line, write) {
		h.L1Hits++
		lat := h.l1d.cfg.HitLatency
		return AccessResult{Latency: lat, PostedLatency: lat}
	}
	return h.missLine(now, line, write)
}

// missLine refills a line that missed in L1 (the L1 lookup is already
// counted) from L2 or DRAM and installs it, writing back dirty victims.
func (h *Hierarchy) missLine(now uint64, line uint64, write bool) AccessResult {
	// The miss is refilled from L2: one line crosses the L1<->L2 bus.
	res := AccessResult{L1Miss: true, L2Bytes: h.lineSize}
	h.L2Accesses++
	if h.l2.Lookup(line, false) {
		h.L2Hits++
		res.Latency = h.l2.cfg.HitLatency
		res.PostedLatency = res.Latency
	} else {
		res.L2Miss = true
		res.Latency = h.dram.Transfer(now, int(h.lineSize))
		// Queueing + occupancy only: posted stores do not pay the DRAM
		// round-trip latency.
		res.PostedLatency = res.Latency - h.dram.Config().Latency
		res.DRAMBytes = h.lineSize
		// Install in L2; a dirty L2 victim is written back to DRAM.
		if _, dirty, had := h.l2.Fill(line, false); had && dirty {
			h.WriteBacks++
			h.dram.Transfer(now, int(h.lineSize))
			res.DRAMBytes += h.lineSize
		}
	}
	// Install in L1; a dirty L1 victim is written back to L2 (which may
	// in turn evict to DRAM). The victim line crosses the L1<->L2 bus.
	if ev, dirty, had := h.l1d.Fill(line, write); had && dirty {
		res.L2Bytes += h.lineSize
		if !h.l2.Lookup(ev, true) {
			if _, dirty2, had2 := h.l2.Fill(ev, true); had2 && dirty2 {
				h.WriteBacks++
				h.dram.Transfer(now, int(h.lineSize))
				res.DRAMBytes += h.lineSize
			}
		}
	}
	h.L2Bytes += res.L2Bytes
	return res
}

// Reset restores the hierarchy to the post-construction state.
func (h *Hierarchy) Reset() {
	h.l1d.Reset()
	h.l2.Reset()
	h.dram.Reset()
	h.WriteBacks = 0
	h.L1Accesses = 0
	h.L1Hits = 0
	h.L2Accesses = 0
	h.L2Hits = 0
	h.L1Bytes = 0
	h.L2Bytes = 0
}
