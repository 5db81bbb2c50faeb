package mem

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// perLineAccess is the reference for Hierarchy.Access: every access,
// single-line ones included, goes through the per-line loop, so the
// single-line fast path in Access has something independent to agree
// with.
func perLineAccess(h *Hierarchy, now uint64, addr uint64, size int, write bool) AccessResult {
	if size <= 0 {
		return AccessResult{}
	}
	first := h.l1d.LineAddr(addr)
	last := h.l1d.LineAddr(addr + uint64(size) - 1)
	var res AccessResult
	for line := first; ; line += h.lineSize {
		r := h.accessLine(now, line, write)
		res.Latency = max(res.Latency, r.Latency)
		res.PostedLatency = max(res.PostedLatency, r.PostedLatency)
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

// diffCache names the first field in which two caches differ, or
// returns "".
func diffCache(name string, a, b *Cache) string {
	switch {
	case a.tick != b.tick:
		return fmt.Sprintf("%s tick %d != %d", name, a.tick, b.tick)
	case a.Accesses != b.Accesses || a.Misses != b.Misses || a.Evicts != b.Evicts:
		return fmt.Sprintf("%s accesses/misses/evicts %d/%d/%d != %d/%d/%d",
			name, a.Accesses, a.Misses, a.Evicts, b.Accesses, b.Misses, b.Evicts)
	case !slices.Equal(a.tags, b.tags):
		return name + " tags differ"
	case !slices.Equal(a.dirty, b.dirty):
		return name + " dirty bits differ"
	case !slices.Equal(a.used, b.used):
		return name + " LRU stamps differ"
	}
	return ""
}

// diffHierarchy names the first piece of state in which two
// hierarchies differ, or returns "".
func diffHierarchy(a, b *Hierarchy) string {
	type counters struct {
		WriteBacks, L1Accesses, L1Hits, L2Accesses, L2Hits, L1Bytes, L2Bytes uint64
	}
	ca := counters{a.WriteBacks, a.L1Accesses, a.L1Hits, a.L2Accesses, a.L2Hits, a.L1Bytes, a.L2Bytes}
	cb := counters{b.WriteBacks, b.L1Accesses, b.L1Hits, b.L2Accesses, b.L2Hits, b.L1Bytes, b.L2Bytes}
	if ca != cb {
		return fmt.Sprintf("counters %+v != %+v", ca, cb)
	}
	if d := diffCache("L1D", a.l1d, b.l1d); d != "" {
		return d
	}
	if d := diffCache("L2", a.l2, b.l2); d != "" {
		return d
	}
	if *a.dram != *b.dram {
		return fmt.Sprintf("DRAM %+v != %+v", *a.dram, *b.dram)
	}
	return ""
}

// TestAccessMatchesPerLineReference runs seeded traces of 1–64-byte
// reads and writes over L1-, L2- and DRAM-sized footprints through
// Access and through the per-line reference, and requires the same
// result and the same hierarchy state after every access. The machine's
// reference stepper charges through Access too, so this is the test
// that can see a fast-path bug.
func TestAccessMatchesPerLineReference(t *testing.T) {
	cfg := testHierarchyConfig()
	for _, fc := range []struct {
		name      string
		footprint int
	}{
		{"l1", cfg.L1D.SizeBytes / 2},
		{"l2", cfg.L2.SizeBytes / 2},
		{"dram", cfg.L2.SizeBytes * 8},
	} {
		name, footprint := fc.name, fc.footprint
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(footprint)))
			got, want := NewHierarchy(cfg), NewHierarchy(cfg)
			now := uint64(0)
			for i := 0; i < 20000; i++ {
				addr := uint64(rng.Intn(footprint))
				size := 1 + rng.Intn(64)
				write := rng.Intn(3) == 0
				g := got.Access(now, addr, size, write)
				w := perLineAccess(want, now, addr, size, write)
				if g != w {
					t.Fatalf("access %d (%#x, %d B, write=%v): result %+v, reference %+v",
						i, addr, size, write, g, w)
				}
				if d := diffHierarchy(got, want); d != "" {
					t.Fatalf("access %d (%#x, %d B, write=%v): %s", i, addr, size, write, d)
				}
				now += uint64(rng.Intn(8))
			}
			// Each footprint must exercise the level it is sized for.
			weak := got.L1Hits == 0 || got.L2Accesses == 0
			switch name {
			case "l2":
				weak = weak || got.L2Hits == 0
			case "dram":
				weak = weak || got.L2Hits == got.L2Accesses || got.WriteBacks == 0
			}
			if weak {
				t.Errorf("trace too weak: L1 %d/%d hits, L2 %d/%d hits, %d write-backs",
					got.L1Hits, got.L1Accesses, got.L2Hits, got.L2Accesses, got.WriteBacks)
			}
		})
	}
}
