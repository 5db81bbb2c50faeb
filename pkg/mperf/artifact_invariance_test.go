package mperf_test

import (
	"encoding/json"
	"testing"

	"mperf/internal/workloads"
	"mperf/pkg/mperf"
	"mperf/pkg/mperf/faultinject"
)

// storeCache returns a fresh program cache with an artifact store
// rooted at dir attached.
func storeCache(t *testing.T, dir string) *mperf.ProgramCache {
	t.Helper()
	cache := mperf.NewProgramCache()
	if err := cache.SetArtifactDir(dir); err != nil {
		t.Fatal(err)
	}
	return cache
}

// catalogDiskProfileJSON runs every collector mode over one workload
// through a cache backed by dir, returning the canonical Profile JSON
// with the compile accounting and the hierarchical roofline stripped.
// The first call against a dir compiles and persists; subsequent calls
// with fresh caches load the serialized artifact from disk.
func catalogDiskProfileJSON(t *testing.T, name, dir string) []byte {
	t.Helper()
	sess := catalogSession(t, name, mperf.WithProgramCache(storeCache(t, dir)))
	prof, err := sess.Run(mperf.MustCollectors("stat", "record", "roofline", "topdown")...)
	if err != nil {
		t.Fatalf("%s: run: %v", name, err)
	}
	if err := prof.Err(); err != nil {
		t.Fatalf("%s: collector errors: %v", name, err)
	}
	stripVolatile(prof)
	b, err := json.Marshal(prof)
	if err != nil {
		t.Fatalf("%s: marshal: %v", name, err)
	}
	return b
}

// TestArtifactInvariance is the differential acceptance check of the
// artifact store: for every workload in the catalog, a profile produced
// from a disk-loaded program (serialize → deserialize → re-plan) is
// bit-identical to one produced by a cold in-process compile — across
// counting (stat), overflow sampling (record), roofline and topdown
// collection. The per-instruction subtests also pin the disk-loaded
// profile to the digest recorded from the per-instruction loop (see
// TestSuperblockInvariance).
func TestArtifactInvariance(t *testing.T) {
	digests := catalogDigests(t)
	warm := map[string][]byte{}
	t.Run("superblocks", func(t *testing.T) {
		for _, name := range workloads.Names() {
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				cold := catalogDiskProfileJSON(t, name, dir)      // compiles, persists
				warm[name] = catalogDiskProfileJSON(t, name, dir) // fresh cache: loads from disk
				if string(cold) != string(warm[name]) {
					t.Errorf("profile from disk-loaded program diverges from cold compile\ncold: %s\nwarm: %s",
						cold, warm[name])
				}
			})
		}
	})
	t.Run("per-instruction", func(t *testing.T) {
		for _, name := range workloads.Names() {
			t.Run(name, func(t *testing.T) {
				if warm[name] == nil {
					t.Fatal("no disk-loaded profile: the superblocks subtest did not record one")
				}
				checkDigest(t, digests, "x60", name, warm[name])
			})
		}
	})
}

// TestArtifactWarmStartCompilesNothing pins the warm-start acceptance
// criterion at the session level for the whole catalog: with a
// populated artifact directory, a fresh process (fresh cache)
// profiles every workload with zero compiles and only disk hits.
func TestArtifactWarmStartCompilesNothing(t *testing.T) {
	dir := t.TempDir()
	runAll := func() *mperf.ProgramCache {
		cache := storeCache(t, dir)
		for _, name := range workloads.Names() {
			sess := catalogSession(t, name, mperf.WithProgramCache(cache))
			prof, err := sess.Run(mperf.MustCollectors("stat", "roofline")...)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := prof.Err(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		return cache
	}
	cold := runAll().Stats()
	if cold.Compiled == 0 || cold.DiskHits != 0 {
		t.Fatalf("cold catalog stats = %+v, want compiles only", cold)
	}
	warm := runAll().Stats()
	if warm.Compiled != 0 {
		t.Errorf("warm start compiled %d programs, want 0", warm.Compiled)
	}
	if warm.DiskHits != cold.Compiled {
		t.Errorf("warm start loaded %d artifacts, want every cold compile (%d)", warm.DiskHits, cold.Compiled)
	}
}

// TestCompileFaultNotMaskedByStaleArtifact pins the interplay between
// fault injection and persistence: after ProgramCache.Reset, an
// injected compile fault must actually fire — the on-disk artifact
// written before the Reset cannot satisfy the build behind the fault's
// back.
func TestCompileFaultNotMaskedByStaleArtifact(t *testing.T) {
	dir := t.TempDir()
	cache := storeCache(t, dir)
	sess := catalogSession(t, "dot", mperf.WithProgramCache(cache))
	if _, err := sess.Program(false, false); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Compiled != 1 {
		t.Fatalf("setup stats = %+v, want one compile persisted", st)
	}

	cache.Reset()
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	faultinject.Arm(faultinject.CompileFail)
	if _, err := sess.Program(false, false); err == nil {
		t.Fatal("injected compile fault was masked (served from a stale artifact)")
	}

	// With the fault cleared the same session recovers by recompiling.
	faultinject.Reset()
	if _, err := sess.Program(false, false); err != nil {
		t.Fatalf("recovery compile failed: %v", err)
	}
}
