package mperf_test

import (
	"path/filepath"
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

// TestArtifactInvariance is the differential acceptance check of the
// artifact store: for every workload in the catalog, on all four
// platforms, a profile produced from a disk-loaded program (serialize →
// deserialize → re-plan) must match the golden corpus line, as must the
// profile of the compile that persisted it — across counting (stat),
// overflow sampling (record), roofline and topdown collection. The
// superblocks/<workload> subtests compile into a fresh artifact
// directory per platform, and the per-instruction/<workload> subtests
// profile again from fresh caches that load those artifacts; both
// names are kept test IDs from before the corpus covered every
// platform.
func TestArtifactInvariance(t *testing.T) {
	digests := corpusDigests(t)
	root := t.TempDir() // outlives the subtests, unlike theirs
	dirs := map[string]string{}
	t.Run("superblocks", func(t *testing.T) {
		for _, name := range workloads.Names() {
			t.Run(name, func(t *testing.T) {
				for _, plat := range corpusPlatforms {
					dir := filepath.Join(root, plat+"-"+name)
					cache := storeCache(t, dir)
					_, pinned := corpusProfile(t, plat, name, cache) // compiles, persists
					checkCorpus(t, digests, plat, name, pinned)
					if st := cache.Stats(); st.Compiled == 0 || st.DiskHits != 0 {
						t.Fatalf("%s/%s: cold cache stats %+v, want compiles only", plat, name, st)
					}
					dirs[plat+" "+name] = dir
				}
			})
		}
	})
	t.Run("per-instruction", func(t *testing.T) {
		for _, name := range workloads.Names() {
			t.Run(name, func(t *testing.T) {
				for _, plat := range corpusPlatforms {
					dir, ok := dirs[plat+" "+name]
					if !ok {
						t.Fatalf("%s/%s: no artifact directory: the superblocks subtest did not fill one", plat, name)
					}
					cache := storeCache(t, dir)
					_, pinned := corpusProfile(t, plat, name, cache) // fresh cache: loads from disk
					checkCorpus(t, digests, plat, name, pinned)
					if st := cache.Stats(); st.Compiled != 0 || st.DiskHits == 0 {
						t.Errorf("%s/%s: warm cache stats %+v, want disk hits only", plat, name, st)
					}
				}
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
