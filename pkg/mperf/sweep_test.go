package mperf_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mperf/pkg/mperf"
)

// sweepSpec is a small but multi-cell matrix (2 platforms × 3
// workloads) used by the sharding tests; cache isolates the spec's
// compiles from the process-wide default.
func sweepSpec(cache *mperf.ProgramCache) mperf.MatrixSpec {
	return mperf.MatrixSpec{
		Platforms:  []string{"x60", "i5"},
		Workloads:  []string{"dot", "triad", "memset"},
		Collectors: []string{"stat"},
		Options:    smallOpts(cache),
	}
}

// matrixJSON renders a MatrixResult exactly as the miniperf matrix
// verb does, with per-cell CompileStats stripped (the one
// scheduling-dependent field; sweeps never materialize it).
func matrixJSON(t *testing.T, res *mperf.MatrixResult) []byte {
	t.Helper()
	for i := range res.Cells {
		if res.Cells[i].Profile != nil {
			res.Cells[i].Profile.CompileStats = nil
		}
	}
	var buf bytes.Buffer
	if err := mperf.WriteJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestShardedSweepMatchesRunMatrix is the tier-2 acceptance check:
// two shards of a sweep, run as if by separate processes (private
// caches), merge to bytes identical to a single-process RunMatrix of
// the same spec — and to a single-shard sweep of the same spec.
func TestShardedSweepMatchesRunMatrix(t *testing.T) {
	res, err := mperf.RunMatrix(sweepSpec(mperf.NewProgramCache()))
	if err != nil {
		t.Fatal(err)
	}
	want := matrixJSON(t, res)

	shardDir := t.TempDir()
	var assigned, ran int
	for shard := 0; shard < 2; shard++ {
		rep, err := mperf.RunSweep(context.Background(), sweepSpec(mperf.NewProgramCache()), mperf.SweepConfig{
			Dir: shardDir, ShardIndex: shard, ShardCount: 2,
		})
		if err != nil {
			t.Fatalf("shard %d: %v", shard, err)
		}
		if rep.Total != 6 {
			t.Fatalf("shard %d: total = %d, want 6", shard, rep.Total)
		}
		assigned += rep.Assigned
		ran += rep.Ran
	}
	if assigned != 6 || ran != 6 {
		t.Fatalf("shards assigned %d / ran %d cells, want all 6 exactly once", assigned, ran)
	}
	merged, err := mperf.MergeSweep(shardDir)
	if err != nil {
		t.Fatal(err)
	}
	if got := matrixJSON(t, merged); !bytes.Equal(got, want) {
		t.Errorf("2-shard merge diverges from RunMatrix:\nwant: %s\ngot:  %s", want, got)
	}

	soloDir := t.TempDir()
	if _, err := mperf.RunSweep(context.Background(), sweepSpec(mperf.NewProgramCache()), mperf.SweepConfig{Dir: soloDir}); err != nil {
		t.Fatal(err)
	}
	solo, err := mperf.MergeSweep(soloDir)
	if err != nil {
		t.Fatal(err)
	}
	if got := matrixJSON(t, solo); !bytes.Equal(got, want) {
		t.Errorf("single-shard sweep diverges from RunMatrix")
	}
}

// TestShardedSweepSharesArtifactStore pins that shards pointed at one
// cache directory reuse each other's compiles: the second shard's
// cells load from disk (its private in-memory cache starts cold) and
// still merge byte-identically.
func TestShardedSweepSharesArtifactStore(t *testing.T) {
	res, err := mperf.RunMatrix(sweepSpec(mperf.NewProgramCache()))
	if err != nil {
		t.Fatal(err)
	}
	want := matrixJSON(t, res)

	cacheDir := t.TempDir()
	sweepDir := t.TempDir()
	shardSpec := func() mperf.MatrixSpec {
		return sweepSpec(storeCache(t, cacheDir))
	}
	for shard := 0; shard < 2; shard++ {
		if _, err := mperf.RunSweep(context.Background(), shardSpec(), mperf.SweepConfig{
			Dir: sweepDir, ShardIndex: shard, ShardCount: 2,
		}); err != nil {
			t.Fatalf("shard %d: %v", shard, err)
		}
	}
	merged, err := mperf.MergeSweep(sweepDir)
	if err != nil {
		t.Fatal(err)
	}
	if got := matrixJSON(t, merged); !bytes.Equal(got, want) {
		t.Errorf("store-backed sharded merge diverges from RunMatrix")
	}

	// A fresh warm shard over the now-populated store compiles nothing.
	warmCache := storeCache(t, cacheDir)
	spec := sweepSpec(warmCache)
	warmDir := t.TempDir()
	if _, err := mperf.RunSweep(context.Background(), spec, mperf.SweepConfig{Dir: warmDir}); err != nil {
		t.Fatal(err)
	}
	if st := warmCache.Stats(); st.Compiled != 0 || st.DiskHits == 0 {
		t.Errorf("warm sweep stats = %+v, want zero compiles and disk hits", st)
	}
}

// cancelAfter is a context that reports cancellation after its Err
// method has been consulted n times — a deterministic stand-in for a
// crash or SIGTERM landing mid-sweep (RunSweep checks the context
// once per assigned cell).
type cancelAfter struct {
	context.Context
	remaining atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func (c *cancelAfter) Deadline() (time.Time, bool) { return time.Time{}, false }

// TestSweepResume pins crash recovery: a sweep interrupted after two
// cells leaves those cells materialized; a Resume run skips them,
// completes the rest, and the merge is byte-identical to an
// uninterrupted sweep.
func TestSweepResume(t *testing.T) {
	dir := t.TempDir()
	spec := sweepSpec(mperf.NewProgramCache())

	ctx := &cancelAfter{Context: context.Background()}
	ctx.remaining.Store(2)
	rep, err := mperf.RunSweep(ctx, spec, mperf.SweepConfig{Dir: dir})
	if err != context.Canceled {
		t.Fatalf("interrupted sweep returned %v, want context.Canceled", err)
	}
	if rep.Ran != 2 {
		t.Fatalf("interrupted sweep ran %d cells, want 2", rep.Ran)
	}
	if _, err := mperf.MergeSweep(dir); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("partial sweep merged cleanly: %v", err)
	}

	rep, err = mperf.RunSweep(context.Background(), sweepSpec(mperf.NewProgramCache()), mperf.SweepConfig{Dir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resumed != 2 || rep.Ran != 4 {
		t.Fatalf("resume report = %+v, want 2 resumed / 4 ran", rep)
	}

	res, err := mperf.RunMatrix(sweepSpec(mperf.NewProgramCache()))
	if err != nil {
		t.Fatal(err)
	}
	want := matrixJSON(t, res)
	merged, err := mperf.MergeSweep(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := matrixJSON(t, merged); !bytes.Equal(got, want) {
		t.Errorf("resumed sweep diverges from RunMatrix")
	}

	// Resuming a complete sweep is a no-op.
	rep, err = mperf.RunSweep(context.Background(), sweepSpec(mperf.NewProgramCache()), mperf.SweepConfig{Dir: dir, Resume: true})
	if err != nil || rep.Ran != 0 || rep.Resumed != 6 {
		t.Fatalf("re-resume report = %+v err=%v, want all 6 resumed", rep, err)
	}
}

// TestSweepResumeRerunsTruncatedCell pins that a cell file a crash
// left half-written (not valid JSON for the right cell) is re-run on
// resume rather than trusted.
func TestSweepResumeRerunsTruncatedCell(t *testing.T) {
	dir := t.TempDir()
	spec := sweepSpec(mperf.NewProgramCache())
	if _, err := mperf.RunSweep(context.Background(), spec, mperf.SweepConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "cell__*.json"))
	if err != nil || len(entries) != 6 {
		t.Fatalf("want 6 cell files, got %d (%v)", len(entries), err)
	}
	data, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(entries[0], data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := mperf.RunSweep(context.Background(), sweepSpec(mperf.NewProgramCache()), mperf.SweepConfig{Dir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ran != 1 || rep.Resumed != 5 {
		t.Fatalf("resume after truncation = %+v, want exactly the damaged cell re-run", rep)
	}
	if _, err := mperf.MergeSweep(dir); err != nil {
		t.Fatalf("merge after repair: %v", err)
	}
}

// TestSweepManifestMismatch pins the shared-directory guard: a second
// shard, or a resume, arriving with a different matrix spec or a
// different configuration under the same names is rejected, and so is
// a manifest that predates the pinned config.
func TestSweepManifestMismatch(t *testing.T) {
	dir := t.TempDir()
	if _, err := mperf.RunSweep(context.Background(), sweepSpec(mperf.NewProgramCache()), mperf.SweepConfig{
		Dir: dir, ShardIndex: 0, ShardCount: 2,
	}); err != nil {
		t.Fatal(err)
	}
	otherNames := sweepSpec(mperf.NewProgramCache())
	otherNames.Workloads = []string{"dot"}
	otherSize := sweepSpec(mperf.NewProgramCache())
	otherSize.Options = append(otherSize.Options, mperf.WithElems(1024))
	for _, tc := range []struct {
		name string
		spec mperf.MatrixSpec
		cfg  mperf.SweepConfig
	}{
		{"names", otherNames, mperf.SweepConfig{Dir: dir}},
		{"sizing, second shard", otherSize, mperf.SweepConfig{Dir: dir, ShardIndex: 1, ShardCount: 2}},
		{"sizing, resume", otherSize, mperf.SweepConfig{Dir: dir, ShardIndex: 0, ShardCount: 2, Resume: true}},
	} {
		if _, err := mperf.RunSweep(context.Background(), tc.spec, tc.cfg); err == nil ||
			!strings.Contains(err.Error(), "different matrix spec") {
			t.Errorf("%s: mismatched spec accepted: %v", tc.name, err)
		}
	}
	if _, err := mperf.RunSweep(context.Background(), sweepSpec(mperf.NewProgramCache()), mperf.SweepConfig{
		Dir: dir, ShardIndex: 0, ShardCount: 2, Resume: true,
	}); err != nil {
		t.Fatalf("matching resume rejected: %v", err)
	}

	legacy := t.TempDir()
	manifest := `{"platforms":["x60","i5"],"workloads":["dot","triad","memset"],"collectors":["stat"]}`
	if err := os.WriteFile(filepath.Join(legacy, "manifest.json"), []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := mperf.RunSweep(context.Background(), sweepSpec(mperf.NewProgramCache()), mperf.SweepConfig{
		Dir: legacy, Resume: true,
	}); err == nil || !strings.Contains(err.Error(), "different matrix spec") {
		t.Errorf("manifest without a config entry accepted: %v", err)
	}
}

// TestSweepShardValidation pins the shard-argument errors.
func TestSweepShardValidation(t *testing.T) {
	spec := sweepSpec(mperf.NewProgramCache())
	if _, err := mperf.RunSweep(context.Background(), spec, mperf.SweepConfig{}); err == nil {
		t.Fatal("empty sweep dir accepted")
	}
	if _, err := mperf.RunSweep(context.Background(), spec, mperf.SweepConfig{Dir: t.TempDir(), ShardIndex: 2, ShardCount: 2}); err == nil {
		t.Fatal("out-of-range shard index accepted")
	}
}

// TestMatrixSizingValidated pins that a matrix resolves its workloads
// at the run's sizing: a size a workload refuses (triad steps by 16)
// fails validation, RunMatrix and RunSweep up front, like Open, while
// a workload that takes any size (gather) runs at it.
func TestMatrixSizingValidated(t *testing.T) {
	spec := func(workload string) mperf.MatrixSpec {
		return mperf.MatrixSpec{Platforms: []string{"x60"}, Workloads: []string{workload},
			Collectors: []string{"stat"}, Options: append(smallOpts(mperf.NewProgramCache()), mperf.WithElems(1001))}
	}
	bad := spec("triad")
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "16") {
		t.Errorf("Validate: triad at 1001 elements: err = %v, want a multiple-of-16 refusal", err)
	}
	if _, err := mperf.RunMatrix(bad); err == nil {
		t.Error("RunMatrix accepted triad at 1001 elements")
	}
	dir := t.TempDir()
	if _, err := mperf.RunSweep(context.Background(), bad, mperf.SweepConfig{Dir: dir}); err == nil {
		t.Error("RunSweep accepted triad at 1001 elements")
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("refused sweep wrote %d files", len(entries))
	}

	good := spec("gather")
	if err := good.Validate(); err != nil {
		t.Fatalf("Validate: gather at 1001 elements: %v", err)
	}
	res, err := mperf.RunMatrix(good)
	if err != nil {
		t.Fatal(err)
	}
	if c := res.Cells[0]; c.Error != "" || c.Profile == nil {
		t.Fatalf("gather at 1001 elements: cell error %q", c.Error)
	}
	rep, err := mperf.RunSweep(context.Background(), good, mperf.SweepConfig{Dir: t.TempDir()})
	if err != nil || rep.Ran != 1 {
		t.Fatalf("RunSweep of gather at 1001 elements: %+v, %v", rep, err)
	}
}
