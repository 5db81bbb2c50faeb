package mperf_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mperf/internal/workloads"
	"mperf/pkg/mperf"
)

// catalogSession opens a session for one catalog workload on the X60
// (see catalogSessionOn).
func catalogSession(t *testing.T, name string, opts ...mperf.Option) *mperf.Session {
	t.Helper()
	return catalogSessionOn(t, "x60", name, opts...)
}

// catalogSessionOn opens a session for one catalog workload on a
// platform with small, fully pinned parameters plus a sampling
// frequency high enough that the record collector fires plenty of
// overflow samples.
func catalogSessionOn(t *testing.T, plat, name string, opts ...mperf.Option) *mperf.Session {
	t.Helper()
	opts = append([]mperf.Option{
		mperf.WithElems(4096), mperf.WithMemsetWords(4096),
		mperf.WithMatmulSize(24, 8),
		mperf.WithSqliteConfig(workloads.SqliteConfig{
			ProgLen: 24, Rows: 8, Queries: 2, CellArea: 256, TextArea: 256, PatLen: 4,
		}),
		mperf.WithSampleFreq(40_000),
	}, opts...)
	sess, err := mperf.Open(plat, name, opts...)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return sess
}

// corpusPlatforms are the platforms the golden corpus covers: all
// four, so both in-order (X60, U74) and both out-of-order (i5, C910)
// pipelines are pinned.
var corpusPlatforms = []string{"x60", "i5", "c910", "u74"}

// corpusProfile runs stat, record, roofline and topdown on one session
// over a catalog workload on plat, compiling through cache, and returns
// the profile and the bytes testdata/catalog_digests.txt pins: its JSON
// with only the compile accounting (which depends on cache state)
// removed. Collector errors stay in the JSON (its errors list), so the
// corpus pins them too. It is the one builder of pinned profile bytes.
func corpusProfile(t *testing.T, plat, name string, cache *mperf.ProgramCache) (*mperf.Profile, []byte) {
	t.Helper()
	sess := catalogSessionOn(t, plat, name, mperf.WithProgramCache(cache))
	prof, err := sess.Run(mperf.MustCollectors("stat", "record", "roofline", "topdown")...)
	if err != nil {
		t.Fatalf("%s/%s: run: %v", plat, name, err)
	}
	prof.CompileStats = nil
	b, err := json.Marshal(prof)
	if err != nil {
		t.Fatalf("%s/%s: marshal: %v", plat, name, err)
	}
	return prof, b
}

// corpusDigests reads testdata/catalog_digests.txt: the sha256 of
// corpusProfile's bytes per "platform workload".
func corpusDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "catalog_digests.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	digests := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			t.Fatalf("malformed digest line %q", line)
		}
		digests[fields[0]+" "+fields[1]] = fields[2]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return digests
}

// checkCorpus compares a profile's pinned bytes with the corpus line
// for plat/name and reports the actual digest on a mismatch.
func checkCorpus(t *testing.T, digests map[string]string, plat, name string, pinned []byte) {
	t.Helper()
	sum := sha256.Sum256(pinned)
	got := hex.EncodeToString(sum[:])
	want, ok := digests[plat+" "+name]
	if !ok {
		t.Errorf("%s/%s: no corpus line (actual %s)", plat, name, got)
		return
	}
	if got != want {
		t.Errorf("%s/%s: profile digest %s, corpus %s\nprofile: %s", plat, name, got, want, pinned)
	}
}

// TestSuperblockInvariance is the catalog acceptance check of the
// region interpreter: for every workload in the catalog, on every
// platform, the Profile JSON across counting (stat), overflow sampling
// (record), roofline with its hierarchical view, and topdown collection
// must hash to its corpus line (see testdata/catalog_digests.txt for
// when and how the lines were recorded).
func TestSuperblockInvariance(t *testing.T) {
	digests := corpusDigests(t)
	if want := len(corpusPlatforms) * len(workloads.Names()); len(digests) != want {
		t.Errorf("%d corpus lines, want one per platform and workload (%d)", len(digests), want)
	}
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			for _, plat := range corpusPlatforms {
				_, pinned := corpusProfile(t, plat, name, mperf.NewProgramCache())
				checkCorpus(t, digests, plat, name, pinned)
			}
		})
	}
}

// TestProgramKeyCodegen pins that the plan key is versioned by the VM
// codegen, so a cached artifact is never reused across a codegen
// change: cg3 is the region loop as the only interpreter loop.
func TestProgramKeyCodegen(t *testing.T) {
	key := catalogSession(t, "dot").ProgramKey(false, false)
	if key.Codegen != "cg3" {
		t.Errorf("codegen tag = %q, want cg3", key.Codegen)
	}
	if !strings.Contains(key.String(), "cg3") {
		t.Errorf("plan key %q does not carry the codegen tag", key.String())
	}
}

// TestExecStatsCoverage checks the -vm-stats plumbing: the
// session-level accumulator reports steps and kernel activity after
// the collectors release their machines, and none of it leaks into the
// Profile JSON.
func TestExecStatsCoverage(t *testing.T) {
	var st mperf.ExecStats
	sess := catalogSession(t, "dot",
		mperf.WithProgramCache(mperf.NewProgramCache()), mperf.WithExecStats(&st))
	prof, err := sess.Run(mperf.MustCollectors("stat")...)
	if err != nil {
		t.Fatal(err)
	}
	if err := prof.Err(); err != nil {
		t.Fatal(err)
	}
	if st.TotalSteps.Load() == 0 || st.KernelHits.Load() == 0 || st.KernelIters.Load() == 0 {
		t.Fatalf("coverage counters empty: steps=%d kernel hits=%d iters=%d",
			st.TotalSteps.Load(), st.KernelHits.Load(), st.KernelIters.Load())
	}
	b, err := json.Marshal(prof)
	if err != nil {
		t.Fatal(err)
	}
	for _, needle := range []string{"fused", "vm_stats", "exec_stats"} {
		if strings.Contains(string(b), needle) {
			t.Errorf("profile JSON leaks %q: %s", needle, b)
		}
	}
}

// kernelCoverage is one catalog key's pinned ExecStats: loop-kernel
// entries, kernel iterations and interpreted steps.
type kernelCoverage struct{ hits, iters, steps uint64 }

// statCoverage pins a stat run's ExecStats per "platform workload" at
// catalogSessionOn sizing (the U74 counts the four events its two
// programmable counters allow). Stat runs the unvectorized build, so
// the platforms agree; the roofline keys below cover vectorized
// builds. The numbers were recorded at commit 5335099, before charge
// templates were built while planning.
var statCoverage = map[string]kernelCoverage{
	"c910 dot":          {1, 4096, 32770},
	"c910 gather":       {1, 4096, 36866},
	"c910 matmul":       {1728, 13824, 167165},
	"c910 memset":       {1, 4096, 20482},
	"c910 ptrchase":     {1, 4096, 20482},
	"c910 scatter":      {1, 4096, 36866},
	"c910 spmv":         {4096, 32768, 380930},
	"c910 sqlite":       {64, 1024, 15792},
	"c910 stencil":      {0, 0, 65506},
	"c910 stream_add":   {0, 0, 40962},
	"c910 stream_copy":  {1, 4096, 28674},
	"c910 stream_scale": {0, 0, 32770},
	"c910 triad":        {1, 4096, 40962},
	"i5 dot":            {1, 4096, 32770},
	"i5 gather":         {1, 4096, 36866},
	"i5 matmul":         {1728, 13824, 167165},
	"i5 memset":         {1, 4096, 20482},
	"i5 ptrchase":       {1, 4096, 20482},
	"i5 scatter":        {1, 4096, 36866},
	"i5 spmv":           {4096, 32768, 380930},
	"i5 sqlite":         {64, 1024, 15792},
	"i5 stencil":        {0, 0, 65506},
	"i5 stream_add":     {0, 0, 40962},
	"i5 stream_copy":    {1, 4096, 28674},
	"i5 stream_scale":   {0, 0, 32770},
	"i5 triad":          {1, 4096, 40962},
	"u74 dot":           {1, 4096, 32770},
	"u74 gather":        {1, 4096, 36866},
	"u74 matmul":        {1728, 13824, 167165},
	"u74 memset":        {1, 4096, 20482},
	"u74 ptrchase":      {1, 4096, 20482},
	"u74 scatter":       {1, 4096, 36866},
	"u74 spmv":          {4096, 32768, 380930},
	"u74 sqlite":        {64, 1024, 15792},
	"u74 stencil":       {0, 0, 65506},
	"u74 stream_add":    {0, 0, 40962},
	"u74 stream_copy":   {1, 4096, 28674},
	"u74 stream_scale":  {0, 0, 32770},
	"u74 triad":         {1, 4096, 40962},
	"x60 dot":           {1, 4096, 32770},
	"x60 gather":        {1, 4096, 36866},
	"x60 matmul":        {1728, 13824, 167165},
	"x60 memset":        {1, 4096, 20482},
	"x60 ptrchase":      {1, 4096, 20482},
	"x60 scatter":       {1, 4096, 36866},
	"x60 spmv":          {4096, 32768, 380930},
	"x60 sqlite":        {64, 1024, 15792},
	"x60 stencil":       {0, 0, 65506},
	"x60 stream_add":    {0, 0, 40962},
	"x60 stream_copy":   {1, 4096, 28674},
	"x60 stream_scale":  {0, 0, 32770},
	"x60 triad":         {1, 4096, 40962},
}

// TestKernelCoverage pins that the specialized loop kernels engage
// where they did when the numbers were recorded, for every catalog
// workload on every corpus platform. A kernel that stops matching
// (vocabulary drift, phi-copy hazard) leaves every profile digest
// intact, so it fails loudly here rather than showing up only as a
// benchmark regression.
func TestKernelCoverage(t *testing.T) {
	if want := len(corpusPlatforms) * len(workloads.Names()); len(statCoverage) != want {
		t.Errorf("%d coverage lines, want one per platform and workload (%d)", len(statCoverage), want)
	}
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			for _, plat := range corpusPlatforms {
				var st mperf.ExecStats
				opts := []mperf.Option{mperf.WithProgramCache(mperf.NewProgramCache()), mperf.WithExecStats(&st)}
				if plat == "u74" {
					opts = append(opts, mperf.WithStatEvents("cycles", "instructions", "branches", "branch-misses"))
				}
				prof, err := catalogSessionOn(t, plat, name, opts...).Run(mperf.MustCollectors("stat")...)
				if err != nil {
					t.Fatal(err)
				}
				if err := prof.Err(); err != nil {
					t.Fatalf("%s: %v", plat, err)
				}
				got := kernelCoverage{st.KernelHits.Load(), st.KernelIters.Load(), st.TotalSteps.Load()}
				if want := statCoverage[plat+" "+name]; got != want {
					t.Errorf("%s: kernel hits=%d iters=%d steps=%d, want %d/%d/%d\n\t%q: {%d, %d, %d},",
						plat, got.hits, got.iters, got.steps, want.hits, want.iters, want.steps,
						plat+" "+name, got.hits, got.iters, got.steps)
				}
			}
		})
	}
	// The Fig 4 keys: the roofline collector on the 96×96 blocked matmul.
	// Both phases of the two-phase run execute the same instructions and
	// kernels whether or not the instrumented phase is timed, so these
	// counts pin what runs independently of what is charged.
	for _, tc := range []struct {
		plat               string
		hits, iters, steps uint64
	}{
		{"x60", 55296, 442368, 10631144},
		{"c910", 55296, 442368, 10631144},
		{"i5", 6912, 221184, 2205416},
	} {
		t.Run("roofline/"+tc.plat, func(t *testing.T) {
			var st mperf.ExecStats
			sess := catalogSessionOn(t, tc.plat, "matmul", mperf.WithMatmulSize(96, 32),
				mperf.WithProgramCache(mperf.NewProgramCache()), mperf.WithExecStats(&st))
			prof, err := sess.Run(mperf.MustCollectors("roofline")...)
			if err != nil {
				t.Fatal(err)
			}
			if err := prof.Err(); err != nil {
				t.Fatal(err)
			}
			hits, iters, steps := st.KernelHits.Load(), st.KernelIters.Load(), st.TotalSteps.Load()
			if hits != tc.hits || iters != tc.iters || steps != tc.steps {
				t.Errorf("kernel hits=%d iters=%d steps=%d, want %d/%d/%d",
					hits, iters, steps, tc.hits, tc.iters, tc.steps)
			}
		})
	}
}
