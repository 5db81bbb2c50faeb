package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"

	"mperf/internal/platform"
	"mperf/internal/workloads"
	"mperf/pkg/mperf"
)

// opKey is one entry of a workload's finite catalog: everything that
// decides what an op computes. The seed only orders keys.
type opKey struct {
	Platform   string
	Workload   string
	Collectors []string
	Elems      int
	opts       []mperf.Option
}

// ID names the key in golden.json and in failure messages.
func (k opKey) ID() string {
	id := k.Platform + "/" + k.Workload
	if k.Elems > 0 {
		id += fmt.Sprintf("/%d", k.Elems)
	}
	return id + "/" + strings.Join(k.Collectors, "+")
}

// open starts a session for the key on the given program cache.
func (k opKey) open(cache *mperf.ProgramCache, extra ...mperf.Option) (*mperf.Session, error) {
	opts := append(append(append([]mperf.Option(nil), k.opts...), mperf.WithProgramCache(cache)), extra...)
	return mperf.Open(k.Platform, k.Workload, opts...)
}

func (k opKey) collectors() []mperf.Collector { return mperf.MustCollectors(k.Collectors...) }

func (k opKey) uses(collector string) bool {
	for _, c := range k.Collectors {
		if c == collector {
			return true
		}
	}
	return false
}

// table2Sqlite is the paper's Table 2 sqlite sizing, as the repo's
// evaluation benches use it.
var table2Sqlite = workloads.SqliteConfig{
	ProgLen: 64, Rows: 150, Queries: 3, CellArea: 4096, TextArea: 4096, PatLen: 6,
}

// sampleFreq scales the 40 kHz sampling rate with the core clock, as the
// Table 2 reproduction does, so every platform collects a comparable
// number of samples.
func sampleFreq(platformName string) uint64 {
	p, err := platform.Lookup(platformName)
	if err != nil {
		panic(err) // catalog names are constants
	}
	return uint64(40_000 * p.Core.FreqHz / 1.6e9)
}

func fig4Catalog() []opKey {
	var keys []opKey
	for _, p := range []string{"x60", "c910", "i5"} {
		keys = append(keys, opKey{Platform: p, Workload: "matmul", Collectors: []string{"roofline"},
			opts: []mperf.Option{mperf.WithMatmulSize(96, 32), mperf.WithHierarchicalRoofline()}})
	}
	return keys
}

func table2Catalog() []opKey {
	var keys []opKey
	for _, p := range []string{"x60", "i5"} {
		keys = append(keys, opKey{Platform: p, Workload: "sqlite", Collectors: []string{"record"},
			opts: []mperf.Option{mperf.WithSqliteConfig(table2Sqlite), mperf.WithSampleFreq(sampleFreq(p))}})
	}
	return keys
}

// Working-set classes of membound-sweep, in elements: L1-resident,
// L2-resident, and beyond L2 on both platforms.
var memClasses = []int{1 << 11, 1 << 14, 1 << 17}

var (
	memPlatforms  = []string{"x60", "c910"}
	memCollectors = []string{"stat", "topdown", "roofline"}
)

// memWorkloads lists a class's kernels. spmv is left out beyond L2,
// where one cell costs seconds and would swamp the round.
func memWorkloads(elems int) []string {
	wls := []string{"stream_copy", "stream_add", "gather", "spmv", "ptrchase"}
	if elems >= 1<<17 {
		wls = []string{"stream_copy", "stream_add", "gather", "ptrchase"}
	}
	return wls
}

func memOptions(elems int) []mperf.Option {
	return []mperf.Option{mperf.WithElems(elems), mperf.WithHierarchicalRoofline()}
}

// memCatalog is class-major, then platform-major like a sweep's cells.
func memCatalog(classes []int) []opKey {
	var keys []opKey
	for _, e := range classes {
		for _, p := range memPlatforms {
			for _, w := range memWorkloads(e) {
				keys = append(keys, opKey{Platform: p, Workload: w, Collectors: memCollectors, Elems: e, opts: memOptions(e)})
			}
		}
	}
	return keys
}

var (
	daemonWorkloads = []string{"dot", "triad", "stencil", "stream_copy", "gather", "ptrchase"}
	daemonElems     = []int{2048, 8192}
)

func daemonCatalog(elems []int) []opKey {
	var keys []opKey
	for _, c := range []string{"stat", "topdown"} {
		for _, w := range daemonWorkloads {
			for _, p := range []string{"x60", "c910", "i5"} {
				for _, e := range elems {
					keys = append(keys, opKey{Platform: p, Workload: w, Collectors: []string{c}, Elems: e,
						opts: []mperf.Option{mperf.WithElems(e)}})
				}
			}
		}
	}
	return keys
}

// reference is a key's expected output, computed in process before
// anything is timed.
type reference struct {
	digest  string
	steps   uint64 // simulated instructions one op of this key executes
	profile *mperf.Profile
}

// profileJSON is the byte form an op's output is checked in: the
// profile as WriteJSON renders it, minus CompileStats, which records
// which cache tier served the program rather than what was computed.
func profileJSON(p *mperf.Profile) ([]byte, error) {
	c := *p
	c.CompileStats = nil
	var b bytes.Buffer
	if err := mperf.WriteJSON(&b, &c); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

func digestOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

// computeReferences runs every key once in process on a private cache,
// counting the simulated instructions each op executes.
func computeReferences(keys []opKey) ([]reference, error) {
	refs := make([]reference, len(keys))
	cache := mperf.NewProgramCache()
	tasks := make([]func() error, len(keys))
	for i, k := range keys {
		tasks[i] = func() error {
			var st mperf.ExecStats
			sess, err := k.open(cache, mperf.WithExecStats(&st))
			if err != nil {
				return err
			}
			prof, err := sess.Run(k.collectors()...)
			if err != nil {
				return err
			}
			if err := prof.Err(); err != nil {
				return fmt.Errorf("reference %s: %w", k.ID(), err)
			}
			js, err := profileJSON(prof)
			if err != nil {
				return err
			}
			refs[i] = reference{digest: digestOf(js), steps: st.TotalSteps.Load(), profile: prof}
			return nil
		}
	}
	if err := mperf.Parallel(0, tasks...); err != nil {
		return nil, err
	}
	return refs, nil
}

// goldenFile maps workload → key ID → output digest.
type goldenFile map[string]map[string]string

//go:embed golden.json
var goldenJSON []byte

var loadGolden = sync.OnceValues(func() (goldenFile, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
})

// goldenMismatches lists the keys whose reference digest differs from
// the committed golden (a missing golden counts as a mismatch).
func goldenMismatches(workload string, keys []opKey, refs []reference) ([]string, error) {
	g, err := loadGolden()
	if err != nil {
		return nil, err
	}
	var out []string
	for i, k := range keys {
		if g[workload][k.ID()] != refs[i].digest {
			out = append(out, k.ID())
		}
	}
	return out, nil
}

// writeGolden recomputes every catalog's digests and rewrites
// golden.json in the benchmark's directory. Goldens change only in a
// change to the benchmark itself.
func writeGolden(path string) error {
	g := goldenFile{}
	for _, def := range workloadDefs {
		keys := def.catalog(false)
		refs, err := computeReferences(keys)
		if err != nil {
			return err
		}
		g[def.name] = map[string]string{}
		for i, k := range keys {
			g[def.name][k.ID()] = refs[i].digest
		}
	}
	var b bytes.Buffer
	if err := mperf.WriteJSON(&b, g); err != nil {
		return err
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// sortedKeys returns a map's keys in order, for stable printing.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
