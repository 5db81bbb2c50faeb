package mperf_test

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"mperf/internal/platform"
	"mperf/internal/workloads"
	"mperf/pkg/mperf"
	"mperf/pkg/mperf/faultinject"
)

func TestOpenResolvesRegistries(t *testing.T) {
	sess, err := mperf.Open("x60", "dot", mperf.WithElems(1024))
	if err != nil {
		t.Fatal(err)
	}
	if sess.Platform().Name != "SpacemiT X60" {
		t.Errorf("platform = %q", sess.Platform().Name)
	}
	if sess.Workload().Name != "dot" {
		t.Errorf("workload = %q", sess.Workload().Name)
	}
	// Aliases and full marketing names resolve too.
	for _, name := range []string{"x86", "i5", "Intel Core i5-1135G7"} {
		if _, err := platform.Lookup(name); err != nil {
			t.Errorf("Lookup(%q): %v", name, err)
		}
	}
}

func TestOpenUnknownNames(t *testing.T) {
	if _, err := mperf.Open("z80", "dot"); err == nil || !strings.Contains(err.Error(), "unknown platform") {
		t.Errorf("unknown platform error = %v", err)
	}
	if _, err := mperf.Open("x60", "fortune"); err == nil || !strings.Contains(err.Error(), "unknown workload") {
		t.Errorf("unknown workload error = %v", err)
	}
	if _, err := mperf.Open("x60", "dot", mperf.WithStatEvents("tachyons")); err == nil ||
		!strings.Contains(err.Error(), "unknown event") {
		t.Errorf("unknown event error = %v", err)
	}
	if _, err := mperf.Collectors("heisenberg"); err == nil || !strings.Contains(err.Error(), "unknown collector") {
		t.Errorf("unknown collector error = %v", err)
	}
}

// TestConfigIsTheOptions pins that WithConfig and the per-field
// setters describe one value: the same sizing gives the same program
// key, with the same params fingerprint as before Config existed, and
// Open rejects negative or unbuildable sizes.
func TestConfigIsTheOptions(t *testing.T) {
	sq := workloads.SqliteConfig{ProgLen: 16, Rows: 4, Queries: 1, CellArea: 256, TextArea: 256, PatLen: 4}
	viaSetters, err := mperf.Open("x60", "matmul", mperf.WithMatmulSize(16, 8), mperf.WithElems(512),
		mperf.WithMemsetWords(256), mperf.WithSqliteConfig(sq), mperf.WithSampleFreq(9000))
	if err != nil {
		t.Fatal(err)
	}
	viaConfig, err := mperf.Open("x60", "matmul", mperf.WithConfig(mperf.Config{
		SampleFreqHz: 9000, MatmulN: 16, MatmulTile: 8, Elems: 512, MemsetWords: 256, Sqlite: &sq,
	}))
	if err != nil {
		t.Fatal(err)
	}
	a, b := viaSetters.ProgramKey(true, false), viaConfig.ProgramKey(true, false)
	if a != b || viaConfig.SampleFreq() != 9000 {
		t.Errorf("WithConfig key %+v (freq %d), setters key %+v", b, viaConfig.SampleFreq(), a)
	}
	if want := "sqlite=16.4.1.256.256.4 n=16 tile=8 elems=512 memset=256"; a.Params != want {
		t.Errorf("params fingerprint %q, want %q", a.Params, want)
	}
	for name, opt := range map[string]mperf.Option{
		"elems":        mperf.WithElems(-1),
		"memset_words": mperf.WithMemsetWords(-8),
		"matmul":       mperf.WithMatmulSize(-16, 8),
		"sqlite":       mperf.WithSqliteConfig(workloads.SqliteConfig{Rows: 150, Queries: 3}),
	} {
		if _, err := mperf.Open("x60", "dot", opt); err == nil {
			t.Errorf("%s: bad sizing accepted", name)
		}
	}
}

func TestWorkloadRegistryBuildsEveryEntry(t *testing.T) {
	for _, name := range workloads.Names() {
		sess, err := mperf.Open("x60", name,
			mperf.WithElems(512), mperf.WithMemsetWords(512),
			mperf.WithMatmulSize(16, 8),
			mperf.WithSqliteConfig(workloads.SqliteConfig{
				ProgLen: 16, Rows: 4, Queries: 1, CellArea: 256, TextArea: 256, PatLen: 4,
			}))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m, err := sess.NewMachine()
		if err != nil {
			t.Fatalf("%s: machine: %v", name, err)
		}
		if err := sess.Workload().Run(m); err != nil {
			t.Errorf("%s: run: %v", name, err)
		}
	}
}

// TestSessionMultiCollector is the acceptance check: one session runs
// stat + record + topdown in a single call and the resulting profile
// round-trips through encoding/json.
func TestSessionMultiCollector(t *testing.T) {
	sess, err := mperf.Open("x60", "dot",
		mperf.WithElems(1<<16), mperf.WithSampleFreq(40_000))
	if err != nil {
		t.Fatal(err)
	}
	prof, err := sess.Run(mperf.MustCollectors("stat", "record", "topdown")...)
	if err != nil {
		t.Fatal(err)
	}
	if err := prof.Err(); err != nil {
		t.Fatalf("collector errors: %v", err)
	}
	if got := prof.Collectors; !reflect.DeepEqual(got, []string{"stat", "record", "topdown"}) {
		t.Errorf("collectors = %v", got)
	}
	if prof.Events["cycles"] == 0 || prof.Events["instructions"] == 0 {
		t.Errorf("stat events missing: %v", prof.Events)
	}
	if prof.IPC <= 0 {
		t.Errorf("IPC = %v", prof.IPC)
	}
	if prof.SampleCount == 0 || len(prof.Hotspots) == 0 {
		t.Errorf("record produced %d samples, %d hotspots", prof.SampleCount, len(prof.Hotspots))
	}
	if prof.SamplingLeader != "u_mode_cycle" {
		t.Errorf("X60 leader = %q, want the workaround's u_mode_cycle", prof.SamplingLeader)
	}
	if prof.TopDown == nil || prof.TopDown.Dominant == "" {
		t.Errorf("topdown missing: %+v", prof.TopDown)
	}
	if prof.Recording == nil {
		t.Error("raw recording not retained for renderers")
	}

	data, err := json.Marshal(prof)
	if err != nil {
		t.Fatal(err)
	}
	var back mperf.Profile
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	// The raw recording is deliberately not serialized.
	back.Recording = prof.Recording
	if !reflect.DeepEqual(prof, &back) {
		t.Errorf("JSON round trip diverged:\n got %+v\nwant %+v", &back, prof)
	}
}

func TestRooflineCollectorJSON(t *testing.T) {
	sess, err := mperf.Open("x60", "matmul", mperf.WithMatmulSize(32, 8))
	if err != nil {
		t.Fatal(err)
	}
	prof, err := sess.Run(mperf.MustCollectors("roofline")...)
	if err != nil {
		t.Fatal(err)
	}
	if err := prof.Err(); err != nil {
		t.Fatal(err)
	}
	r := prof.Roofline
	if r == nil || len(r.Points) == 0 {
		t.Fatalf("no roofline points: %+v", r)
	}
	if r.PeakGFLOPS != 25.6 {
		t.Errorf("X60 peak = %v, want 25.6", r.PeakGFLOPS)
	}
	if r.Model == nil {
		t.Error("render model not retained")
	}
	for _, pt := range r.Points {
		if pt.GFLOPS <= 0 || pt.AI <= 0 {
			t.Errorf("degenerate point %+v", pt)
		}
		if pt.Bound != "memory-bound" && pt.Bound != "compute-bound" {
			t.Errorf("point %q unclassified: %q", pt.Name, pt.Bound)
		}
	}
	var back mperf.Profile
	data, _ := json.Marshal(prof)
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Roofline == nil || !reflect.DeepEqual(back.Roofline.Points, r.Points) {
		t.Error("roofline points did not round-trip")
	}
}

// TestRooflineCountPanicIsContained: a panic in the roofline's
// counting phase, which runs on its own goroutine, is raised again on
// the session's goroutine, so Session.Run contains it as a
// *PanicError collector error instead of crashing the process, and the
// other collectors still populate.
func TestRooflineCountPanicIsContained(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	faultinject.Arm(faultinject.CountPanic, faultinject.Times(1))
	sess, err := mperf.Open("x60", "matmul", mperf.WithMatmulSize(32, 8))
	if err != nil {
		t.Fatal(err)
	}
	prof, err := sess.Run(mperf.MustCollectors("roofline", "stat")...)
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Errors) != 1 {
		t.Fatalf("profile errors = %+v, want exactly the roofline's", prof.Errors)
	}
	ce := prof.Errors[0]
	if ce.Collector != "roofline" || !ce.Panic || ce.Stack == "" ||
		!strings.Contains(ce.Message, faultinject.CountPanic) {
		t.Errorf("collector error %+v: want the roofline's contained count.panic", ce)
	}
	if prof.Roofline != nil || prof.IPC == 0 {
		t.Errorf("roofline %v, IPC %v: want no roofline and a populated stat", prof.Roofline, prof.IPC)
	}
	if got := faultinject.FireCount(faultinject.CountPanic); got != 1 {
		t.Errorf("count.panic fired %d times, want 1", got)
	}
}

// TestRunMatrix asserts the sweep contract: every platform × workload
// cell is populated or carries a typed error, and the U74's missing
// overflow support fails its record collector gracefully without
// aborting the sweep.
func TestRunMatrix(t *testing.T) {
	res, err := mperf.RunMatrix(mperf.MatrixSpec{
		Workloads:  []string{"dot", "memset"},
		Collectors: []string{"stat", "record"},
		Options: []mperf.Option{
			mperf.WithElems(4096),
			mperf.WithMemsetWords(4096),
			mperf.WithSampleFreq(200_000),
			// Four events fit even the U74's two programmable counters
			// (cycles/instret are fixed); the default six would EBUSY there.
			mperf.WithStatEvents("cycles", "instructions", "branches", "branch-misses"),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantCells := len(platform.Names()) * 2
	if len(res.Cells) != wantCells {
		t.Fatalf("got %d cells, want %d", len(res.Cells), wantCells)
	}
	for _, cell := range res.Cells {
		if cell.Error != "" {
			t.Errorf("%s × %s: session failed: %s", cell.Platform, cell.Workload, cell.Error)
			continue
		}
		if cell.Profile == nil {
			t.Errorf("%s × %s: cell not populated", cell.Platform, cell.Workload)
			continue
		}
		if cell.Profile.Events["cycles"] == 0 {
			t.Errorf("%s × %s: stat did not count", cell.Platform, cell.Workload)
		}
		for _, e := range cell.Profile.Errors {
			if e.Collector == "" || e.Message == "" {
				t.Errorf("%s × %s: untyped error %+v", cell.Platform, cell.Workload, e)
			}
		}
		if cell.Platform == "u74" {
			// No overflow interrupts: sampling must fail as a typed
			// per-collector error, not abort the sweep.
			if !cell.Profile.Failed("record") {
				t.Errorf("u74 × %s: record unexpectedly succeeded", cell.Workload)
			}
		} else if cell.Profile.Failed("record") {
			t.Errorf("%s × %s: record failed: %v", cell.Platform, cell.Workload, cell.Profile.Err())
		}
	}
	if _, ok := res.Cell("u74", "dot"); !ok {
		t.Error("Cell lookup by names failed")
	}
}

func TestRunMatrixValidatesNames(t *testing.T) {
	if _, err := mperf.RunMatrix(mperf.MatrixSpec{
		Platforms: []string{"z80"}, Collectors: []string{"stat"},
	}); err == nil {
		t.Error("unknown platform not rejected")
	}
	if _, err := mperf.RunMatrix(mperf.MatrixSpec{
		Workloads: []string{"dot"}, Collectors: []string{"heisenberg"},
	}); err == nil {
		t.Error("unknown collector not rejected")
	}
}
