package miniperf

import (
	"fmt"
	"reflect"
	"testing"

	"mperf/internal/ir"
	"mperf/internal/isa"
	"mperf/internal/machine"
	"mperf/internal/platform"
	"mperf/internal/vm"
	"mperf/internal/workloads"
)

// Event sets the counting collectors use: the `miniperf stat` default,
// the level-1 top-down set, and the x86 raw set of the PMU-based
// roofline.
var (
	defaultStatSet = []isa.EventCode{isa.EventCycles, isa.EventInstructions,
		isa.EventBranchInstructions, isa.EventBranchMisses,
		isa.EventCacheReferences, isa.EventCacheMisses}
	topdownSet = []isa.EventCode{isa.EventCycles, isa.EventInstructions,
		isa.EventBranchMisses, isa.EventStalledCycles}
	x86RawSet = []isa.EventCode{isa.RawEvent(isa.X86EventFPArith),
		isa.RawEvent(isa.X86EventLoads), isa.RawEvent(isa.X86EventStores)}
)

// smallParams sizes every catalog workload to a few thousand elements.
var smallParams = workloads.Params{
	Sqlite:  &workloads.SqliteConfig{ProgLen: 16, Rows: 4, Queries: 1, CellArea: 256, TextArea: 256, PatLen: 4},
	MatmulN: 16, MatmulTile: 8, Elems: 2048, MemsetWords: 2048,
}

// instantiate compiles a catalog workload and returns a seeded machine plus a function that runs the entry point.
func instantiate(t *testing.T, name string, p *platform.Platform) (*vm.Machine, func() error) {
	t.Helper()
	return instantiateSized(t, name, smallParams, p)
}

// instantiateSized is instantiate at the given sizing.
func instantiateSized(t *testing.T, name string, params workloads.Params, p *platform.Platform) (*vm.Machine, func() error) {
	t.Helper()
	spec, err := workloads.Lookup(name, params)
	if err != nil {
		t.Fatal(err)
	}
	mod := ir.NewModule(name)
	if err := spec.Build(mod); err != nil {
		t.Fatal(err)
	}
	prog, err := vm.Compile(mod)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.NewMachine(prog, p)
	if spec.Seed != nil {
		if err := spec.Seed(m); err != nil {
			t.Fatal(err)
		}
	}
	return m, func() error { return spec.Run(m) }
}

// defaultSetFromStats derives what the default stat set must read from
// the core statistics charged over the same interval.
func defaultSetFromStats(after, before machine.Stats) map[string]uint64 {
	return map[string]uint64{
		"cycles":           after.Cycles - before.Cycles,
		"instructions":     after.Instret - before.Instret,
		"branches":         after.Branches - before.Branches,
		"branch-misses":    after.Mispredicts - before.Mispredicts,
		"cache-references": after.Loads + after.Stores - before.Loads - before.Stores,
		"cache-misses":     after.L1DMisses - before.L1DMisses,
	}
}

// perInstructionTriad holds what the removed per-instruction
// interpreter loop read for triad on the X60 in the two tests below,
// recorded while it and the region loop still agreed. The
// per-instruction subtests pin the remaining loop to it.
var perInstructionTriad = struct {
	secondRun, trapped map[string]uint64
}{
	secondRun: map[string]uint64{"cycles": 22536, "instructions": 20482, "branches": 2048,
		"branch-misses": 1, "cache-references": 6144, "cache-misses": 0},
	trapped: map[string]uint64{"cycles": 11441, "instructions": 4991, "branches": 499,
		"branch-misses": 0, "cache-references": 1497, "cache-misses": 96},
}

// TestStatAfterEarlierRun pins the refresh of the core's cached watch
// mask when a run starts: a Stat on a machine that already ran quietly
// must count the second run, not read zero.
func TestStatAfterEarlierRun(t *testing.T) {
	m, run := instantiate(t, "triad", platform.X60())
	if err := run(); err != nil {
		t.Fatal(err)
	}
	tool, err := Attach(m)
	if err != nil {
		t.Fatal(err)
	}
	before := m.Hart().Core.Stats()
	res, err := tool.Stat(defaultStatSet, run)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("superblocks", func(t *testing.T) {
		want := defaultSetFromStats(m.Hart().Core.Stats(), before)
		if want["cycles"] == 0 {
			t.Fatal("second run charged no cycles")
		}
		if !reflect.DeepEqual(res.Values, want) {
			t.Errorf("stat after an earlier run = %v, core charged %v", res.Values, want)
		}
	})
	t.Run("per-instruction", func(t *testing.T) {
		if want := perInstructionTriad.secondRun; !reflect.DeepEqual(res.Values, want) {
			t.Errorf("stat after an earlier run = %v, per-instruction loop read %v", res.Values, want)
		}
	})
}

// TestStatTrappedRunMatchesStats pins the flush on trap: the partial
// counts a Stat reports for a run that exhausts its step budget must
// equal what the core charged before the trap, both for a time-only
// set and for the default set.
func TestStatTrappedRunMatchesStats(t *testing.T) {
	sets := map[string][]isa.EventCode{
		"time":    {isa.EventCycles, isa.EventInstructions},
		"default": defaultStatSet,
	}
	for setName, set := range sets {
		m, run := instantiate(t, "triad", platform.X60())
		m.MaxSteps = 5000
		tool, err := Attach(m)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tool.Stat(set, run)
		if err == nil {
			t.Fatalf("%s: run within a 5000-step budget did not trap", setName)
		}
		t.Run("superblocks/"+setName, func(t *testing.T) {
			charged := defaultSetFromStats(m.Hart().Core.Stats(), machine.Stats{})
			for label, got := range res.Values {
				if got != charged[label] {
					t.Errorf("trapped stat %s = %d, core charged %d", label, got, charged[label])
				}
			}
		})
		t.Run("per-instruction/"+setName, func(t *testing.T) {
			for label, got := range res.Values {
				if want := perInstructionTriad.trapped[label]; got != want {
					t.Errorf("trapped stat %s = %d, per-instruction loop read %d", label, got, want)
				}
			}
		})
	}
}

// perUopSink hides the PMU's SamplingActive, so the core must assume a
// sampler is armed and deliver every non-time signal one uop at a time.
type perUopSink struct{ machine.EventSink }

// TestDeferredStatMatchesPerUop is the catalog-level differential check
// of deferred counter delivery: on every platform and workload, each
// counting event set reads the same values (or fails the same way)
// whether the PMU is fed from the core's flush marks or one batch per
// uop.
func TestDeferredStatMatchesPerUop(t *testing.T) {
	sets := map[string][]isa.EventCode{"default": defaultStatSet, "topdown": topdownSet, "x86raw": x86RawSet}
	compared := 0
	for _, p := range platform.Catalog() {
		for _, name := range workloads.Names() {
			for setName, set := range sets {
				stat := func(perUop bool) (*StatResult, machine.Stats, error) {
					m, run := instantiate(t, name, p)
					if perUop {
						m.Hart().Core.SetSink(perUopSink{m.Hart().PMU})
					}
					tool, err := Attach(m)
					if err != nil {
						t.Fatal(err)
					}
					res, err := tool.Stat(set, run)
					return res, m.Hart().Core.Stats(), err
				}
				label := fmt.Sprintf("%s/%s/%s", p.Name, name, setName)
				got, st, gotErr := stat(false)
				want, _, wantErr := stat(true)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Errorf("%s: deferred error %v, per-uop error %v", label, gotErr, wantErr)
					continue
				}
				if gotErr != nil {
					continue
				}
				if !reflect.DeepEqual(got.Values, want.Values) {
					t.Errorf("%s: deferred %v, per-uop %v", label, got.Values, want.Values)
				}
				if c, ok := got.Values["cycles"]; ok && c != st.Cycles {
					t.Errorf("%s: cycles %d, core charged %d", label, c, st.Cycles)
				}
				compared++
			}
		}
	}
	if compared < len(workloads.Names())*5 {
		t.Errorf("only %d platform/workload/set cases counted successfully", compared)
	}
}
