package miniperf

import (
	"fmt"
	"reflect"
	"testing"

	"mperf/internal/machine"
	"mperf/internal/platform"
	"mperf/internal/pmu"
	"mperf/internal/vm"
	"mperf/internal/workloads"
)

// applySink feeds the PMU and counts the batches the core delivers.
// With everyEdge it hides the PMU's overflow headroom, so a sampled run
// delivers at every block edge: the reference FlushEdge's deferred
// delivery must be indistinguishable from.
type applySink struct {
	*pmu.PMU
	everyEdge bool
	applies   int
}

func (s *applySink) Apply(b *machine.DeltaBatch) {
	s.applies++
	s.PMU.Apply(b)
}

func (s *applySink) Headroom() (uint64, uint64) {
	if s.everyEdge {
		return 0, 0
	}
	return s.PMU.Headroom()
}

// recorded is one record session and what it cost.
type recorded struct {
	rec     *Recording
	err     error
	applies int
	exec    *vm.ExecStats
}

// recordRun records one run of a catalog workload on p through an
// applySink.
func recordRun(t *testing.T, name string, params workloads.Params, p *platform.Platform, opt RecordOptions, everyEdge bool) recorded {
	t.Helper()
	m, run := instantiateSized(t, name, params, p)
	sink := &applySink{PMU: m.Hart().PMU, everyEdge: everyEdge}
	m.Hart().Core.SetSink(sink)
	exec := new(vm.ExecStats)
	m.SetExecStats(exec)
	tool, err := Attach(m)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := tool.Record(opt, run)
	m.FlushExecStats()
	return recorded{rec: rec, err: err, applies: sink.applies, exec: exec}
}

// tableTwoFreq is the Table 2 reproduction's sampling rate on p: 40 kHz
// scaled by the core clock.
func tableTwoFreq(p *platform.Platform) uint64 { return uint64(40_000 * p.Core.FreqHz / 1.6e9) }

// tableTwoSqlite is the Table 2 reproduction's sqlite sizing.
var tableTwoSqlite = workloads.SqliteConfig{
	ProgLen: 64, Rows: 150, Queries: 3, CellArea: 4096, TextArea: 4096, PatLen: 6,
}

// Sizings of the differential runs: at fixed periods, sqlite large
// enough for a few dozen samples at period 997 and the kernel workloads
// at the shared small sizing; at the Table 2 rate, which starts at a
// period of 40,000 cycles, the Table 2 sqlite and kernels long enough
// for a few samples each.
var (
	periodParams = workloads.Params{
		Sqlite:  &workloads.SqliteConfig{ProgLen: 32, Rows: 12, Queries: 2, CellArea: 512, TextArea: 512, PatLen: 4},
		MatmulN: 16, MatmulTile: 8, Elems: 2048,
	}
	freqParams = workloads.Params{Sqlite: &tableTwoSqlite, MatmulN: 48, MatmulTile: 16, Elems: 1 << 16}
)

// TestEdgeDeliveryMatchesEveryEdge is the differential check of
// FlushEdge: on the X60 (the u_mode_cycle leader with cycles and
// instructions members), the C910 and the i5, sqlite and two loop-kernel
// workloads recorded at periods 1, 2 and 997 and at the Table 2 sampling
// rate must give the same sample stream — IP, time, period, callchain,
// privilege and group reads — and the same lost count whether the core
// delivers only when an overflow can fire or at every block edge. The
// reference must make more Apply calls, or the check compares nothing.
func TestEdgeDeliveryMatchesEveryEdge(t *testing.T) {
	plats := []*platform.Platform{platform.X60(), platform.C910(), platform.I5_1135G7()}
	totalSamples, fewer := 0, 0
	for _, p := range plats {
		opts := map[string]RecordOptions{
			"period=1":   {Period: 1},
			"period=2":   {Period: 2},
			"period=997": {Period: 997},
			"freq":       {FreqHz: tableTwoFreq(p)},
		}
		for _, name := range []string{"sqlite", "matmul", "triad"} {
			for optName, opt := range opts {
				label := fmt.Sprintf("%s/%s/%s", p.Name, name, optName)
				params := periodParams
				if opt.FreqHz > 0 {
					params = freqParams
				}
				got := recordRun(t, name, params, p, opt, false)
				want := recordRun(t, name, params, p, opt, true)
				if fmt.Sprint(got.err) != fmt.Sprint(want.err) {
					t.Errorf("%s: error %v, every edge %v", label, got.err, want.err)
					continue
				}
				if got.err != nil {
					t.Errorf("%s: %v", label, got.err)
					continue
				}
				if len(want.rec.Samples) == 0 {
					t.Errorf("%s: the reference recorded no samples", label)
				}
				if got.rec.Lost != want.rec.Lost {
					t.Errorf("%s: lost %d, every edge %d", label, got.rec.Lost, want.rec.Lost)
				}
				if !reflect.DeepEqual(got.rec.Samples, want.rec.Samples) {
					t.Errorf("%s: %d samples differ from the %d delivered at every edge (first: %s)", label,
						len(got.rec.Samples), len(want.rec.Samples), firstDiff(got.rec, want.rec))
				}
				if got.applies > want.applies {
					t.Errorf("%s: %d Apply calls, more than the %d at every edge", label, got.applies, want.applies)
				}
				if got.applies < want.applies {
					fewer++
				}
				totalSamples += len(want.rec.Samples)
			}
		}
	}
	if fewer < len(plats)*3*2 {
		t.Errorf("only %d cases delivered fewer batches than every edge", fewer)
	}
	t.Logf("%d samples compared", totalSamples)
}

// firstDiff describes the first sample where two recordings differ.
func firstDiff(a, b *Recording) string {
	for i := range a.Samples {
		if i >= len(b.Samples) {
			return fmt.Sprintf("#%d only in the first: %+v", i, a.Samples[i])
		}
		if !reflect.DeepEqual(a.Samples[i], b.Samples[i]) {
			return fmt.Sprintf("#%d %+v vs %+v", i, a.Samples[i], b.Samples[i])
		}
	}
	return fmt.Sprintf("#%d only in the second", len(a.Samples))
}

// TestRecordDeliveryBudget bounds the PMU delivery cost of a Table 2
// record, independent of the host: at the Table 2 sizing and sampling
// rate, the core hands the PMU at most two batches per sample (the
// deltas up to the previous edge, then the firing one) plus the run's
// closing flushes. A record run also enters the same loop kernels as a
// stat run of the same program.
func TestRecordDeliveryBudget(t *testing.T) {
	params := workloads.Params{Sqlite: &tableTwoSqlite}
	for _, p := range []*platform.Platform{platform.X60(), platform.I5_1135G7()} {
		t.Run(p.Name, func(t *testing.T) {
			r := recordRun(t, "sqlite", params, p, RecordOptions{FreqHz: tableTwoFreq(p)}, false)
			if r.err != nil {
				t.Fatal(r.err)
			}
			n := len(r.rec.Samples)
			if n == 0 {
				t.Fatal("no samples")
			}
			if r.applies > 2*n+4 {
				t.Errorf("%d Apply calls for %d samples, budget %d", r.applies, n, 2*n+4)
			}

			m, run := instantiateSized(t, "sqlite", params, p)
			exec := new(vm.ExecStats)
			m.SetExecStats(exec)
			tool, err := Attach(m)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tool.Stat(defaultStatSet[:2], run); err != nil {
				t.Fatal(err)
			}
			m.FlushExecStats()
			hits, iters := exec.KernelHits.Load(), exec.KernelIters.Load()
			if hits == 0 || iters == 0 {
				t.Fatalf("the stat run entered no kernels (hits %d, iterations %d)", hits, iters)
			}
			if h, i := r.exec.KernelHits.Load(), r.exec.KernelIters.Load(); h != hits || i != iters {
				t.Errorf("record entered %d kernels for %d iterations, stat %d for %d", h, i, hits, iters)
			}
			t.Logf("%d samples, %d Apply calls, %d kernel hits, %d kernel iterations", n, r.applies, hits, iters)
		})
	}
}
