// Package experiments regenerates every table and figure of the
// paper's evaluation section on the simulated platforms. Each
// experiment returns both structured data (asserted by tests and
// compared against paper values in EXPERIMENTS.md) and rendered text.
//
// Platforms and workloads are resolved through the registries behind
// the public mperf Session API; the bespoke methodology of each figure
// (paired platforms, memset-derived roofs, the Advisor-style counter
// estimate) stays here, built on session-provided machines.
package experiments

import (
	"fmt"
	"strings"

	"mperf/internal/flamegraph"
	"mperf/internal/isa"
	"mperf/internal/miniperf"
	"mperf/internal/platform"
	"mperf/internal/report"
	"mperf/internal/roofline"
	"mperf/internal/workloads"
	"mperf/pkg/mperf"
)

// Table1 reproduces the platform capability survey.
type Table1 struct {
	Platforms []*platform.Platform
	Text      string
}

// RunTable1 renders Table 1 from the platform catalog (the RISC-V
// entries, as the paper's table lists only those three).
func RunTable1() *Table1 {
	var riscv []*platform.Platform
	for _, p := range platform.Catalog() {
		if p.ID.MVendorID != isa.VendorIntelRef {
			riscv = append(riscv, p)
		}
	}
	t := report.NewTable("Table 1: Comparison of available RISC-V hardware capabilities",
		"Core", "Out-of-Order", "RVV version", "Overflow interrupt", "Upstream Linux")
	for _, p := range riscv {
		ooo := "No"
		if p.Caps.OutOfOrder {
			ooo = "Yes"
		}
		t.AddRowCells(p.Name, ooo, p.Caps.RVVVersion, p.Caps.OverflowIRQ.String(), p.Caps.UpstreamLinux)
	}
	return &Table1{Platforms: riscv, Text: t.String()}
}

// sqliteSession is the sqlite workload profiled under the record
// collector on one platform.
type sqliteSession struct {
	Platform  *platform.Platform
	Recording *miniperf.Recording
	Hotspots  []miniperf.Hotspot
	IPC       float64
}

func runSqliteOn(platformName string, cfg workloads.SqliteConfig) (*sqliteSession, error) {
	p, err := platform.Lookup(platformName)
	if err != nil {
		return nil, err
	}
	// Scale the sampling rate with clock frequency so faster platforms
	// (which finish the fixed workload in less simulated time) collect
	// a comparable number of samples.
	freq := uint64(40_000 * p.Core.FreqHz / 1.6e9)
	sess, err := mperf.Open(platformName, "sqlite",
		mperf.WithSqliteConfig(cfg), mperf.WithSampleFreq(freq))
	if err != nil {
		return nil, err
	}
	prof, err := sess.Run(mperf.MustCollectors("record")...)
	if err != nil {
		return nil, err
	}
	if err := prof.Err(); err != nil {
		return nil, err
	}
	return &sqliteSession{
		Platform:  sess.Platform(),
		Recording: prof.Recording,
		Hotspots:  prof.Recording.Hotspots(),
		IPC:       prof.IPC,
	}, nil
}

// Table2 reproduces the sqlite3 hotspot study.
type Table2 struct {
	X60, I5       *sqliteSession
	X60Top, I5Top []miniperf.Hotspot
	Text          string
}

// TopHotspots returns the first n hotspots of a session.
func topN(hs []miniperf.Hotspot, n int) []miniperf.Hotspot {
	if len(hs) < n {
		n = len(hs)
	}
	return hs[:n]
}

// runSqlitePair profiles the sqlite workload on two platforms
// concurrently (each session simulates on its own hart, so the two
// cells are independent). Both sessions profile the raw build, whose
// plan key is platform-independent: the pair shares one cached
// program, so re-running Table 2 and Figure 3 compiles sqlite once and
// every further simulation is warm instantiation.
func runSqlitePair(cfg workloads.SqliteConfig) (x60, i5 *sqliteSession, err error) {
	err = mperf.Parallel(0,
		func() error {
			s, err := runSqliteOn("x60", cfg)
			if err != nil {
				return fmt.Errorf("experiments: X60 session: %w", err)
			}
			x60 = s
			return nil
		},
		func() error {
			s, err := runSqliteOn("i5", cfg)
			if err != nil {
				return fmt.Errorf("experiments: i5 session: %w", err)
			}
			i5 = s
			return nil
		})
	return x60, i5, err
}

// RunTable2 profiles the synthetic sqlite3 workload on the X60 and the
// x86 reference and reports the top-3 hotspots with Total %,
// instructions and IPC, as the paper's Table 2 does.
func RunTable2(cfg workloads.SqliteConfig) (*Table2, error) {
	x60, i5, err := runSqlitePair(cfg)
	if err != nil {
		return nil, err
	}
	res := &Table2{
		X60: x60, I5: i5,
		X60Top: topN(x60.Hotspots, 3),
		I5Top:  topN(i5.Hotspots, 3),
	}
	t := report.NewTable("Table 2: Top hotspots from the sqlite3 benchmark",
		"Function", "X60 Total%", "X60 Instructions", "X60 IPC",
		"i5 Total%", "i5 Instructions", "i5 IPC")
	i5ByName := make(map[string]miniperf.Hotspot)
	for _, h := range i5.Hotspots {
		i5ByName[h.Function] = h
	}
	for _, h := range res.X60Top {
		other := i5ByName[h.Function]
		t.AddRowCells(h.Function,
			fmt.Sprintf("%.2f%%", h.TotalPct), report.Grouped(h.Instructions), fmt.Sprintf("%.2f", h.IPC),
			fmt.Sprintf("%.2f%%", other.TotalPct), report.Grouped(other.Instructions), fmt.Sprintf("%.2f", other.IPC))
	}
	var sb strings.Builder
	sb.WriteString(t.String())
	fmt.Fprintf(&sb, "\nWhole-program IPC: SpacemiT X60 %.2f (paper: 0.86), i5-1135G7 %.2f (paper: 3.38)\n",
		x60.IPC, i5.IPC)
	res.Text = sb.String()
	return res, nil
}

// Figure3 reproduces the four flame graphs: {X60, x86} × {cycles,
// instructions}.
type Figure3 struct {
	Graphs map[string]*flamegraph.Graph // keys: "x60-cycles", ...
	Text   string
}

// RunFigure3 renders the flame graphs from the Table 2 recordings.
func RunFigure3(cfg workloads.SqliteConfig) (*Figure3, error) {
	x60, i5, err := runSqlitePair(cfg)
	if err != nil {
		return nil, err
	}
	res := &Figure3{Graphs: map[string]*flamegraph.Graph{
		"x60-cycles":       x60.Recording.FlameGraph("SpacemiT X60", miniperf.MetricCycles),
		"x60-instructions": x60.Recording.FlameGraph("SpacemiT X60", miniperf.MetricInstructions),
		"i5-cycles":        i5.Recording.FlameGraph("Intel Core i5-1135G7", miniperf.MetricCycles),
		"i5-instructions":  i5.Recording.FlameGraph("Intel Core i5-1135G7", miniperf.MetricInstructions),
	}}
	var sb strings.Builder
	sb.WriteString("Figure 3: Flame graphs for the sqlite3 benchmark\n\n")
	for _, key := range []string{"x60-cycles", "x60-instructions", "i5-cycles", "i5-instructions"} {
		sb.WriteString(res.Graphs[key].ASCII(100))
		sb.WriteByte('\n')
	}
	res.Text = sb.String()
	return res, nil
}

// Figure4 reproduces the roofline study of the tiled matmul kernel.
type Figure4 struct {
	N, Tile int

	// X86 methodology comparison (Fig 4a–c).
	X86Model     *roofline.Model
	MiniperfX86  roofline.Point // compiler-driven measurement
	SelfReported roofline.Point // the benchmark's own GFLOP/s
	AdvisorLike  roofline.Point // PMU-counter estimate

	// X60 model (Fig 4d).
	X60Model    *roofline.Model
	MiniperfX60 roofline.Point
	// MemsetBytesPerCycle is the measured X60 store bandwidth behind
	// the memory roof (§5.2 cites 3.16).
	MemsetBytesPerCycle float64

	Text string
}

// matmulSession opens a session for the Fig 4 kernel on a platform.
func matmulSession(platformName string, n, tile int) (*mperf.Session, error) {
	return mperf.Open(platformName, "matmul", mperf.WithMatmulSize(n, tile))
}

// twoPhasePoint compiles the workload instrumented, runs the two-phase
// workflow and returns the kernel's region as a model point.
func twoPhasePoint(sess *mperf.Session) (roofline.Point, error) {
	m, err := sess.NewOptimizedMachine(true)
	if err != nil {
		return roofline.Point{}, err
	}
	defer m.Release()
	spec := sess.Workload()
	args, err := spec.Args(m)
	if err != nil {
		return roofline.Point{}, err
	}
	two, err := roofline.RunTwoPhase(m, spec.Entry, args)
	if err != nil {
		return roofline.Point{}, err
	}
	lr, ok := two.LoopByFunc(spec.Entry)
	if !ok {
		return roofline.Point{}, fmt.Errorf("experiments: %s region not measured on %s",
			spec.Entry, sess.Platform().Name)
	}
	return roofline.Point{
		Name: spec.Entry + " (miniperf)", AI: lr.AI, GFLOPS: lr.GFLOPS, Source: "miniperf (IR)",
	}, nil
}

// RunFigure4 performs the full roofline comparison. The five
// measurements (three x86 methodologies, the X60 memset roof and the
// X60 kernel point) are independent simulations on separate harts, so
// they fan out over the shared worker pool. The program cache
// deduplicates their builds: the self-reported and Advisor-style runs
// both profile the i5's plain optimized matmul, so the pair shares one
// cached program (singleflight even though the thunks race), and the
// two instrumented two-phase sessions compile one program per
// platform instead of re-running the pipeline per measurement.
func RunFigure4(n, tile int) (*Figure4, error) {
	res := &Figure4{N: n, Tile: tile}
	i5Sess, err := matmulSession("i5", n, tile)
	if err != nil {
		return nil, err
	}
	x60Sess, err := matmulSession("x60", n, tile)
	if err != nil {
		return nil, err
	}
	i5 := i5Sess.Platform()
	x60 := x60Sess.Platform()

	var selfSec float64
	err = mperf.Parallel(0,
		// --- x86: miniperf (compiler-driven, two-phase). ---
		func() error {
			p, err := twoPhasePoint(i5Sess)
			if err != nil {
				return err
			}
			res.MiniperfX86 = p
			return nil
		},
		// --- x86: the benchmark's self-reported figure (nominal 2n³
		// FLOPs over its own wall time, on an uninstrumented build). ---
		func() error {
			sess, err := matmulSession("i5", n, tile)
			if err != nil {
				return err
			}
			ms, err := sess.NewOptimizedMachine(false)
			if err != nil {
				return err
			}
			defer ms.Release()
			start := ms.Cycles()
			if err := sess.Workload().Run(ms); err != nil {
				return err
			}
			selfSec = float64(ms.Cycles()-start) / ms.FreqHz()
			return nil
		},
		// --- x86: Advisor-style PMU estimate on an uninstrumented build. ---
		func() error {
			sess, err := matmulSession("i5", n, tile)
			if err != nil {
				return err
			}
			mp, err := sess.NewOptimizedMachine(false)
			if err != nil {
				return err
			}
			defer mp.Release()
			adv, err := roofline.PMUEstimate(mp, "matmul (Advisor-like)", func() error {
				return sess.Workload().Run(mp)
			})
			if err != nil {
				return err
			}
			res.AdvisorLike = adv
			return nil
		},
		// --- X60: memset-derived memory roof. The reference memset is
		// RVV-vectorized (the rvv-bench implementation is hand-written
		// vector code), so the kernel goes through the conservative
		// pipeline, which does vectorize plain store loops. ---
		// 8 MiB: large enough that retained-dirty lines in the cache are
		// negligible against the streamed traffic.
		func() error {
			const words = 1 << 20
			msetSess, err := mperf.Open("x60", "memset", mperf.WithMemsetWords(words))
			if err != nil {
				return err
			}
			mm, err := msetSess.NewOptimizedMachine(false)
			if err != nil {
				return err
			}
			defer mm.Release()
			bpc, err := workloads.MemsetStoredBytesPerCycle(mm, "buf", words)
			if err != nil {
				return err
			}
			res.MemsetBytesPerCycle = bpc
			return nil
		},
		// --- X60: miniperf two-phase on the scalar build. ---
		func() error {
			p, err := twoPhasePoint(x60Sess)
			if err != nil {
				return err
			}
			res.MiniperfX60 = p
			return nil
		})
	if err != nil {
		return nil, err
	}

	// The self-reported figure is plotted at the miniperf-measured
	// intensity, so its point is assembled after the fan-out.
	res.SelfReported = roofline.Point{
		Name:   "matmul (self-reported)",
		AI:     res.MiniperfX86.AI,
		GFLOPS: float64(workloads.MatmulFLOPs(n)) / selfSec / 1e9,
		Source: "self-reported",
	}

	res.X86Model = &roofline.Model{
		Platform: i5.Name,
		Compute: []roofline.ComputeCeiling{
			{Name: "SP vector FMA peak (2×8×2×4.2GHz)", GFLOPS: i5.TheoreticalPeakGFLOPS},
		},
		Memory: []roofline.MemoryCeiling{
			// Cache-aware ceilings (the CARM view of Fig 4b): L1 at two
			// 32-byte vector accesses per cycle, then the DRAM channel.
			{Name: "L1 (2×32B/cycle)", GiBps: 64 * i5.Core.FreqHz / (1 << 30)},
			{Name: "DRAM (model channel)", GiBps: i5.Core.Mem.DRAM.BytesPerCycle * i5.Core.FreqHz / (1 << 30)},
		},
	}
	res.X86Model.AddPoint(res.MiniperfX86)
	res.X86Model.AddPoint(res.SelfReported)
	res.X86Model.AddPoint(res.AdvisorLike)

	bpc := res.MemsetBytesPerCycle
	res.X60Model = &roofline.Model{
		Platform: x60.Name,
		Compute: []roofline.ComputeCeiling{
			{Name: "theoretical peak (2×8×1.6GHz)", GFLOPS: x60.TheoreticalPeakGFLOPS},
		},
		Memory: []roofline.MemoryCeiling{
			{Name: fmt.Sprintf("memset-derived DRAM (%.2f B/cyc)", bpc),
				GiBps: bpc * x60.Core.FreqHz / (1 << 30)},
		},
	}
	res.X60Model.AddPoint(res.MiniperfX60)

	var sb strings.Builder
	sb.WriteString("Figure 4: Roofline model for the matmul kernel\n\n")
	sb.WriteString(res.X86Model.Summary())
	sb.WriteByte('\n')
	sb.WriteString(res.X86Model.ASCIIPlot(100, 20))
	sb.WriteByte('\n')
	sb.WriteString(res.X60Model.Summary())
	sb.WriteByte('\n')
	sb.WriteString(res.X60Model.ASCIIPlot(100, 20))
	fmt.Fprintf(&sb, "\nPaper values: miniperf 34.06 GFLOP/s, self-reported 33.0, Advisor 47.72 (x86); X60 1.58 GFLOP/s against 25.6 GFLOP/s / 4.7 GB/s roofs; memset 3.16 B/cycle.\n")
	res.Text = sb.String()
	return res, nil
}
