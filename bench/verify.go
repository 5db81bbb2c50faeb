package main

import (
	"fmt"
	"math"
	"strconv"

	"mperf/internal/experiments"
	"mperf/internal/ir"
	"mperf/internal/passes"
	"mperf/internal/platform"
	"mperf/internal/vm"
	"mperf/internal/workloads"
)

// pin is one of the four paper metrics the repository holds bit-exact,
// as `go test -bench` prints it, beside the hardware value the paper
// measured. The simulator was calibrated against these same hardware
// values and there is no held-out data, so the error against them says
// how well the calibration fits, not that the model is validated.
type pin struct {
	name   string
	pinned string  // the CI-pinned rendering
	paper  float64 // the paper's hardware measurement
	errKey string  // verify.paper_err_pct.* metric, if any
}

// paperPins computes the pinned metrics once, outside any timing, and
// returns the verify.* metrics plus one line per metric for the report.
func paperPins() (map[string]float64, []string, error) {
	t2, err := experiments.RunTable2(table2Sqlite)
	if err != nil {
		return nil, nil, err
	}
	f4, err := experiments.RunFigure4(128, 32)
	if err != nil {
		return nil, nil, err
	}
	bpc, err := memsetBytesPerCycle()
	if err != nil {
		return nil, nil, err
	}
	out := map[string]float64{}
	var lines []string
	for _, c := range []struct {
		pin
		value float64
	}{
		{pin{"IPC-gap", "3.409", 3.38 / 0.86, ""}, t2.I5.IPC / t2.X60.IPC},
		{pin{"x60-IPC", "", 0.86, "verify.paper_err_pct.x60_ipc"}, t2.X60.IPC},
		{pin{"i5-IPC", "", 3.38, "verify.paper_err_pct.i5_ipc"}, t2.I5.IPC},
		{pin{"x86-miniperf-GFLOPS", "22.08", 34.06, "verify.paper_err_pct.x86_gflops"}, f4.MiniperfX86.GFLOPS},
		{pin{"x60-miniperf-GFLOPS", "0.9267", 1.58, "verify.paper_err_pct.x60_gflops"}, f4.MiniperfX60.GFLOPS},
		{pin{"bytes/cycle", "3.369", 3.16, "verify.paper_err_pct.memset_bpc"}, bpc},
	} {
		shown := benchFormat(c.value)
		errPct := 100 * (c.value/c.paper - 1)
		line := fmt.Sprintf("%-20s %-8s paper %-7.4g sim-vs-paper %+6.1f%%", c.name, shown, c.paper, errPct)
		if c.pinned != "" {
			pinned, _ := strconv.ParseFloat(c.pinned, 64)
			drift := 0.0
			if shown != c.pinned {
				drift = 100 * math.Abs(c.value/pinned-1)
			}
			out["verify.pinned_drift_pct"] = math.Max(out["verify.pinned_drift_pct"], drift)
			line += fmt.Sprintf("  pinned %s drift %.4g%%", c.pinned, drift)
		}
		if c.errKey != "" {
			out[c.errKey] = errPct
		}
		lines = append(lines, line)
	}
	return out, lines, nil
}

// memsetBytesPerCycle is the §5.2 memory-roof input exactly as the
// repository's memset bench measures it.
func memsetBytesPerCycle() (float64, error) {
	const words = 1 << 19
	mod := ir.NewModule("memset")
	workloads.BuildMemset(mod)
	mod.NewGlobal("buf", ir.I64, words)
	if _, err := passes.RunPipeline(mod, passes.PipelineOptions{Profile: passes.VecConservative, Lanes: 8}); err != nil {
		return 0, err
	}
	m, err := vm.New(platform.X60(), mod)
	if err != nil {
		return 0, err
	}
	return workloads.MemsetStoredBytesPerCycle(m, "buf", words)
}

// benchFormat renders a value the way `go test -bench` prints a custom
// metric, which is the form the pins are written in.
func benchFormat(x float64) string {
	switch y := math.Abs(x); {
	case y == 0 || y >= 999.95:
		return strconv.FormatFloat(x, 'f', 0, 64)
	case y >= 99.995:
		return strconv.FormatFloat(x, 'f', 1, 64)
	case y >= 9.9995:
		return strconv.FormatFloat(x, 'f', 2, 64)
	case y >= 0.99995:
		return strconv.FormatFloat(x, 'f', 3, 64)
	case y >= 0.099995:
		return strconv.FormatFloat(x, 'f', 4, 64)
	case y >= 0.0099995:
		return strconv.FormatFloat(x, 'f', 5, 64)
	default:
		return strconv.FormatFloat(x, 'g', 5, 64)
	}
}
