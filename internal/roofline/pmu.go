package roofline

import (
	"fmt"

	"mperf/internal/isa"
	"mperf/internal/miniperf"
	"mperf/internal/vm"
)

// PMUEstimate measures a workload the way counter-based tools (Intel
// Advisor in Fig 4 of the paper) do: FLOPs from the FP-arithmetic
// hardware event and memory traffic from load/store events, divided by
// wall time. Two methodological artifacts are reproduced faithfully:
//
//   - the FP event counts replayed speculative work after cache misses,
//     inflating FLOP totals on memory-bound kernels (the documented
//     FP_ARITH overcount), which is the mechanism behind Advisor's
//     47.72 GFLOP/s versus miniperf's 34.06 on the same kernel;
//   - byte traffic is estimated as access count × access width, with
//     the width assumed to be the scalar register width.
//
// It requires a platform whose PMU exposes the counter family (the x86
// reference); RISC-V parts without such events return an error, which
// is precisely the tooling gap the paper's IR-based method fills.
func PMUEstimate(m *vm.Machine, kernelName string, run func() error) (Point, error) {
	fpEv := isa.RawEvent(isa.X86EventFPArith)
	if _, ok := m.Hart().PMU.Spec().Resolve(fpEv); !ok {
		return Point{}, fmt.Errorf("roofline: %s exposes no FP-operation counter; PMU-based roofline unavailable",
			m.Platform().Name)
	}
	tool, err := miniperf.Attach(m)
	if err != nil {
		return Point{}, err
	}
	ldEv, stEv := isa.RawEvent(isa.X86EventLoads), isa.RawEvent(isa.X86EventStores)
	st, err := tool.Stat([]isa.EventCode{fpEv, ldEv, stEv}, run)
	if err != nil {
		return Point{}, err
	}
	flops := st.Values[fpEv.String()]

	// Advisor-style byte estimate: operations × assumed width.
	const assumedWidth = 8
	bytes := (st.Values[ldEv.String()] + st.Values[stEv.String()]) * assumedWidth

	p := Point{Name: kernelName, Source: "PMU counters"}
	if st.ElapsedSeconds > 0 {
		p.GFLOPS = float64(flops) / st.ElapsedSeconds / 1e9
	}
	if bytes > 0 {
		p.AI = float64(flops) / float64(bytes)
	}
	return p, nil
}
