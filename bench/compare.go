package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// runSet is a file of runs; a single run's result file is read as a set
// of one.
type runSet struct {
	Runs []result `json:"runs"`
}

// loadResults reads comma-separated run-set or result files.
func loadResults(paths string) ([]result, error) {
	var out []result
	for _, path := range strings.Split(paths, ",") {
		data, err := os.ReadFile(strings.TrimSpace(path))
		if err != nil {
			return nil, err
		}
		var set runSet
		if err := json.Unmarshal(data, &set); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if set.Runs == nil {
			var r result
			if err := json.Unmarshal(data, &r); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			set.Runs = []result{r}
		}
		out = append(out, set.Runs...)
	}
	return out, nil
}

// byWorkload groups metric values: workload → metric → values across runs.
func byWorkload(runs []result) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range runs {
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v)
		}
	}
	return out
}

// printSummary prints each metric's median and quartiles across runs.
func printSummary(runs []result) {
	groups := byWorkload(runs)
	count := map[string]int{}
	for _, r := range runs {
		count[r.Workload]++
	}
	for _, wl := range sortedKeys(groups) {
		vals := groups[wl]
		fmt.Printf("== %s: %d runs\n", wl, count[wl])
		fmt.Printf("  %-34s %12s %12s %12s %8s %s\n", "metric", "median", "q1", "q3", "spread", "unit")
		for _, tab := range [][]metricDef{endToEnd, reportOnly, perLayer} {
			for _, d := range tab {
				xs, ok := vals[d.Name]
				if !ok {
					continue
				}
				q1, q2, q3 := quartiles(xs)
				fmt.Printf("  %-34s %12.6g %12.6g %12.6g %7.2f%% %s\n", d.Name, q2, q1, q3, 100*spread(xs), d.Unit)
			}
		}
	}
}

// benchmarkBounds reads each end-to-end metric's regression bound from
// BENCHMARK.json at the repository root.
func benchmarkBounds() (map[string]float64, error) {
	var data []byte
	var err error
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		if data, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	out := map[string]float64{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

// verdict compares one metric of one workload between a base and a
// change. worse is the change's median relative to the base's, signed so
// that positive is worse; beyond the bound it is a regression. Otherwise,
// when either side's spread is wider than the bound, the runs cannot
// resolve a change of that size and the metric is "unresolved", unless
// every run of the change beats every base run.
func verdict(def metricDef, base, change []float64, bound float64) (string, float64) {
	b, c := median(base), median(change)
	worse := (c - b) / math.Abs(b)
	if def.Better == "higher" {
		worse = -worse
	}
	better := func(x, y float64) bool { // x better than y
		if def.Better == "higher" {
			return x > y
		}
		return x < y
	}
	allBetter := true
	for _, x := range change {
		for _, y := range base {
			if !better(x, y) {
				allBetter = false
			}
		}
	}
	switch {
	case worse > bound:
		return "WORSE", worse
	case spread(base) > bound || spread(change) > bound:
		if allBetter {
			return "better", worse
		}
		return "unresolved", worse
	case worse < -bound:
		return "better", worse
	default:
		return "unchanged", worse
	}
}

// printComparison prints one row per workload and end-to-end metric and
// reports whether any got worse than its bound.
func printComparison(base, change []result) (bool, error) {
	bounds, err := benchmarkBounds()
	if err != nil {
		return false, err
	}
	bg, cg := byWorkload(base), byWorkload(change)
	anyWorse := false
	fmt.Printf("%-16s %-16s %12s %12s %8s %7s  %s\n", "workload", "metric", "base", "change", "worse", "bound", "verdict")
	for _, wl := range sortedKeys(cg) {
		for _, d := range endToEnd {
			b, c := bg[wl][d.Name], cg[wl][d.Name]
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			v, worse := verdict(d, b, c, bounds[d.Name])
			anyWorse = anyWorse || v == "WORSE"
			fmt.Printf("%-16s %-16s %12.6g %12.6g %+7.2f%% %6.1f%%  %s\n", wl, d.Name, median(b), median(c), 100*worse, 100*bounds[d.Name], v)
		}
	}
	return anyWorse, nil
}
