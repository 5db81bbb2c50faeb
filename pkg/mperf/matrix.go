package mperf

import (
	"runtime"
	"sync"
)

// MatrixSpec describes a platforms × workloads sweep: every cell runs
// the same collector set with the same options. Empty Platforms,
// Workloads, or Collectors default to the full registries.
type MatrixSpec struct {
	Platforms  []string
	Workloads  []string
	Collectors []string
	// Options apply to every cell's session (sizing, sample rate); a
	// sweep manifest pins the Config they resolve to.
	Options []Option
	// Parallelism bounds the worker pool; <= 0 means GOMAXPROCS.
	Parallelism int
}

// Validate resolves the spec's names against the registries and checks
// its options' Config, running nothing.
func (spec MatrixSpec) Validate() error {
	_, err := resolveMatrix(spec)
	return err
}

// MatrixCell is one platform × workload result. Either Profile is
// populated (possibly carrying per-collector errors) or Error explains
// why the session could not run at all.
type MatrixCell struct {
	Platform string   `json:"platform"`
	Workload string   `json:"workload"`
	Profile  *Profile `json:"profile,omitempty"`
	Error    string   `json:"error,omitempty"`
}

// MatrixResult is the full sweep, cells in platform-major order.
type MatrixResult struct {
	Cells []MatrixCell `json:"cells"`
}

// Cell finds the result for a platform × workload pair by the names
// given to RunMatrix.
func (r *MatrixResult) Cell(platformName, workloadName string) (*MatrixCell, bool) {
	for i := range r.Cells {
		if r.Cells[i].Platform == platformName && r.Cells[i].Workload == workloadName {
			return &r.Cells[i], true
		}
	}
	return nil, false
}

// Parallel runs tasks concurrently over a bounded worker pool of the
// given size (<= 0 means GOMAXPROCS) and waits for all of them.
// Sessions, machines and collectors are cheap to create and fully
// independent, so this is the fan-out primitive behind matrix sweeps
// and the experiment reproductions: every task simulates on its own
// hart while the pool keeps the host cores busy. The first non-nil
// task error is returned after all tasks finish.
func Parallel(parallelism int, tasks ...func() error) error {
	par := parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > len(tasks) {
		par = len(tasks)
	}
	if par <= 1 {
		// Degenerate pool: run inline, keeping single-core determinism.
		var first error
		for _, t := range tasks {
			if err := t(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	sem := make(chan struct{}, par)
	errs := make([]error, len(tasks))
	var wg sync.WaitGroup
	for i, t := range tasks {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, t func() error) {
			defer func() {
				<-sem
				wg.Done()
			}()
			errs[i] = t()
		}(i, t)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// RunMatrix sweeps platforms × workloads × collectors with a bounded
// worker pool. The spec is validated up front, so a typo or a bad size
// fails fast; per-cell failures (a platform that cannot sample, a
// workload that cannot load) are recorded in the cell and never abort
// the sweep. The result order is deterministic regardless of
// parallelism. Cells compile through the shared program cache (the
// default one, or whatever WithProgramCache passes in Options), so
// cells with the same plan key — every platform's unoptimized build of
// one workload, for instance — share a single compile and the rest of
// the sweep is warm instantiation; per-cell Profile.CompileStats
// records the split.
func RunMatrix(spec MatrixSpec) (*MatrixResult, error) {
	// Validate every name before spending any simulation time.
	man, err := resolveMatrix(spec)
	if err != nil {
		return nil, err
	}
	plats, wls, cols := man.Platforms, man.Workloads, man.Collectors

	res := &MatrixResult{Cells: make([]MatrixCell, len(plats)*len(wls))}
	for i, p := range plats {
		for j, w := range wls {
			res.Cells[i*len(wls)+j] = MatrixCell{Platform: p, Workload: w}
		}
	}

	tasks := make([]func() error, len(res.Cells))
	for i := range res.Cells {
		cell := &res.Cells[i]
		tasks[i] = func() error {
			// Each cell gets its own session and collector instances:
			// nothing is shared across goroutines but the immutable spec.
			runMatrixCell(cell, cols, spec.Options)
			return nil
		}
	}
	// Per-cell failures are recorded in the cells, so Parallel cannot
	// surface an error here.
	_ = Parallel(spec.Parallelism, tasks...)
	return res, nil
}
