package mperf

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"mperf/internal/platform"
	"mperf/internal/workloads"
)

// This file scales RunMatrix out of a single process: a sweep
// materializes every platform × workload cell as its own JSON file in
// a sweep directory, so the work can be split deterministically across
// shards (separate processes or separate hosts sharing a filesystem),
// survive a crash (finished cells are never re-run on resume), and be
// merged into one byte-stable report once every cell exists.
//
// Determinism rules the design. Cell assignment is a pure function of
// the cell's global index and the shard arithmetic — no queues, no
// coordination. Cell files strip Profile.CompileStats (the only
// scheduling-dependent field a profile carries: whether a given cell
// compiled or cache-hit depends on which cell of its plan key ran
// first), so a merged sweep is byte-identical no matter how the cells
// were partitioned, ordered, or interrupted.

// sweepManifestName and the cell-file naming scheme are the on-disk
// contract of a sweep directory.
const sweepManifestName = "manifest.json"

// SweepConfig configures one RunSweep invocation over a sweep
// directory.
type SweepConfig struct {
	// Dir is the sweep directory; it is created if needed. Every shard
	// of one sweep must point at the same directory (a shared
	// filesystem) or their directories must be merged file-wise before
	// MergeSweep.
	Dir string
	// ShardIndex/ShardCount select the deterministic slice of cells
	// this invocation runs: the cells whose global (platform-major)
	// index i satisfies i % ShardCount == ShardIndex. A zero
	// ShardCount means one shard (run everything).
	ShardIndex int
	ShardCount int
	// Resume skips cells whose files already exist and parse — the
	// crash-recovery path. Without Resume, existing cells are re-run
	// and overwritten.
	Resume bool
}

// SweepReport summarizes one RunSweep invocation.
type SweepReport struct {
	Dir string `json:"dir"`
	// Total is the number of cells in the whole matrix; Assigned the
	// number this shard owns; Ran and Resumed split Assigned into
	// cells executed now versus skipped as already materialized.
	Total    int `json:"total"`
	Assigned int `json:"assigned"`
	Ran      int `json:"ran"`
	Resumed  int `json:"resumed"`
}

// sweepManifest pins the sweep's resolved shape so every shard (and
// the merge) agrees on the cell set and order, and on the
// configuration every cell ran with. It carries no timestamps or host
// identity: two shards of one logical sweep write byte-identical
// manifests, which is what lets them share a directory without
// coordination.
type sweepManifest struct {
	Platforms  []string `json:"platforms"`
	Workloads  []string `json:"workloads"`
	Collectors []string `json:"collectors"`
	Config     Config   `json:"config"`
}

// cellFileName returns the file a cell materializes to. Platform and
// workload names come from the registries (lowercase identifiers), so
// they embed directly.
func cellFileName(platformName, workloadName string) string {
	return fmt.Sprintf("cell__%s__%s.json", platformName, workloadName)
}

// resolveMatrix expands a MatrixSpec's defaults and validates every
// name against the registries and the options' configuration — shared
// by RunMatrix and RunSweep so a sweep resolves to exactly the cells
// the in-process path would run.
func resolveMatrix(spec MatrixSpec) (man sweepManifest, err error) {
	man = sweepManifest{Platforms: spec.Platforms, Workloads: spec.Workloads,
		Collectors: spec.Collectors, Config: resolveOptions(spec.Options).Config}
	if len(man.Platforms) == 0 {
		man.Platforms = platform.Names()
	}
	if len(man.Workloads) == 0 {
		man.Workloads = workloads.Names()
	}
	if len(man.Collectors) == 0 {
		man.Collectors = CollectorNames()
	}
	for _, p := range man.Platforms {
		if _, err := platform.Lookup(p); err != nil {
			return man, fmt.Errorf("mperf: %w", err)
		}
	}
	for _, w := range man.Workloads {
		if _, err := workloads.Lookup(w, workloads.Params{}); err != nil {
			return man, fmt.Errorf("mperf: %w", err)
		}
	}
	if _, err := Collectors(man.Collectors...); err != nil {
		return man, err
	}
	return man, man.Config.Validate()
}

// runMatrixCell executes one cell: a fresh session and fresh collector
// instances, nothing shared with other cells but the immutable option
// slice (and the program cache behind it). Failures land in the cell,
// never in an error return.
func runMatrixCell(cell *MatrixCell, cols []string, opts []Option) {
	cs, err := Collectors(cols...)
	if err != nil {
		cell.Error = err.Error()
		return
	}
	sess, err := Open(cell.Platform, cell.Workload, opts...)
	if err != nil {
		cell.Error = err.Error()
		return
	}
	prof, err := sess.Run(cs...)
	if err != nil {
		cell.Error = err.Error()
		return
	}
	cell.Profile = prof
}

// writeFileAtomic writes data to path via a temp file and rename, so a
// crash mid-write can never leave a half-written cell or manifest for
// a resume to trip over.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return nil
}

// marshalIndented renders v exactly as WriteJSON does (two-space
// indent, trailing newline), as bytes.
func marshalIndented(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ensureManifest writes the sweep manifest, or validates an existing
// one against this invocation's resolved spec byte for byte: two
// shards with different specs or sizing sharing one directory is a
// configuration error worth failing loudly on, not a merge-time
// surprise. A manifest written before the config entry existed never
// matches, so its cells are not resumed under a guessed config.
func ensureManifest(dir string, man sweepManifest) error {
	want, err := marshalIndented(man)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, sweepManifestName)
	if existing, err := os.ReadFile(path); err == nil {
		if !bytes.Equal(existing, want) {
			return fmt.Errorf("mperf: sweep dir %s was started with a different matrix spec", dir)
		}
		return nil
	}
	return writeFileAtomic(path, want)
}

// loadCell reads and validates one materialized cell file; ok reports
// a well-formed cell for the expected platform × workload pair.
func loadCell(path, platformName, workloadName string) (MatrixCell, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return MatrixCell{}, false
	}
	var cell MatrixCell
	if err := json.Unmarshal(data, &cell); err != nil {
		return MatrixCell{}, false
	}
	if cell.Platform != platformName || cell.Workload != workloadName {
		return MatrixCell{}, false
	}
	return cell, true
}

// RunSweep runs this shard's slice of a platforms × workloads ×
// collectors sweep, materializing each finished cell into cfg.Dir as
// its own JSON file (written atomically, CompileStats stripped — see
// the file comment). ctx is checked between cells: cancellation stops
// scheduling new cells and returns ctx.Err(), leaving every finished
// cell on disk for a Resume run to pick up. Cells run sequentially
// within a shard — sharding is the parallelism axis — which keeps a
// shard's program-cache traffic deterministic.
func RunSweep(ctx context.Context, spec MatrixSpec, cfg SweepConfig) (*SweepReport, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("mperf: sweep needs a directory")
	}
	shards := cfg.ShardCount
	if shards <= 0 {
		shards = 1
	}
	if cfg.ShardIndex < 0 || cfg.ShardIndex >= shards {
		return nil, fmt.Errorf("mperf: shard index %d out of range for %d shards", cfg.ShardIndex, shards)
	}
	man, err := resolveMatrix(spec)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("mperf: %w", err)
	}
	if err := ensureManifest(cfg.Dir, man); err != nil {
		return nil, err
	}
	plats, wls, cols := man.Platforms, man.Workloads, man.Collectors

	rep := &SweepReport{Dir: cfg.Dir, Total: len(plats) * len(wls)}
	for i, p := range plats {
		for j, w := range wls {
			g := i*len(wls) + j
			if g%shards != cfg.ShardIndex {
				continue
			}
			rep.Assigned++
			if err := ctx.Err(); err != nil {
				return rep, err
			}
			path := filepath.Join(cfg.Dir, cellFileName(p, w))
			if cfg.Resume {
				if _, ok := loadCell(path, p, w); ok {
					rep.Resumed++
					continue
				}
			}
			cell := MatrixCell{Platform: p, Workload: w}
			runMatrixCell(&cell, cols, spec.Options)
			if cell.Profile != nil {
				// The compile/hit split depends on what this process
				// happened to have cached — scheduling, not physics —
				// so it never enters a materialized cell.
				cell.Profile.CompileStats = nil
			}
			data, err := marshalIndented(cell)
			if err != nil {
				return rep, fmt.Errorf("mperf: encoding cell %s×%s: %w", p, w, err)
			}
			if err := writeFileAtomic(path, data); err != nil {
				return rep, fmt.Errorf("mperf: materializing cell %s×%s: %w", p, w, err)
			}
			rep.Ran++
		}
	}
	return rep, nil
}

// MergeSweep assembles a completed sweep directory into the
// MatrixResult RunMatrix would have produced (modulo the stripped
// CompileStats), cells in the manifest's platform-major order. Any
// missing or malformed cell is an error naming the cell, so a partial
// sweep fails the merge instead of producing a silently truncated
// report. Merging is read-only and idempotent: the same directory
// always merges to the same bytes.
func MergeSweep(dir string) (*MatrixResult, error) {
	data, err := os.ReadFile(filepath.Join(dir, sweepManifestName))
	if err != nil {
		return nil, fmt.Errorf("mperf: sweep dir %s has no manifest: %w", dir, err)
	}
	var man sweepManifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("mperf: sweep manifest: %w", err)
	}
	res := &MatrixResult{}
	for _, p := range man.Platforms {
		for _, w := range man.Workloads {
			cell, ok := loadCell(filepath.Join(dir, cellFileName(p, w)), p, w)
			if !ok {
				return nil, fmt.Errorf("mperf: sweep cell %s×%s is missing or malformed (incomplete sweep?)", p, w)
			}
			res.Cells = append(res.Cells, cell)
		}
	}
	return res, nil
}
