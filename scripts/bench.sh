#!/bin/sh
# Regenerate BENCH_PR9.json: run the four headline benchmarks (one per
# reproduced table/figure plus the memset roof input), the PR3
# program-cache trajectory benches, the PR6 daemon load bench (200
# concurrent HTTP clients against a warm mperfd), the superblock
# micro-benches (hot-loop dispatch cost of the region interpreter, in
# sim-MIPS), and the
# PR9 artifact-store benches (warm start from serialized programs vs a
# cold compile, and a sharded two-process sweep with merge), and record
# ns/op, the reproduced paper metrics, and the speedup/metric drift
# against the recorded PR8 run (BENCH_PR8.json; benches newer than PR8
# have no baseline entry).
#
# The daemon bench runs at a fixed iteration count so its cache-hit-rate
# metric reflects steady-state serving, not a two-request sample.
#
# Usage: scripts/bench.sh [benchtime]   (default 2x)
set -eu
cd "$(dirname "$0")/.."

BENCHTIME="${1:-2x}"
HEADLINE='BenchmarkTable2_SqliteHotspots|BenchmarkFigure3_FlameGraphs|BenchmarkFigure4_Roofline|BenchmarkMemsetBandwidth'
CACHE='BenchmarkCompileProgram|BenchmarkInstantiate|BenchmarkMatrixWarm'
DAEMON='BenchmarkDaemonConcurrentProfiles'
SUPERBLOCK='BenchmarkSuperblockMatmul|BenchmarkSuperblockTriad|BenchmarkSuperblockSqlite'
STORE='BenchmarkColdVsWarmStart|BenchmarkShardedMatrix'

{
	go test -run '^$' -bench "$HEADLINE|$CACHE" -benchtime "$BENCHTIME" .
	go test -run '^$' -bench "$DAEMON" -benchtime 100x .
	go test -run '^$' -bench "$SUPERBLOCK" -benchtime 2s .
	go test -run '^$' -bench "$STORE" -benchtime 20x .
} |
	tee /dev/stderr |
	go run ./cmd/benchjson -baseline BENCH_PR8.json > BENCH_PR9.json

echo "wrote BENCH_PR9.json" >&2
