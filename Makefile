# Developer entry points. CI's test job runs vet, gofmt -l, build,
# test, fuzz, the bench module's vet and test, and bench-smoke; its
# race job runs race.

GO ?= go

.PHONY: build test bench-smoke vet race fuzz bench-pairs

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# race runs CI's race-detector package list: the packages that share
# one compiled program across goroutines, plus the machine's charge
# loops.
race:
	$(GO) test -race ./internal/vm/... ./internal/machine/... ./internal/roofline/... ./pkg/mperf/... ./pkg/mperfd/...

# fuzz is CI's smoke of the two decoders of artifact bytes: the IR
# parser, which reads the module text, and the artifact envelope.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 10s ./internal/ir/
	$(GO) test -run '^$$' -fuzz FuzzDecodeArtifact -fuzztime 10s ./internal/vm/

# bench-smoke runs every benchmark exactly once so they cannot bit-rot;
# it is part of CI and takes a few seconds.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# bench-pairs is bench/README.md's alternating-pairs recipe. It checks
# out BASE under .bench_build/base, then runs PAIRS pairs of the base
# and the working tree, swapping which side runs first, with seed i for
# pair i: WORKLOAD alone, or all four workloads when it is empty, each
# run as long as bench/run.sh's default. It ends with bench's -compare
# of the two run sets; the result files stay in .bench_build/pairs.
#
#   make bench-pairs BASE=HEAD~1 PAIRS=10 WORKLOAD=fig4-roofline
BASE ?= HEAD~1
PAIRS ?= 10
WORKLOAD ?=

bench-pairs:
	rm -rf .bench_build/base .bench_build/pairs
	mkdir -p .bench_build/base .bench_build/pairs
	git archive $(BASE) | tar -x -C .bench_build/base
	out=$$(pwd)/.bench_build/pairs; \
	for i in $$(seq 1 $(PAIRS)); do \
		if [ $$((i % 2)) = 1 ]; then order="base change"; else order="change base"; fi; \
		for side in $$order; do \
			dir=.; [ $$side = base ] && dir=.bench_build/base; \
			(cd $$dir && bash bench/run.sh $(if $(WORKLOAD),-workload $(WORKLOAD)) \
				-seed $$i -o $$out/$$side-$$i.json) || exit 1; \
		done; \
	done; \
	bash bench/run.sh -compare "$$(ls $$out/base-*.json | paste -sd,)" \
		-against "$$(ls $$out/change-*.json | paste -sd,)"
