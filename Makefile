# Developer entry points; CI runs build/test/bench-smoke.

GO ?= go

.PHONY: build test bench-smoke vet

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# bench-smoke runs every benchmark exactly once so they cannot bit-rot;
# it is part of CI and takes a few seconds.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x .
