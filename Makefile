GO ?= go

.PHONY: all build test race bench figures lint generate generate-check perfbench-check clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Host-performance microbenchmarks (see docs/PERF.md). Writes the raw
# `go test -bench` output to bench_current.txt and records it as
# BENCH_<date>.json; set BENCH_BASELINE to a previous raw output to get
# a speedup comparison in both the table and the JSON.
BENCH_DATE := $(shell date +%F)
BENCH_BASELINE ?=

bench:
	$(GO) test -run '^$$' -bench=. -benchmem -count=1 ./... > bench_current.txt || (cat bench_current.txt; exit 1)
	$(GO) run ./tools/benchdiff $(if $(BENCH_BASELINE),-old $(BENCH_BASELINE)) -new bench_current.txt -json BENCH_$(BENCH_DATE).json

figures:
	$(GO) run ./cmd/xbgas-bench -all

# gofmt -l only lists offenders; fail the target (and CI) when the
# list is non-empty. Covers the generator and the other tools too.
lint:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi
	$(GO) vet ./... ./tools/...

# Regenerate the typed API surface (internal/*/typed_gen.go, the test
# registries, docs/API_SURFACE.md) from the //xbgas:typed annotations,
# then hold the output to the same bar as hand-written code. The
# emitter pipes everything through go/format, so gofmt here is a
# tripwire, not a formatter.
generate:
	$(GO) generate ./...
	@out="$$(gofmt -l internal docs 2>/dev/null)"; if [ -n "$$out" ]; then echo "generated output does not gofmt:"; echo "$$out"; exit 1; fi
	$(GO) vet ./internal/xbrtime/ ./internal/core/ ./tools/gen/

# Fail when the checked-in generated files drift from what the
# annotations produce — the CI gate behind "go generate is
# reproducible".
generate-check: generate
	git diff --exit-code -- '*_gen.go' docs/

# The benchmark (perfbench/) is a Go module of its own, so the
# root `go test ./...` never builds it, yet it is the one consumer that
# pins the core API it calls. Vet it and run its tiny-mode self-test.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

clean:
	$(GO) clean ./...
