# Developer entry points. CI runs `make lint` for the static checks and
# the remaining steps directly; these targets exist for local use and
# for regenerating committed artifacts.

BENCH_RECORD ?= BENCH_PR12.json
FUZZTIME ?= 30s
MUVET ?= bin/muvet

# Everything the vettool binary is built from: the driver, the analyzer
# suite, and the shared CFG/dataflow layer. The binary is a real file
# target over these, so repeated `make lint` runs (and CI restoring
# bin/muvet from cache) skip the rebuild when nothing changed.
MUVET_SRC := $(wildcard cmd/muvet/*.go \
	internal/tools/muvet/*.go \
	internal/tools/muvet/analysis/*.go)

.PHONY: test lint muvet bench bench-record diff-harness cover

test:
	go build ./...
	go test ./...

# Build the repo's vettool (six analyzers enforcing the determinism —
# wall clock, pointer identity, global RNG, RNG derivation, map order —,
# inbox-aliasing, hot-path-allocation and step-contract — stepblock,
# stepalias, ctxretain — rules; see internal/tools/muvet and DESIGN.md).
$(MUVET): $(MUVET_SRC)
	go build -o $(MUVET) ./cmd/muvet

muvet: $(MUVET)

# Static contract enforcement: gofmt, stock vet, the muvet suite (over
# the default and simdebug build tags), and staticcheck when installed.
# ./... stops at the nested cmd/mubench module, which wraps node
# programs in its own Step and Program, so vet runs there as well.
lint: $(MUVET)
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	go vet ./...
	go vet -vettool=$(MUVET) ./...
	go vet -vettool=$(MUVET) -tags simdebug ./...
	cd cmd/mubench && go vet ./...
	cd cmd/mubench && go vet -vettool=$(abspath $(MUVET)) ./...
	cd cmd/mubench && go vet -vettool=$(abspath $(MUVET)) -tags simdebug ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
		else echo "staticcheck not installed; skipping"; fi

# Differential verification (reference engine vs sharded engine,
# workers 1 and 4): the seeded randomized scenario corpus, the fixed
# shard-scale class (8 to 24 shards, where route groups form), the fixed
# sleepers class (nodes sleeping in Idle through crashes and aborts) and
# the paper axis (every E1–E13 node program), then a native fuzz pass
# over fresh generator seeds. Every engine rewrite must pass this before
# it lands. Tune the fuzz budget with FUZZTIME=… .
diff-harness:
	go test ./internal/harness -run 'TestDifferentialEngineRandomized|TestDifferentialShardScale|TestDifferentialSleepers|TestPaperWorkloadsDifferential' -count=1 -v
	go test ./internal/harness -run '^$$' -fuzz FuzzEngineDifferential -fuzztime $(FUZZTIME)

# Coverage over every package: the profile lands in cover.out (for
# `go tool cover -html`), the per-function breakdown in
# coverage-summary.txt, and the total line on stdout. CI runs this
# target and uploads both files as an artifact.
cover:
	go test -coverprofile=cover.out -coverpkg=./... ./...
	go tool cover -func=cover.out > coverage-summary.txt
	tail -n 1 coverage-summary.txt

# The engine micro-benchmark cells, full precision.
bench:
	go test -run '^$$' -bench 'BenchmarkEngineRound' -benchmem .

# Regenerate the committed performance baseline: run every
# BenchmarkEngineRound* cell once, convert the output to the
# mucongest.bench/v1 schema, and validate it. Commit the result when a
# PR moves engine performance.
bench-record:
	go test -run '^$$' -bench 'BenchmarkEngineRound' -benchtime 1x -benchmem . \
		| go run ./internal/tools/benchjson > $(BENCH_RECORD)
	go run ./internal/tools/recordcheck < $(BENCH_RECORD)
	@echo "wrote $(BENCH_RECORD)"
