# Whirlpool — build, test and reproduce targets.

GO ?= go

.PHONY: all build vet lint lint-audit lint-baseline test race budget bench bench-check bench-micro profile experiments experiments-full fuzz clean

all: build vet lint test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Whirlpool-specific analyzers (arenaescape, atomicfield, ctxpoll,
# deadlinewait, errflow, floatscore, goroutineleak, hotalloc,
# lockguard, lockorder); `bin/whirlpool-lint -list` describes each.
# Test files are linted too; findings in lint.baseline.json are
# suppressed, anything fresh fails. SARIF lands in lint.sarif for
# code-scanning upload. The binary is built once into bin/ so the
# suite, the annotation audit, and `go vet -vettool=bin/whirlpool-lint
# ./...` all reuse it.
bin/whirlpool-lint: $(shell find cmd/whirlpool-lint internal/analysis -name '*.go' -not -path '*/testdata/*')
	$(GO) build -o $@ ./cmd/whirlpool-lint

lint: bin/whirlpool-lint
	bin/whirlpool-lint -tests -sarif lint.sarif ./...
	bin/whirlpool-lint -tests -audit-annotations ./...

# Cross-check every +whirllint annotation: unknown tags and
# justifications naming symbols that no longer exist fail.
lint-audit: bin/whirlpool-lint
	bin/whirlpool-lint -tests -audit-annotations ./...

# Re-bless current findings: rewrites lint.baseline.json. Review the
# diff — every entry is a known, tolerated finding.
lint-baseline: bin/whirlpool-lint
	bin/whirlpool-lint -tests -update-baseline ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The standing code-budget figures, by one fixed formula: Go lines
# outside benchmark/ and testdata/, non-test and test, for the tree and
# for the packages ROADMAP's budget rule quotes. CHANGES.md entries
# quote this output.
GOFILES = find $(1) -name '*.go' -not -path './benchmark/*' -not -path '*/testdata/*'
budget:
	@printf '%-28s %6d\n' 'tree, non-test' "$$($(call GOFILES,.) -not -name '*_test.go' | xargs cat | wc -l)"
	@printf '%-28s %6d\n' 'tree, _test.go' "$$($(call GOFILES,.) -name '*_test.go' | xargs cat | wc -l)"
	@for p in internal/core internal/shard internal/index internal/store internal/synopsis internal/analysis cmd/whirlpoold; do \
		printf '%-28s %6d\n' "$$p, non-test" "$$($(call GOFILES,$$p) -not -name '*_test.go' | xargs cat | wc -l)"; \
	done

# Pinned core benchmark (XMark seed 1, Q2, k=15, Whirlpool-S) measured
# unsharded and at 2/4/8 shards across a GOMAXPROCS sweep (1/4/8),
# plus the planning-path sweep (cold / synopsis / cached plans);
# writes BENCH_core.json for comparison against the committed baseline.
bench:
	$(GO) run ./cmd/whirlbench -bench-json BENCH_core.json

# Gate the freshly written report the way CI does: hot-path allocation
# budget (≤ 20% of the reuse-disabled baseline), work stealing observed
# in the 8-shard / GOMAXPROCS=8 case, cached planning (a plan-cache hit
# ≥ 2x cheaper than planning from scratch), and the snapshot cold start
# (mmap open ≥ 100x cheaper than a full rebuild). There is no sharded
# speedup gate: on one pinned query a single engine now does a few
# hundred server ops, so sharding is judged on whirlload's sharded_mix
# (see DESIGN.md, sharded execution).
bench-check:
	$(GO) run ./cmd/benchcheck -file BENCH_core.json -alloc-case single -max-alloc-ratio 0.2
	$(GO) run ./cmd/benchcheck -file BENCH_core.json -multicore-case shards-8/gmp-8 -require-steals
	$(GO) run ./cmd/benchcheck -file BENCH_core.json -min-hot-speedup 2
	$(GO) run ./cmd/benchcheck -file BENCH_core.json -min-snapshot-speedup 100

# Pinned core benchmark with CPU and allocation profiles; inspect with
# `go tool pprof cpu.pprof` / `go tool pprof -sample_index=alloc_objects mem.pprof`.
profile:
	$(GO) run ./cmd/whirlbench -bench-json BENCH_core.json -cpuprofile cpu.pprof -memprofile mem.pprof

# One benchmark per paper table/figure plus engine micro-benchmarks.
bench-micro:
	$(GO) test -bench=. -benchmem ./...

# Regenerate every table and figure at reduced scale (minutes).
experiments:
	$(GO) run ./cmd/whirlbench

# Paper-scale documents and per-operation cost (hours).
experiments-full:
	$(GO) run ./cmd/whirlbench -full

# Brief fuzz passes over both parsers, the one binary decoder (WPXS),
# the statistics walk (against a brute-force tree count) and the root
# server's posting stream (against a brute-force descendant test).
fuzz:
	$(GO) test -fuzz FuzzParse -fuzztime 30s ./internal/pattern/
	$(GO) test -fuzz FuzzParse -fuzztime 30s ./internal/xmltree/
	$(GO) test -fuzz FuzzSnapshotV2Corruption -fuzztime 10s ./internal/store/
	$(GO) test -fuzz FuzzCollectStats -fuzztime 10s ./internal/index/
	$(GO) test -fuzz FuzzRootStream -fuzztime 10s ./internal/index/

clean:
	$(GO) clean ./...
	rm -f bin/whirlpool-lint
