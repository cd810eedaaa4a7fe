# Whirlpool — build, test and reproduce targets.

GO ?= go

.PHONY: all build vet lint test race budget bench bench-check bench-micro profile experiments experiments-full fuzz clean

all: build vet lint test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The Whirlpool analyzers (`internal/analysis`), driven by the go
# command as a vet tool: test files included, facts flowing between
# packages (and from the standard library) through .vetx files.
bin/whirlpool-lint: $(shell find cmd/whirlpool-lint internal/analysis -name '*.go' -not -path '*/testdata/*')
	$(GO) build -o $@ ./cmd/whirlpool-lint

lint: bin/whirlpool-lint
	$(GO) vet -vettool=bin/whirlpool-lint ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The standing code-budget figures, by one fixed formula: Go lines
# outside benchmark/ and testdata/, non-test and test, for the tree and
# for the packages ROADMAP's budget rule quotes — all lines, then code
# lines (neither blank nor a // comment). CHANGES.md entries quote this
# output.
budget:
	@count() { f=$$(find $$1 -name '*.go' -not -path './benchmark/*' -not -path '*/testdata/*' $$2 -name '*_test.go'); \
		printf '%-28s %6d %6d\n' "$$3" $$(cat $$f | wc -l) $$(grep -hvE '^[[:space:]]*(//|$$)' $$f | wc -l); }; \
	printf '%-28s %6s %6s\n' '' lines code; \
	count . -not 'tree, non-test'; \
	count . '' 'tree, _test.go'; \
	for p in internal/core internal/shard internal/index internal/store internal/synopsis internal/analysis cmd/whirlpoold; do \
		count $$p -not "$$p, non-test"; \
	done

# Pinned core benchmark (XMark seed 1, Q2, k=15, Whirlpool-S) measured
# unsharded and at 2/4/8 shards across a GOMAXPROCS sweep (1/4/8),
# plus the planning-path sweep (cold / synopsis / cached plans);
# writes BENCH_core.json for comparison against the committed baseline.
bench:
	$(GO) run ./cmd/whirlbench -bench-json BENCH_core.json

# Gate the freshly written report the way CI does: hot-path allocation
# budget (≤ 20% of the reuse-disabled baseline), cached planning (a
# plan-cache hit ≥ 2x cheaper than planning from scratch), and the
# snapshot cold start (mmap open ≥ 50x cheaper than a full rebuild: with
# the keyword index gone a full build costs 0.63–0.67 s, so open measured
# 82–128x on a 2-vCPU host, and 50 is the round floor below that).
# Steals and sharded speedup are not gated: on one pinned query a single
# engine does a few hundred server ops, so stealing is held by the shard
# tests and sharding is judged on whirlload's sharded_mix (see
# DESIGN.md, sharded execution).
bench-check:
	$(GO) run ./cmd/benchcheck -file BENCH_core.json -alloc-case single -max-alloc-ratio 0.2
	$(GO) run ./cmd/benchcheck -file BENCH_core.json -min-hot-speedup 2
	$(GO) run ./cmd/benchcheck -file BENCH_core.json -min-snapshot-speedup 50

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
# the snapshot round trip (a parse and its materialized snapshot, node
# for node), the statistics walk (against a brute-force tree count), the
# root server's posting stream (against a brute-force descendant test)
# and the /query string escaper (against json.Marshal).
fuzz:
	$(GO) test -fuzz FuzzParse -fuzztime 30s ./internal/pattern/
	$(GO) test -fuzz FuzzParse -fuzztime 30s ./internal/xmltree/
	$(GO) test -fuzz FuzzSnapshotV2Corruption -fuzztime 10s ./internal/store/
	$(GO) test -fuzz FuzzSnapshotRoundTrip -fuzztime 10s ./internal/store/
	$(GO) test -fuzz FuzzCollectStats -fuzztime 10s ./internal/index/
	$(GO) test -fuzz FuzzRootStream -fuzztime 10s ./internal/index/
	$(GO) test -fuzz FuzzAppendJSONString -fuzztime 10s ./cmd/whirlpoold/

clean:
	$(GO) clean ./...
	rm -f bin/whirlpool-lint
