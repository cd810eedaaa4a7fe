# Whirlpool — build, test and reproduce targets.

GO ?= go

.PHONY: all build vet test race budget bench-micro profile experiments experiments-full fuzz clean

all: build vet test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

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
	for p in internal/core internal/shard internal/index internal/store internal/synopsis cmd/whirlpoold; do \
		count $$p -not "$$p, non-test"; \
	done

# CPU and allocation profiles of what whirlpoold serves on the mix
# workloads (BenchmarkServeMix: the 18 classes over the 8 MB seed-1
# XMark corpus, each run once per iteration); inspect with
# `go tool pprof repro.test cpu.pprof` /
# `go tool pprof -sample_index=alloc_objects repro.test mem.pprof`.
profile:
	$(GO) test -run '^$$' -bench BenchmarkServeMix -cpuprofile cpu.pprof -memprofile mem.pprof .

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
# root server's posting stream (against a brute-force descendant test),
# the engine on random documents and patterns (against the naive
# evaluator) and the /query string escaper (against json.Marshal). The
# corpus cached under $GOCACHE/fuzz is cleared first, so each pass
# fuzzes rather than re-runs it; crashers stay in testdata/fuzz.
fuzz:
	$(GO) clean -fuzzcache
	$(GO) test -fuzz FuzzParse -fuzztime 30s ./internal/pattern/
	$(GO) test -fuzz FuzzParse -fuzztime 30s ./internal/xmltree/
	$(GO) test -fuzz FuzzSnapshotV2Corruption -fuzztime 10s ./internal/store/
	$(GO) test -fuzz FuzzSnapshotRoundTrip -fuzztime 10s ./internal/store/
	$(GO) test -fuzz FuzzCollectStats -fuzztime 10s ./internal/index/
	$(GO) test -fuzz FuzzRootStream -fuzztime 10s ./internal/index/
	$(GO) test -fuzz FuzzEngineVsNaive -fuzztime 10s ./internal/core/
	$(GO) test -fuzz FuzzAppendJSONString -fuzztime 10s ./cmd/whirlpoold/

clean:
	$(GO) clean ./...
