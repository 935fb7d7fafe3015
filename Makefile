GO ?= go

.PHONY: build fmt test vet race bench-go profile profile-scale verify smoke crashtest plandiff perfbench-build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Formatting gate: fails, listing the files, when gofmt would change any
# tracked Go file. Listing tracked files keeps build caches such as
# .bench_build/ out of the check.
fmt:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Planned-vs-interpreted differential under the race detector: every
# query of a fixed-seed synthesized corpus (plus a curated construct
# list) must produce byte-identical results — or the identical error —
# on the compiled-plan path and the tree-walking interpreter, on every
# dialect configuration and on the fault-injected connectors.
plandiff:
	$(GO) test -race -count=1 -run 'TestPlanDiff' ./internal/engine/ ./internal/gdb/

# Go micro-benchmarks (the pre-existing bench target).
bench-go:
	$(GO) test -bench=. -benchmem ./...

# CPU + heap profiles of the fixed-seed Table 3 campaign; inspect with
# `go tool pprof cpu.out` / `go tool pprof mem.out`.
profile:
	$(GO) run ./cmd/gqs-bench -exp table3 -iterations 20 -cpuprofile cpu.out -memprofile mem.out

# CPU and heap profiles of whole Synthesize calls on a 10k-node bulk
# graph (BenchmarkSynthesizeScale in internal/core). The test binary and
# both profiles go to PROFILE_DIR, outside the tree; inspect with
# `go tool pprof -top $(PROFILE_DIR)/core.test $(PROFILE_DIR)/cpu.out`.
PROFILE_DIR ?= $(or $(TMPDIR),/tmp)/gqs-profile-scale
profile-scale:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -run '^$$' -bench 'BenchmarkSynthesizeScale$$' -benchtime 200x -benchmem \
		-o $(PROFILE_DIR)/core.test \
		-cpuprofile $(PROFILE_DIR)/cpu.out -memprofile $(PROFILE_DIR)/mem.out ./internal/core/

# Kill-and-resume differential under the race detector, repeated: a
# campaign killed at a checkpoint boundary (journal tail torn on top)
# must resume into the byte-identical bug report of an uninterrupted run.
crashtest:
	$(GO) test -race -count=3 -run 'TestKillResumeDifferential|TestMidWriteKillResume' ./internal/experiments/

# perfbench is a nested module, so the root `go build ./...` never
# compiles it, yet it imports core and gdb directly: build and vet it
# so an API change that breaks the benchmark fails here.
perfbench-build:
	cd perfbench && $(GO) build ./... && $(GO) vet ./...

# Tier-1 verification gate (see ROADMAP.md), plus the formatting gate,
# the benchmark module build, the crash-safety differential and the
# planned-vs-interpreted differential. Speed is measured by perfbench
# (`bash perfbench/run.sh`), not gated here.
verify: build fmt vet test race perfbench-build crashtest plandiff

# Short resilient-campaign smoke under the race detector: live faults,
# flaky connection, watchdog timeouts — the hardened-runner acceptance.
smoke:
	$(GO) test -race -run 'TestResilientCampaign' -count=1 ./internal/experiments/
