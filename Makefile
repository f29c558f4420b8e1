GO ?= go
# GOFLAGS is shared by every go invocation below (exported, so nested
# `go build` calls inside tests see it too); override for e.g.
# `make check GOFLAGS=-count=1`.
GOFLAGS ?=
export GOFLAGS
FUZZTIME ?= 10s
OTALINT := bin/otalint
# Extra flags for the lint run; CI passes -github so each finding is
# mirrored as a ::error workflow command annotating the PR diff.
OTALINT_FLAGS ?=

.PHONY: check build vet test race fmt benchcheck fuzz lint vulncheck

# The full gate: formatting, build, vet, the repo's own analyzer suite,
# and the test suite under the race detector. CI and pre-commit both
# run this.
check: fmt build vet lint race

# The repo-specific analyzers (see internal/lint and DESIGN.md §8):
# lockscope, detclock, errsink, lockorder. The hot path's
# zero allocations and the snapshot wire format are pinned by tests
# instead (TestHotPathAllocs, TestSnapshotGolden). Suppress a finding
# only with //lint:allow <analyzer> <reason>; stale or reasonless
# directives fail the build too. The loader shells out to `go list -deps -export`,
# which reuses (and warms) the same build cache `make vet` compiles
# into — running them back to back pays for the export data once.
lint:
	@mkdir -p bin
	$(GO) build -o $(OTALINT) ./cmd/otalint
	./$(OTALINT) $(OTALINT_FLAGS) ./...

# Known-vulnerability smoke. govulncheck needs network access to fetch
# the vuln DB and is not baked into every dev container, so the target
# degrades to a notice where it is unavailable; CI runs the real thing.
vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "vulncheck: govulncheck not installed; skipping (CI runs it)"; \
	fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The observability overhead gate: rerun just the instrumented serving
# benchmark and its uninstrumented baseline (-count=3; cmd/benchgate
# compares per-name minima) and fail when the measurement plane costs
# more than 5% ns/op. CI runs this so a clock read or allocation
# creeping onto the unsampled hot path fails the build, not a later
# profiling session.

# Measurement methodology, tuned for noisy shared CI runners where
# run-to-run swings exceed the 5% effect being gated:
#   - a fixed -benchtime (iteration count, not wall time) keeps go
#     test's dynamic calibration runs out of the numbers;
#   - `go test -count=N` runs all N baseline reps then all N
#     instrumented reps, so a multi-second frequency/throttle window
#     biases one whole group — instead the PAIR runs adjacently in one
#     invocation, repeated in a shell loop, and cmd/benchgate gates on
#     the median of the per-invocation overheads (paired comparison:
#     each pair shares its noise window).
benchcheck:
	@mkdir -p bin
	@: > bin/BENCH_gate.txt
	@for i in 1 2 3 4 5 6 7 8 9; do \
		$(GO) test -run '^$$' -bench 'BenchmarkLookupAdmitAll$$|BenchmarkLookupInstrumented$$' \
			-benchmem -benchtime 1000000x ./internal/engine >> bin/BENCH_gate.txt || exit 1; \
	done
	$(GO) run ./cmd/benchjson < bin/BENCH_gate.txt > bin/BENCH_gate.json
	$(GO) run ./cmd/benchgate -file bin/BENCH_gate.json

# Coverage-guided smoke over every fuzz target in the repo, $(FUZZTIME)
# each (wire-protocol parsers, snapshot reader, trace importers). Go
# allows one -fuzz pattern per invocation, hence the loop.
fuzz:
	@set -e; \
	for pkg in $$(grep -rl '^func Fuzz' --include='*_test.go' . | xargs -n1 dirname | sort -u); do \
		for target in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "== fuzz $$pkg $$target"; \
			$(GO) test -run '^$$' -fuzz "^$$target$$" -fuzztime $(FUZZTIME) $$pkg; \
		done; \
	done

# gofmt -l prints offending files; turn any output into a failure.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi
