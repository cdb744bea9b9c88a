GO ?= go

.PHONY: build test race vet fmt-check fuzz-seeds perfbench-test golden-update staticcheck e2e e2e-cluster serve check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race is the tier the determinism and cache-concurrency tests are written
# for: runBatch at Parallelism 8, single-flight cache fills, concurrent
# writers to one cache directory.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# fmt-check fails when any tracked Go file is not gofmt-formatted. Listing
# files through git keeps the untracked .bench_build/ module cache out.
fmt-check:
	@out="$$(gofmt -l $$(git ls-files '*.go'))"; \
	if [ -n "$$out" ]; then echo "gofmt -l flags:"; echo "$$out"; exit 1; fi

# fuzz-seeds replays every checked-in fuzz seed corpus as plain tests (no
# fuzzing engine) under the race detector, catching trace-format,
# batch-decoder, submit-decoder, flat-page-table, traceparent-parser,
# pangloss-delta-cache and vamp-region-map regressions deterministically.
fuzz-seeds:
	$(GO) test -race -run=Fuzz ./internal/trace/ ./internal/service/ ./internal/vm/ ./internal/dtrace/ ./internal/prefetch/pangloss/ ./internal/prefetch/vamp/

# perfbench-test runs the repo benchmark's own tests (ledger, pprof decoder,
# statistics, workload wiring) under the race detector. perfbench/ is a
# separate Go module (replace repro => ../), so the root `go test ./...`
# never reaches it. Standard library only: no network needed.
perfbench-test:
	$(GO) -C perfbench test -race ./...

# golden-update regenerates the checked-in figure snapshots after an
# intentional figure change. Inspect the diff before committing.
golden-update:
	$(GO) test ./internal/experiments -run TestGolden -update

# staticcheck runs when the binary is available (CI installs it; locally
# `go install honnef.co/go/tools/cmd/staticcheck@latest`) and is skipped
# otherwise so check works in hermetic environments.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# e2e drives the daemon end to end: an httptest psimd serving real
# simulations to concurrent experiment clients, with byte-parity and
# cross-client dedup assertions.
e2e:
	$(GO) test -race -run 'TestE2E' -v ./internal/service/

# e2e-cluster drives a 3-node in-process cluster: byte-identical figures vs
# a local run, zero duplicate simulations cluster-wide (cross-node cache
# fills), and survival of a node killed mid-batch.
e2e-cluster:
	$(GO) test -race -run 'TestE2ECluster' -v ./internal/service/

# serve runs the simulation daemon on localhost:8080.
serve:
	$(GO) run ./cmd/psimd

# check is the full CI gate.
check: fmt-check vet staticcheck build test race fuzz-seeds perfbench-test
