# Developer / CI entry points. The repo is stdlib-only; everything below is
# plain `go` tool invocations.
#
#   make vet         go vet, plus the gofmt gate (no file may need formatting)
#   make test        tier-1 gate: build everything, run the full test suite
#   make bench-check vet and test the benchmark module under bench/ (its own
#                    Go module, so ./... skips it): unit tests plus the
#                    scale-1 smoke of all four workloads (~30 s)
#   make race        the parallel sweep engine under the race detector
#   make fuzz-short  brief run of every native fuzz target (seed corpus +
#                    FUZZTIME of new inputs each)
#   make faults      the §V fault-injection campaign (deterministic in SEED)
#   make bench       regenerate every figure/table as benchmarks
#   make bench-smoke every benchmark in every package, one iteration each —
#                    proves the bench suite still compiles and runs
#   make watch-demo  live-telemetry demo: a background restnet sweep with
#                    -serve plus `restnet -watch` attached to it
#   make results     regenerate every committed file under results/ (the
#                    scale-5 run takes a few minutes)
#   make results-check
#                    rerun the scale-1 golden, results/restbench_all_scale1.txt,
#                    and the scale-5 §VI-B statistics, and fail if a single
#                    byte differs from the committed results (~10 s)
#   make clean-cache remove the default local persistent cache directory
#   make verify      what CI runs: vet + test + bench-check + race

GO         ?= go
FUZZTIME   ?= 10s
SEED       ?= 42
CACHE_DIR  ?= .restcache

.PHONY: build vet test bench-check race fuzz-short faults bench bench-smoke watch-demo results results-check clean-cache verify

build:
	$(GO) build ./...

# gofmt -l prints every file that needs formatting; the gate fails on any.
vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l . | tee /dev/stderr)"

test: build
	$(GO) test ./...

# bench/ is a Go module of its own (restperf, the repository's benchmark), so
# the ./... patterns above never compile it. It calls the persist, trace and
# world APIs directly, so it is checked on every change.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# The harness package's differential suites run close to go test's default
# 10-minute per-package deadline under the race detector (they already
# subset their workload grids when built with -race); give them headroom.
race:
	$(GO) test -race -timeout 25m ./...

# `go test -fuzz` accepts a single package per invocation.
fuzz-short:
	$(GO) test -run='^$$' -fuzz=FuzzEncodeDecode  -fuzztime=$(FUZZTIME) ./internal/isa
	$(GO) test -run='^$$' -fuzz=FuzzDecodeProgram -fuzztime=$(FUZZTIME) ./internal/isa
	$(GO) test -run='^$$' -fuzz=FuzzEncodeDecode  -fuzztime=$(FUZZTIME) ./internal/asm
	$(GO) test -run='^$$' -fuzz=FuzzTokenDetector -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzTraceDecode   -fuzztime=$(FUZZTIME) ./internal/persist
	$(GO) test -run='^$$' -fuzz=FuzzRecorderRoundtrip -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run='^$$' -fuzz=FuzzBlockDecode     -fuzztime=$(FUZZTIME) ./internal/sim
	$(GO) test -run='^$$' -fuzz=FuzzBlockInvalidate -fuzztime=$(FUZZTIME) ./internal/sim
	$(GO) test -run='^$$' -fuzz=FuzzPredictorMatchesReference -fuzztime=$(FUZZTIME) ./internal/bpred
	$(GO) test -run='^$$' -fuzz=FuzzJSONString -fuzztime=$(FUZZTIME) ./internal/obs

faults:
	$(GO) run ./cmd/restbench -faults -seed $(SEED) -csv

bench:
	$(GO) test -bench=. -benchmem -run='^$$' .

# One iteration of every benchmark in every package: a cheap CI gate that
# keeps the bench suite from bit-rotting between real benchmarking sessions.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# Live-telemetry demo: run a sensitivity sweep with the OTLP exporter served
# on a local port, and attach the terminal dashboard to it (both need the
# network stack, so both are restnet). The sweep exits on its own; the
# watcher follows the stream until it closes.
WATCH_ADDR ?= 127.0.0.1:7788
watch-demo: build
	$(GO) build -o ./restnet ./cmd/restnet
	./restnet -fig8sens -scale 4 -j 4 -serve $(WATCH_ADDR) >/dev/null 2>&1 & \
	sleep 1 && ./restnet -watch $(WATCH_ADDR); \
	wait

# The committed result files EXPERIMENTS.md quotes. Reports are
# byte-deterministic across -j, so each file is a pure function of the code.
results:
	$(GO) run ./cmd/restbench -all -scale 5 > results/restbench_all_scale5.txt
	$(GO) run ./cmd/restbench -all -scale 1 -csv > results/restbench_all_scale1.txt
	$(GO) run ./cmd/restattack > results/restattack.txt
	$(GO) run ./cmd/restbench -fig7 -chart -scale 2 > results/fig7_chart.txt

# The drift gate: a change that moves any reported number must regenerate
# the results (make results) in the same commit. It also reruns the §VI-B
# statistics at scale 5, the scale the paper's numbers are quoted at, against
# their block of the scale-5 file.
results-check:
	$(GO) run ./cmd/restbench -all -scale 1 -csv > results/.scale1.check
	cmp results/.scale1.check results/restbench_all_scale1.txt
	rm -f results/.scale1.check
	$(GO) run ./cmd/restbench -stats -scale 5 -j 2 > results/.stats5.check
	sed -n '/^§VI-B/,/^$$/p' results/restbench_all_scale5.txt | cmp - results/.stats5.check
	rm -f results/.stats5.check

# Remove the conventional local persistent cache directory (what you pass to
# restbench -cache-dir when you want a project-local store).
clean-cache:
	rm -rf $(CACHE_DIR)

verify: vet test bench-check race
