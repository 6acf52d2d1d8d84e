# Developer entry points. `make check` is the pre-commit gate: gofmt, vet,
# build, the client's dependency check, the core-count matrix over the frame-serving packages, and the
# race-detector suite over the packages that fan work across
# goroutines (eval experiment generators, the pooled SSIM comparer, the
# parallel cutoff preprocessing, and the live runtime stack: wall clock,
# server lifecycle, the live client, transport framing, and the
# sim-vs-live loopback e2e)
# or share state (the obs metrics registry, the cache and prefetcher once
# instrumented into a shared registry, core.Env's point-metadata memo).
# `make fuzz` runs the six native fuzz targets for real; it is not part of
# `check`, where `go test` only replays their seed corpora.

GO ?= go

.PHONY: check fmt vet build deps bench-build test test-procs race fuzz bench bench-e2e bench-pairs micro-pairs smoke loc knobs thresholds

check: fmt vet build deps bench-build test-procs race

# Fails, listing the files, when any Go file is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# The client is the phone's half: it links neither the server nor its
# render scheduler. Fails, naming the package, when it does.
deps:
	@for p in ./internal/client ./cmd/coterie-client; do \
		bad="$$($(GO) list -deps $$p | grep -E '^coterie/internal/(server|sched)$$')"; \
		if [ -n "$$bad" ]; then echo "$$p links $$bad"; exit 1; fi; \
	done

# The benchmark harness is its own module and imports this one's packages
# by name (server.Dial, render.Reproject, ...): vet and build it, without
# running it, so a removed symbol it needs fails here and not in the
# pipeline. -o /dev/null: a plain build would drop the binary into bench/.
bench-build:
	cd bench && $(GO) vet ./... && $(GO) build -o /dev/null ./...

test:
	$(GO) test ./...

# Core-count matrix: frame bytes are a pure function of the grid point, so
# the frame-serving packages (and transport, the wire they speak, and the
# client that decodes those frames) must pass on 1, 2 and all cores, as
# must par, whose render pool fans a call out by workers against calls in
# flight. -count=1 because the test cache does not key on GOMAXPROCS.
test-procs:
	@for p in $$(printf '%s\n' 1 2 $$(nproc) | sort -un); do \
		echo "GOMAXPROCS=$$p"; \
		GOMAXPROCS=$$p $(GO) test -count=1 ./internal/server/... ./internal/client/... \
			./internal/render/... ./internal/sched/... ./internal/lru/... \
			./internal/transport/... ./internal/par/... || exit 1; \
	done

# internal/eval runs alone: its determinism test renders at GOMAXPROCS 8,
# and eight runnable threads beside internal/server's real-time loopback
# sessions on a small host make those sessions miss their vsyncs.
race:
	$(GO) test -race ./internal/eval/...
	$(GO) test -race ./internal/ssim/... ./internal/cutoff/... ./internal/core/... \
		./internal/runtime/... ./internal/server/... ./internal/client/... \
		./internal/transport/... ./internal/cache/... ./internal/prefetch/... \
		./internal/obs/... ./internal/par/... ./internal/render/... \
		./internal/codec/... ./internal/sched/... ./internal/netsim/... \
		./internal/world/... ./internal/lru/...

# Native fuzzing: each Fuzz* target in turn for FUZZTIME (six targets,
# ~1 min at the default), e.g. `make fuzz FUZZTIME=2m`. A failing input is
# written under the package's testdata/fuzz/ and replays in `go test` from
# then on.
FUZZTIME ?= 10s
FUZZ_TARGETS = codec:FuzzDecode codec:FuzzDeltaDecode trace:FuzzRead \
	transport:FuzzWireDecoders transport:FuzzReassembler fisync:FuzzDecodeStates
fuzz:
	@for t in $(FUZZ_TARGETS); do \
		pkg=./internal/$${t%%:*}; fn=$${t##*:}; \
		echo "$$fn ($$pkg, $(FUZZTIME))"; \
		$(GO) test -run '^$$' -fuzz "^$$fn\$$" -fuzztime $(FUZZTIME) $$pkg || exit 1; \
	done

# End-to-end smoke: build both binaries, run a short live session over a
# real socket on localhost, and check the client printed a report.
smoke:
	./scripts/smoke.sh

# Hot-path micro-benchmarks (ssim comparer, panorama ray-cast and its frame
# gather, codec kernels and frames, the server's cold miss and store hit).
# The server package runs at -cpu 1,2: BenchmarkStoreHit/parallel is what
# the frame store's one lock costs when two cores do nothing but look up,
# BenchmarkColdMiss/parallel is one miss per core through one render pool.
bench:
	$(GO) test -bench . -benchmem -run '^$$' ./internal/ssim/... ./internal/render/... ./internal/world/... ./internal/codec/...
	$(GO) test -bench . -benchmem -run '^$$' -cpu 1,2 ./internal/server/...

# The repository's benchmark (BENCHMARK.json): five workloads against the
# real server, end-to-end metrics, then a traced run with per-layer metrics
# (~1.5 min). Pass flags with ARGS, e.g.
#   make bench-e2e ARGS="--workload cold_scatter --seed 1 --seconds 10 --trace 0"
bench-e2e:
	bash bench/run.sh $(ARGS)

# Alternating parent / change pairs of one workload, with the summary table
# a performance claim needs (medians, quartiles, pairs won), e.g.
#   make bench-pairs PARENT=HEAD~1 WORKLOAD=cold_scatter SEED=3 N=10
PARENT ?= HEAD~1
WORKLOAD ?= cold_scatter
SEED ?= 1
N ?= 10
bench-pairs:
	./scripts/pairs.sh $(PARENT) $(WORKLOAD) $(SEED) $(N)

# Alternating parent / change pairs of one package's Go micro-benchmarks at
# -cpu 1 and -cpu 2, with the same summary (medians, quartiles, pairs won),
# e.g.
#   make micro-pairs PARENT=HEAD~1 PKG=./internal/server BENCH=ColdMiss N=5
PKG ?= ./internal/server
BENCH ?= ColdMiss
micro-pairs:
	./scripts/micro-pairs.sh $(PARENT) $(PKG) $(BENCH) $(N)

# Rewrite the stored offline output (internal/cutoff/thresholds/, embedded
# and loaded by core.PrepareEnv): every catalog game's cutoff map from a
# fresh cutoff.Compute and its per-leaf distance thresholds from a fresh
# calibration. Run it when a change moves a scene, a map or a threshold and
# commit the files with it; TestDefaultMapsUnchanged fails until then.
thresholds:
	$(GO) test -count=1 ./internal/cutoff -run TestDefaultMapsUnchanged -update

# Non-test Go lines under internal/ (total and per package) and cmd/, the
# flags each cmd/ binary defines, and the exported fields of the config
# structs (*Config, *Options, *Params, server.Server): the headline numbers
# (lines, knobs and settable values) of a simplicity PR.
loc:
	./scripts/loc.sh

# Each settable value `make loc` counts, with the number of non-test Go
# files outside its own package that set it by name, fewest first: the
# review list of values that could be constants. A name heuristic, not a
# gate.
knobs:
	./scripts/knobs.sh
