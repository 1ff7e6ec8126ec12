# cWSP reproduction — common targets.

GO ?= go

.PHONY: all build test test-short bench benchmark bench-smoke bench-kernel-gotest fuzz-smoke torture-smoke torture litmus-smoke litmus cwspd-smoke chaos-smoke service-load lint repro repro-check repro-quick examples trace metrics clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Skips the full-scale shape experiments (minutes faster).
test-short:
	$(GO) test -short ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Every BENCHMARK.json workload for one second: builds the benchmark from
# source into .bench_build/ (gitignored) and stops at the first workload
# that errors or has an output that does not match benchmark/golden.json.
benchmark:
	for w in sim-persist sim-base repro-smoke service-mix; do \
		bash benchmark/run.sh --workload $$w --seconds 1 || exit 1; \
	done

# End-to-end exercise of the parallel experiment runner through the
# cwspbench CLI: one figure on a 4-wide pool with a persistent cache, run
# twice — the second invocation is served from the store.
bench-smoke:
	rm -rf .cwsp-cache-smoke
	$(GO) run ./cmd/cwspbench -exp fig06 -scale smoke -jobs 4 -cache-dir .cwsp-cache-smoke
	$(GO) run ./cmd/cwspbench -exp fig06 -scale smoke -jobs 4 -cache-dir .cwsp-cache-smoke
	rm -rf .cwsp-cache-smoke

# Simulation-kernel throughput per cell (quick-scale workloads × schemes
# × core counts) as go-test benchmarks with allocation counts, each cell
# plain and with telemetry attached: the ratio is the cost of telemetry
# on the fast kernel (EXPERIMENTS.md "Kernel benchmarks"). End-to-end
# kernel timing against sha256 goldens is BENCHMARK.json's sim-base and
# sim-persist workloads.
bench-kernel-gotest:
	$(GO) test ./internal/simtest -run xxx -bench RunUntil -benchmem -benchtime 10x

# Short differential-fuzz passes: the kernel-equivalence target (progen
# seed × scheme × crash point, the threaded kernel must agree with the
# reference byte-for-byte), its instrumented arm (the same cells with
# telemetry and a tracer attached, at a fuzzed sample interval and stop
# point), the persist-path models (the WPQ's scan of its own admits, fed
# by one to three PBs under a min-(cycle, id) scheduler, against the
# never-dropping map of each word's newest drain, PB line times against
# the map they replaced, and the PB, WPQ drain ring and RBT rings against
# the collected queues they replaced, reads behind the owner's clock
# included, over operation sequences and PB/WPQ/RBT and burst sizes),
# the memory models (caches, DRAM cache, page image and the write-buffer
# ring against reference models and its old queue over access streams),
# the litmus spec grammar
# round-trip (spec string → plan → spec), the sealed-log codec under the
# journal's and the store's magics (arbitrary bytes → longest verifiable
# prefix, re-decode stable), and the journal's fold of whatever decodes
# (never panics).
fuzz-smoke:
	$(GO) test ./internal/simtest -run xxx -fuzz FuzzKernelEquivalence -fuzztime 20s
	$(GO) test ./internal/simtest -run xxx -fuzz FuzzThreadedEquivalence -fuzztime 10s
	$(GO) test ./internal/persist -run xxx -fuzz FuzzPersistModels -fuzztime 10s
	$(GO) test ./internal/mem -run xxx -fuzz FuzzMemModels -fuzztime 10s
	$(GO) test ./internal/litmus -run xxx -fuzz FuzzLitmusSpec -fuzztime 10s
	$(GO) test ./internal/wal -run xxx -fuzz FuzzDecode -fuzztime 10s
	$(GO) test ./internal/service -run xxx -fuzz FuzzJournalDecode -fuzztime 10s

# Small seeded fault-injection campaign with nested crash-during-recovery
# (depth 2). A failure prints the shrunk `cwsprecover -faults '<spec>'`
# reproducer command; paste it to replay the cell standalone.
torture-smoke:
	$(GO) run ./cmd/cwsptorture -seed 1 -n 4 -w tatp,rb,kmeans -depth 2 -points 3

# Acceptance-scale campaign: 500 cells (100 seeded plans x 5 workloads),
# nested crashes, zero silent divergences required.
torture:
	$(GO) run ./cmd/cwsptorture -seed 1 -n 100 -depth 2 -points 3 -out torture-report.json

# Small seeded persistency-model litmus campaign: generated litmus shapes
# crashed under the real persist path and judged against the allowed
# outcome set derived from each scheme's ordering axioms. A failure
# prints the shrunk `cwsplitmus -replay '<spec>'` reproducer.
litmus-smoke:
	$(GO) run ./cmd/cwsplitmus -seed 1 -n 5 -no-shrink -progress=false

# Acceptance-scale litmus campaign: 50 shapes x 11 schemes x 2 kernels
# (fast = threaded, ref = reference) = 1100 cells, every observed
# post-crash outcome inside the derived set.
litmus:
	$(GO) run ./cmd/cwsplitmus -seed 1 -n 50 -out litmus-report.json

# End-to-end exercise of the experiment daemon as a real subprocess:
# cwspload spawns a cwspd binary, submits a small sweep twice, asserts
# the repeat is byte-identical and served >=99% from the shared
# content-addressed cache, then SIGTERMs the daemon and requires a clean
# drain.
cwspd-smoke:
	$(GO) build -o bin/cwspd ./cmd/cwspd
	$(GO) build -o bin/cwspload ./cmd/cwspload
	./bin/cwspload -spawn-bin ./bin/cwspd -smoke

# Seeded crash-recovery campaign against a real journaled daemon that
# compacts its store and journal after every campaign: 20 SIGKILLs at
# seeded points cycling the queue/run/flush phases (flush kills land in
# and around compactions), a restart after each, then the durability
# contract — zero accepted-but-lost
# campaigns, idempotent replay of journaled results on resubmit, and a
# final report byte-identical to an uninterrupted run.
chaos-smoke:
	$(GO) build -o bin/cwspd ./cmd/cwspd
	$(GO) build -o bin/cwspload ./cmd/cwspload
	./bin/cwspload -spawn-bin ./bin/cwspd -chaos -chaos-kills 20 -chaos-campaigns 6 -seed 1 -q

# Load-generate against an in-process daemon through the cwspload CLI: 32
# concurrent clients over mixed cold/warm campaign traffic; exits 1 on any
# dropped campaign.
service-load:
	$(GO) run ./cmd/cwspload -spawn -clients 32 -requests 2 -warm-seeds 2 -seed 1 -poll 5ms -q

# Static soundness verification: vet, staticcheck (when installed; CI pins
# it), then the independent persistence checker over the checked-in
# example and a fixed block of generated programs (see DESIGN.md
# "Soundness checking" for the CWSP0xx codes).
lint:
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it pinned)"; \
	fi
	$(GO) build -o bin/cwsplint ./cmd/cwsplint
	./bin/cwsplint -seed 1 -count 25 examples/minic/btree.mc

# Regenerate the paper's full evaluation (about a minute and a half on
# two cores; cells run on every core).
repro:
	$(GO) run ./cmd/cwspbench -all -scale full -per-app

# The full evaluation as a golden: regenerate it and diff it against
# results_full.txt, apart from the lines that vary between runs (each
# experiment's "(<id> in <time> at full scale)" and the "runner:"
# summary). Any other difference fails.
REPRO_VARIES = ^\([a-z0-9-]+ in .* at full scale\)$$|^runner:
repro-check:
	mkdir -p bin
	$(GO) run ./cmd/cwspbench -all -scale full -per-app > bin/results_full.got
	grep -Ev '$(REPRO_VARIES)' results_full.txt > bin/results_full.want
	grep -Ev '$(REPRO_VARIES)' bin/results_full.got | diff -u bin/results_full.want -

repro-quick:
	$(GO) run ./cmd/cwspbench -all -scale quick

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/crashconsistency
	$(GO) run ./examples/kvstore
	$(GO) run ./examples/minic
	$(GO) run ./examples/sweep

# Export a Perfetto trace of the kvstore example's cWSP run
# (open kvstore-trace.json in ui.perfetto.dev).
trace:
	$(GO) run ./examples/kvstore -trace-perfetto kvstore-trace.json

# Export the kvstore run's telemetry manifest and sampled time series.
metrics:
	$(GO) run ./examples/kvstore -metrics-out kvstore-metrics.json -timeseries kvstore-series.csv

clean:
	$(GO) clean ./...
