# Developer entry points. `make check` is the full local gate and mirrors
# what CI runs (.github/workflows/ci.yml).

GO ?= go

.PHONY: build vet wcvet vet-json test race bench alloc-smoke fuzz-smoke journal-smoke admission-smoke partition-smoke cluster-smoke check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-specific analyzers — the simulator-contract checks (policymeta,
# evictloop, floatcmp, clockmono, pkgdoc) and the concurrency-contract
# checks (lockorder, atomicfield, ctxcancel, goroexit, errdrop) — plus
# selected stock vet passes. See docs/ANALYZERS.md.
wcvet:
	$(GO) run ./cmd/wcvet ./...

# Same analyzers, machine-readable: one JSON object with diagnostics,
# //lint:ignore suppressions, and per-analyzer suppressed counts. CI runs
# this so suppressions stay auditable from build output alone.
vet-json:
	$(GO) run ./cmd/wcvet -json ./...

test:
	$(GO) test ./...

# The core tree includes the shared-workload race regression test
# (sweep_race_test.go), which only proves its point under -race; the MRC
# scan runs concurrently with the per-cell fan-out, so it rides along.
# The serving stack (cache, flight, proxy, load) is concurrent by design
# and carries its own regression tests that only bite under -race.
race:
	$(GO) test -race ./internal/core/... ./internal/policy/... ./internal/mrc/... \
		./internal/cache/... ./internal/flight/... ./internal/proxy/... ./internal/load/... \
		./internal/trace/... ./internal/cluster/... ./internal/hierarchy/...

# Replay-path benchmarks (BENCH_ingest.json): the interned columnar
# workload against the string-keyed baseline, plus the partitioned-replay
# scaling curve (p1 single-stream baseline vs 2/4/8 hash partitions; the
# speedup needs idle cores, so expect ~1x on a single-core runner). Then
# the full-grid sweep in its fast configuration — one-pass MRC for LRU
# plus 1/8 document sampling — against per-cell replay of every cell
# (BENCH_mrc.json). See cmd/wcbench and docs/MRC.md.
bench:
	$(GO) test -run '^$$' -bench '^Benchmark(Replay(StringKeyed|Interned)|PartitionedReplay)$$' \
		-benchmem -count 3 ./internal/core | \
		$(GO) run ./cmd/wcbench -derive ReplayStringKeyed=ReplayInterned \
		-derive PartitionedReplay/p1=PartitionedReplay/p2 \
		-derive PartitionedReplay/p1=PartitionedReplay/p4 \
		-derive PartitionedReplay/p1=PartitionedReplay/p8 \
		-o BENCH_ingest.json
	@cat BENCH_ingest.json
	$(GO) test -run '^$$' -bench '^BenchmarkSweepGrid(PerCell|Fast)$$' \
		-count 3 ./internal/core | \
		$(GO) run ./cmd/wcbench -baseline SweepGridPerCell -new SweepGridFast \
		-o BENCH_mrc.json
	@cat BENCH_mrc.json
	$(GO) test -run '^$$' -bench '^BenchmarkProxy(SingleLock|Sharded|Hit)$$' \
		-benchmem -count 3 ./internal/proxy | \
		$(GO) run ./cmd/wcbench -baseline ProxySingleLock/c8 -new ProxySharded/c8 \
		-o BENCH_proxy.json
	@cat BENCH_proxy.json

# The zero-allocation gate for the steady-state hit path, two ways: the
# AllocsPerRun regression test (exact, compiler-visible) and the ProxyHit
# benchmark piped through wcbench -assert-zero (the same number CI and
# BENCH_proxy.json report). Either one failing means an allocation crept
# back into the serving path. See docs/PROXY.md (Memory management).
alloc-smoke:
	$(GO) test -run '^TestHitPathZeroAlloc$$' -v ./internal/proxy
	$(GO) test -run '^$$' -bench '^BenchmarkProxyHit$$' -benchmem -count 1 ./internal/proxy | \
		$(GO) run ./cmd/wcbench -assert-zero ProxyHit

# Short fuzz budget per trace-decoder target; CI runs the same loop.
fuzz-smoke:
	for target in FuzzParseSquidLine FuzzParseCLFLine FuzzBinaryReader FuzzInternedReader FuzzColumnar; do \
		$(GO) test -run="^$$target$$" -fuzz="^$$target$$" -fuzztime=30s ./internal/trace || exit 1; \
	done

# End-to-end observability smoke: generate a tiny trace, sweep it with a
# run journal, and summarize the journal (wcreport -journal validates it
# via core.ReadJournal and exits non-zero on a malformed file). CI runs
# the same sequence. See docs/METRICS.md.
journal-smoke:
	tmp=$$(mktemp -d) && \
	$(GO) run ./cmd/wcgen -profile dfn -requests 20000 -seed 7 -o $$tmp/tiny.wct.gz && \
	$(GO) run ./cmd/wcsim -trace $$tmp/tiny.wct.gz -policies lru,gdstar:p \
		-size-pcts 1,4 -journal $$tmp/run.jsonl && \
	$(GO) run ./cmd/wcreport -journal $$tmp/run.jsonl && \
	rm -rf $$tmp

# Admission-layer smoke: sweep a small policy × admission grid with a
# journal and assert the admission axis actually ran — the sweep_start
# record lists all three filters and the filtered run_end records carry
# admission counters. CI runs the same sequence. See docs/ADMISSION.md.
admission-smoke:
	tmp=$$(mktemp -d) && \
	$(GO) run ./cmd/wcgen -profile dfn -requests 20000 -seed 7 -o $$tmp/tiny.wct.gz && \
	$(GO) run ./cmd/wcsim -trace $$tmp/tiny.wct.gz -policies lru,gdsf \
		-admissions none,tinylfu,arc-ghost -size-pcts 1 \
		-journal $$tmp/run.jsonl && \
	$(GO) run ./cmd/wcreport -journal $$tmp/run.jsonl && \
	grep -q '"admissions":\["none","tinylfu","arc-ghost"\]' $$tmp/run.jsonl && \
	grep -q '"admission":"tinylfu"' $$tmp/run.jsonl && \
	grep -q '"admission":"arc-ghost"' $$tmp/run.jsonl && \
	grep -q '"admissionRejects"' $$tmp/run.jsonl && \
	grep -q '"admitted"' $$tmp/run.jsonl && \
	rm -rf $$tmp

# Out-of-core replay smoke: convert a generated record trace to the WCT3
# columnar format, replay it memory-mapped with partitioned simulators,
# and require byte-identical results against the in-RAM record-stream
# path (only the header line naming the trace file differs). CI runs the
# same sequence. See docs/TRACES.md and docs/ARCHITECTURE.md.
partition-smoke:
	tmp=$$(mktemp -d) && \
	$(GO) run ./cmd/wcgen -profile dfn -requests 20000 -seed 7 -o $$tmp/tiny.wci && \
	$(GO) run ./cmd/wcanon -passthrough -format wct3 -i $$tmp/tiny.wci -o $$tmp/tiny.wci3 && \
	$(GO) run ./cmd/wcsim -trace $$tmp/tiny.wci -size-pcts 1,4 -csv | tail -n +2 > $$tmp/ram.csv && \
	$(GO) run ./cmd/wcsim -trace $$tmp/tiny.wci3 -partitions 4 -size-pcts 1,4 -csv | tail -n +2 > $$tmp/mmap.csv && \
	diff -u $$tmp/ram.csv $$tmp/mmap.csv && \
	rm -rf $$tmp

# Multi-node smoke under the race detector: the 3-node in-process fleet
# (one origin fetch per unique doc fleet-wide, counters reconciled), the
# fault paths (peer down / timeout / non-authoritative / mid-run join),
# and the sim/live parity replay. See docs/CLUSTER.md.
cluster-smoke:
	$(GO) test -race -run '^TestCluster' -v ./internal/proxy ./internal/load ./internal/hierarchy

check: build vet wcvet vet-json test race
