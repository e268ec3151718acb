# Convenience targets; everything is plain dune underneath.

.PHONY: all build test bench bench-json bench-gate chaos examples doc loc clean

all: build

build:
	dune build @all

test:
	dune runtest --force

bench:
	dune exec bench/main.exe

# Machine-readable benchmarks: parallel build / batched-query throughput
# (BENCH_parallel.json), probe throughput of the column backings —
# the built index's flat buffers and the compressed (xseqcol2) columns,
# resident and paged — and the compressed-paged/columnar latency ratio
# (BENCH_storage.json),
# query-server throughput/latency with the plan cache A/B'd
# (BENCH_server.json), the durable ingestion path —
# fsync batching, query latency under concurrent ingest, recovery time
# (BENCH_ingest.json) — the fault-injection shim's overhead plus
# the degrade/recover cycle cost (BENCH_faults.json) — and the
# replicated pair's shipping lag / follower read throughput
# (BENCH_repl.json).
# ... and the anti-entropy scrub's overhead on a mixed serving
# workload (BENCH_scrub.json), and the words a snapshot load allocates
# and keeps, symbol table included (BENCH_load.json), and the page counts
# of Table 7, Fig. 16(c,d) and the LRU ablation at fixed sizes
# (BENCH_scorecard.json).
bench-json:
	dune exec bench/main.exe -- parallel shard storage server ingest faults repl scrub load scorecard

# Perf regression gate: rerun every experiment bench/gate.py gates
# (parallel, shard, storage, server, repl, scrub, load, scorecard) at its
# default (env-tunable) size and hold the results to the checked-in floors
# in bench/floors.json, diffing each BENCH_*.json against its committed
# baseline; the scorecard's counts must equal the committed ones.
# Core-count-aware: scaling floors on >=4 cores, parity floors (catching
# serialization regressions) on smaller boxes; the load layer's memory
# ceilings hold on any box.  CI runs this target, so the
# list lives here only.
bench-gate:
	dune exec bench/main.exe -- parallel shard storage server repl scrub load scorecard
	python3 bench/gate.py

# Seeded fault-injection torture suite at chaos intensity: many more
# randomized (seed, schedule) runs than the default test pass.
# Failures print the (seed, schedule) pair to replay them.  Plus the
# multi-process smokes:
#   - failover: kill -9 the primary of a semi-sync pair mid-workload,
#     promote the follower, prove no acked record lost and reads never
#     stalled;
#   - reseed: wipe-and-reseed and prune-and-reseed followers converge
#     byte-identically via snapshot transfer, and the offline scrub
#     catches a flipped byte with exit 4;
#   - partition: seeded black-hole (SIGSTOP + XSEQ_FAULT_SCHEDULE) ->
#     heartbeat timeout -> auto-promote -> heal -> the old primary
#     fences.
chaos:
	XSEQ_CHAOS_ITERS=400 dune exec test/test_fault.exe -- test torture
	dune exec test/test_fault.exe -- test partition
	dune build bin/xseq_cli.exe
	sh test/repl_failover_smoke.sh
	sh test/reseed_smoke.sh
	sh test/partition_chaos_smoke.sh

examples:
	dune exec examples/quickstart.exe
	dune exec examples/project_catalog.exe
	dune exec examples/schema_driven.exe
	dune exec examples/bibliography.exe -- 10000
	dune exec examples/auction_site.exe -- 10000
	dune exec examples/live_feed.exe

# Net lines of code, a tracked number: .ml + .mli lines per lib/
# directory, then for all of lib/, then apart for the load and query hot
# path (the store, the labelled index, the symbol table and Xseq).
# Prints only; nothing gates on it.
HOT_PATH = lib/xstorage/store lib/xindex/labeled lib/sequencing/symtab lib/xseq/xseq

loc:
	@for d in lib/*/; do \
	  printf '%6d  %s\n' "$$(cat $$d*.ml $$d*.mli 2>/dev/null | wc -l)" "$$d"; \
	done
	@printf '%6d  lib/\n' "$$(cat lib/*/*.ml lib/*/*.mli | wc -l)"
	@printf '%6d  hot path (%s)\n' \
	  "$$(for m in $(HOT_PATH); do cat $$m.ml $$m.mli; done | wc -l)" \
	  "$(notdir $(HOT_PATH))"

clean:
	dune clean
