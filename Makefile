# Convenience targets; everything is plain dune underneath.

.PHONY: all build test bench bench-json bench-gate chaos examples doc clean

all: build

build:
	dune build @all

test:
	dune runtest --force

bench:
	dune exec bench/main.exe

# Machine-readable benchmarks: parallel build / batched-query throughput
# (BENCH_parallel.json), storage-backend probe throughput
# (BENCH_storage.json), query-server throughput/latency with the
# plan cache A/B'd (BENCH_server.json), the durable ingestion path —
# fsync batching, query latency under concurrent ingest, recovery time
# (BENCH_ingest.json) — the fault-injection shim's overhead plus
# the degrade/recover cycle cost (BENCH_faults.json) — and the
# replicated pair's shipping lag / follower read throughput
# (BENCH_repl.json).
# ... and the anti-entropy scrub's overhead on a mixed serving
# workload (BENCH_scrub.json).
bench-json:
	dune exec bench/main.exe -- parallel shard storage server ingest faults repl scrub

# Perf regression gate: rerun every experiment bench/gate.py gates
# (parallel, shard, storage, server, repl, scrub) at its default
# (env-tunable) size and hold the results to the checked-in floors in
# bench/floors.json, diffing each BENCH_*.json against its committed
# baseline.  Core-count-aware: scaling floors on >=4 cores, parity
# floors (catching serialization regressions) on smaller boxes.  CI
# runs this target, so the list lives here only.
bench-gate:
	dune exec bench/main.exe -- parallel shard storage server repl scrub
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

clean:
	dune clean
