#!/usr/bin/env python3
"""Bench regression gate.

Reads the fresh BENCH_parallel/shard/storage/server/repl/scrub/load/
scorecard.json that `make bench-gate` produces, applies the checked-in floors from
bench/floors.json, and diffs the results against the committed
BENCH_*.json baselines so perf regressions fail loudly instead of
drifting.

The load layer (BENCH_load.json) is gated on memory: per load
configuration, the words a load allocates, the words the loaded index
retains, the words of those its symbol table reaches and the bytes its
columns keep off the heap must stay under
checked-in ceilings.  So is set-up, per corpus: the words the XML parse,
each build phase and each snapshot save allocate, and the bytes of each
snapshot.  Those counts do not depend on the machine, so the ceilings
hold on every core count; they apply when the run used the record count
they were set for.

The scorecard (BENCH_scorecard.json: the page counts and result sizes
of Table 7, Fig. 16(c,d) and the LRU ablation at fixed sizes) is held
exactly to the committed file, value by value, and the storage
experiment's probe count must be the same on every backing and, at the
committed record count, equal to the committed one.  These exact gates
need the committed files: where git has none (a `git archive` copy, a
file not yet committed) the gate fails rather than pass unchecked.

Floors are core-count-aware: on a runner with at least
`min_cores_for_scaling` cores the 'scaling' floors apply (parallelism
must actually pay); on smaller boxes the 'parity' floors apply — real
speedup is physically impossible there, but the multi-domain and
multi-shard paths must not serialize the work, which is exactly the
0.33x/0.27x regression this gate exists to catch.

The committed-baseline diff only *enforces* when the fresh run and the
committed file were measured on the same core count (comparing a
laptop baseline against a CI runner is meaningless); otherwise it is
reported for the log only.

Exit status: 0 = all gates pass, 1 = regression, 2 = missing/bad input.
"""

import json
import subprocess
import sys

FLOORS_PATH = "bench/floors.json"


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        print(f"gate: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    except json.JSONDecodeError as e:
        print(f"gate: {path} is not valid JSON: {e}", file=sys.stderr)
        sys.exit(2)


def committed(path):
    """The committed baseline for `path`, or None if git has none."""
    try:
        out = subprocess.run(
            ["git", "show", f"HEAD:{path}"],
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        return json.loads(out)
    except (subprocess.CalledProcessError, FileNotFoundError, json.JSONDecodeError):
        return None


def gate(name, fresh_path, floors_cfg, keys, correctness_key, failures, diff_keys=None):
    # diff_keys: subset of `keys` to diff against the committed baseline
    # (defaults to all of them).  Absolute-throughput keys are excluded
    # for gates whose boxes show multi-x noise swings between runs;
    # intra-run ratios stay comparable because both halves of a ratio
    # are measured under the same interference.
    if diff_keys is None:
        diff_keys = keys
    fresh = load(fresh_path)
    cores = fresh.get("cores", 1)
    tier = (
        "scaling" if cores >= floors_cfg["min_cores_for_scaling"] else "parity"
    )
    floors = floors_cfg[name][tier]
    print(f"== {name}: {cores} cores -> '{tier}' floors {floors}")

    # Correctness flags recorded by the bench itself (identical parallel
    # builds / identical per-query answer counts across shard counts).
    for run in fresh.get("runs", []):
        if not run.get(correctness_key, True):
            failures.append(
                f"{name}: run {run} has {correctness_key}=false — "
                "the parallel path changed answers"
            )

    for key in keys:
        got = fresh.get(key)
        if got is None:
            failures.append(f"{name}: {fresh_path} lacks {key}")
            continue
        floor = floors[key]
        status = "ok" if got >= floor else "FAIL"
        print(f"   {key}: {got:.3f} (floor {floor:.2f}) {status}")
        if got < floor:
            failures.append(
                f"{name}: {key} = {got:.3f} is below the {tier} floor "
                f"{floor:.2f} (cores={cores})"
            )

    # Ceilings (latency bounds): a metric that must stay *under* its
    # checked-in limit.  No committed-baseline diff for these — tail
    # latency on a shared box is too noisy for a ratio check; the
    # absolute bound is the contract.
    ceilings = floors_cfg[name].get("ceilings", {}).get(tier, {})
    for key, ceiling in ceilings.items():
        got = fresh.get(key)
        if got is None:
            failures.append(f"{name}: {fresh_path} lacks {key}")
            continue
        status = "ok" if got <= ceiling else "FAIL"
        print(f"   {key}: {got:.3f} (ceiling {ceiling:.2f}) {status}")
        if got > ceiling:
            failures.append(
                f"{name}: {key} = {got:.3f} is above the {tier} ceiling "
                f"{ceiling:.2f} (cores={cores})"
            )

    base = committed(fresh_path)
    if base is None:
        print(f"   no committed {fresh_path} baseline; floor-only gate")
        return
    same_cores = base.get("cores") == cores
    frac = floors_cfg.get("regression_fraction", 0.5)
    for key in diff_keys:
        got, was = fresh.get(key), base.get(key)
        if got is None or was is None or was <= 0:
            continue
        rel = got / was
        note = "" if same_cores else " (different cores: informational)"
        print(f"   {key}: committed {was:.3f} -> fresh {got:.3f} ({rel:.2f}x){note}")
        if same_cores and rel < frac:
            failures.append(
                f"{name}: {key} fell to {rel:.2f}x of the committed baseline "
                f"({was:.3f} -> {got:.3f}); floor is {frac:.2f}x"
            )


def gate_ceilings(name, fresh_path, cfg, rows, id_key, failures):
    """Hold every row of `rows` (JSON objects named by `id_key`) under the
    per-row ceilings of `cfg`; rows measured at another record count
    than their ceilings were set for are informational."""
    print(f"== {name}: ceilings on {', '.join(cfg['keys'])}")
    by_id = {row.get(id_key): row for row in rows}
    for row_id, ceilings in cfg["ceilings"].items():
        row = by_id.get(row_id)
        if row is None:
            failures.append(f"{name}: {fresh_path} lacks {id_key} {row_id}")
            continue
        if row.get("records") != ceilings["records"]:
            print(
                f"   {row_id}: {row.get('records')} records, ceilings are for "
                f"{ceilings['records']}; informational only"
            )
            continue
        for key in cfg["keys"]:
            got, ceiling = row.get(key), ceilings[key]
            if got is None:
                failures.append(f"{name}: {row_id} lacks {key}")
                continue
            status = "ok" if got <= ceiling else "FAIL"
            print(f"   {row_id} {key}: {got} (ceiling {ceiling}) {status}")
            if got > ceiling:
                failures.append(
                    f"{name}: {row_id} {key} = {got} is above the ceiling "
                    f"{ceiling}"
                )


def leaves(value, path=""):
    """Every scalar of a JSON value, keyed by its path."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from leaves(v, f"{path}.{k}" if path else k)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from leaves(v, f"{path}[{i}]")
    else:
        yield path, value


def gate_exact(name, fresh_path, failures):
    """Hold every value of `fresh_path` exactly to the committed file: for
    results the code determines (page counts, result sizes), where any
    change is a change of behaviour to be named, not noise."""
    fresh = load(fresh_path)
    base = committed(fresh_path)
    if base is None:
        print(f"== {name}: no committed {fresh_path} baseline")
        failures.append(f"{name}: no committed {fresh_path} to hold exactly")
        return
    got, was = dict(leaves(fresh)), dict(leaves(base))
    moved = [
        f"{key}: committed {was.get(key)} -> fresh {got.get(key)}"
        for key in sorted(set(got) | set(was))
        if got.get(key) != was.get(key)
    ]
    print(f"== {name}: {len(was)} values held exactly, {len(moved)} moved")
    for m in moved:
        print(f"   {m}")
        failures.append(f"{name}: {m}")


def gate_probes(fresh_path, failures):
    """Every storage backing runs the same matcher over the same queries,
    so each must count the same probes; at the committed record count,
    the committed number."""
    fresh = load(fresh_path)
    probes = {run.get("backend"): run.get("probes") for run in fresh.get("runs", [])}
    print(f"== storage probes: {probes}")
    if len(set(probes.values())) != 1:
        failures.append(f"storage: backings count different probes: {probes}")
    base = committed(fresh_path)
    if base is None:
        failures.append(f"storage: no committed {fresh_path} to hold probes to")
        return
    if base.get("records") != fresh.get("records"):
        print("   no committed baseline at this record count; informational")
        return
    want = {run.get("probes") for run in base.get("runs", [])}
    for backend, got in probes.items():
        if {got} != want:
            failures.append(
                f"storage: {backend} counts {got} probes, committed {sorted(want)}"
            )
    # The compressed-paged backing's page reads (the load's statistics
    # pass plus the batch, through a 64-page pool) repeat exactly run to
    # run, so they are pinned too.
    def reads(doc):
        return next(
            (run.get("page_reads") for run in doc.get("runs", [])
             if run.get("backend") == "compressed-paged"),
            None,
        )

    was, got = reads(base), reads(fresh)
    print(f"   compressed-paged page_reads: committed {was} -> fresh {got}")
    if was != got:
        failures.append(
            f"storage: compressed-paged reads {got} pages, committed {was}"
        )


def gate_load(fresh_path, floors_cfg, failures):
    fresh = load(fresh_path)
    gate_ceilings(
        "load", fresh_path, floors_cfg["load"], fresh.get("runs", []), "config",
        failures,
    )
    gate_ceilings(
        "setup", fresh_path, floors_cfg["setup"], fresh.get("setup", []),
        "corpus", failures,
    )


def main():
    floors_cfg = load(FLOORS_PATH)
    failures = []
    gate(
        "parallel",
        "BENCH_parallel.json",
        floors_cfg,
        ["build_speedup_4v1", "query_speedup_4v1"],
        "identical",
        failures,
    )
    gate(
        "shard",
        "BENCH_shard.json",
        floors_cfg,
        ["ingest_speedup_4v1", "query_speedup_4v1"],
        "answers_ok",
        failures,
    )
    gate(
        "storage",
        "BENCH_storage.json",
        floors_cfg,
        ["compression_ratio"],
        "answers_ok",
        failures,
    )
    gate_probes("BENCH_storage.json", failures)
    gate(
        "server",
        "BENCH_server.json",
        floors_cfg,
        [
            "best_rps_serial",
            "best_rps_pipelined",
            "pipelined_speedup_best",
            "cache_speedup_best",
        ],
        "answers_ok",
        failures,
        diff_keys=["pipelined_speedup_best", "cache_speedup_best"],
    )
    gate(
        "repl",
        "BENCH_repl.json",
        floors_cfg,
        ["follower_read_ratio"],
        "answers_ok",
        failures,
    )
    gate(
        "scrub",
        "BENCH_scrub.json",
        floors_cfg,
        [],
        "answers_ok",
        failures,
    )
    gate_load("BENCH_load.json", floors_cfg, failures)
    gate_exact("scorecard", "BENCH_scorecard.json", failures)
    if failures:
        print("\nbench gate FAILED:")
        for f in failures:
            print(f"  - {f}")
        sys.exit(1)
    print("\nbench gate passed")


if __name__ == "__main__":
    main()
