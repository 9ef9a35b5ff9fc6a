#!/usr/bin/env python3
"""Acceptance gates over the machine-readable output of wharf's benches.

Each bench/ harness prints `BENCH {...}` JSON lines next to its tables;
CI keeps them as BENCH_<name>.json (one JSON object per line) and runs
one subcommand of this script per file.  Two more gates check the serve
warm-restart transcripts and the perfbench sweep smoke result.

    ./build/bench_core_solver --benchmark_filter=NONE | grep '^BENCH ' \\
        | sed 's/^BENCH //' > BENCH_core_solver.json
    python3 tools/bench_gates.py core_solver BENCH_core_solver.json

Every file argument defaults to the name CI writes, in the current
directory.  Exit status: 0 when every gate holds, 1 with the failed
gate's message otherwise.
"""

import argparse
import json
import re
import sys


def records_of(path):
    """The JSON objects of a BENCH file, one per line."""
    return [json.loads(line) for line in open(path)]


def variants_of(path):
    """The JSON objects of a BENCH file, keyed by their "variant"."""
    return {r["variant"]: r for r in map(json.loads, open(path))}


def serve_warm_restart(cold_path, warm_path):
    """The same conversation served twice against one --store-dir: the
    warm run answers identically, with fewer store misses, from a
    snapshot that restored artifacts."""
    def answers(path):
        out = []
        for line in open(path):
            i, j = line.find('"results":'), line.find(',"diagnostics"')
            if i >= 0 and j > i:
                out.append(line[i:j])
        return out
    assert answers(cold_path) == answers(warm_path), \
        "warm-restart answers diverged from the cold run"
    def misses(path):
        return sum(int(m) for line in open(path)
                   for m in re.findall(r'"cache_misses":(\d+)', line))
    cold, warm = misses(cold_path), misses(warm_path)
    assert warm < cold, f"warm restart did not save store misses: cold={cold} warm={warm}"
    restored = max(int(m) for line in open(warm_path)
                   for m in re.findall(r'"persisted_artifacts":(\d+)', line) or ['0'])
    assert restored > 0, "warm run reported no persisted artifacts"


def priority_search(path):
    """Warm search bit-identical to cold, >= 50% busy-window and digest
    reuse, and warm no slower than cold."""
    records = records_of(path)
    assert records, "no BENCH lines emitted"
    assert all(r["identical_to_cold"] for r in records), \
        f"warm results diverged from the cold sequential objective: {records}"
    reuse = [r["busy_window_reuse"] for r in records if r["variant"] == "warm"]
    assert reuse and all(r >= 0.5 for r in reuse), f"warm busy-window reuse below 50%: {reuse}"
    slices = [r["slice_reuse"] for r in records if r["variant"] == "warm"]
    assert slices and all(r >= 0.5 for r in slices), \
        f"cross-candidate slice-memo reuse below 50%: {slices}"
    speedups = [r["speedup_vs_cold"] for r in records if r["variant"] == "warm"]
    assert speedups and all(s >= 1.0 for s in speedups), \
        f"warm search slower than cold: {speedups}"


def serve_stream(path):
    """A session sweep answers like one-shot conversations and solves
    strictly fewer busy windows."""
    records = variants_of(path)
    assert records, "no BENCH lines emitted"
    assert all(r["identical_to_cold"] for r in records.values()), \
        f"warm serve answers diverged from the one-shot path: {records}"
    assert records["warm"]["busy_window_solves"] < records["cold"]["busy_window_solves"], \
        f"session sweep did not save busy-window solves: {records}"


def serve_concurrent(path):
    """Concurrent TCP clients on one engine answer like serialized runs,
    share the store across connections and join in-flight solves."""
    records = variants_of(path)
    assert records, "no BENCH lines emitted"
    assert all(r["identical_to_serialized"] for r in records.values()), \
        f"concurrent serve answers diverged from serialized execution: {records}"
    assert records["concurrent"]["busy_window_solves"] < records["serialized"]["busy_window_solves"], \
        f"shared store did not save busy-window solves across connections: {records}"
    assert records["concurrent"]["cross_connection_reuse"] > 0, \
        f"no cross-connection store sharing observed: {records}"
    assert records["concurrent"]["shared_flights"] > 0, \
        f"no single-flight joins observed across connections: {records}"


def serve_async(path):
    """The reactor serves every slow client, bit-identically, at
    benchmark scale, without growing threads."""
    records = variants_of(path)
    assert records, "no BENCH lines emitted"
    assert all(r["lost_responses"] == 0 for r in records.values()), \
        f"responses were lost: {records}"
    assert all(r["identical_to_serialized"] for r in records.values()), \
        f"async serve answers diverged from serialized execution: {records}"
    assert records["async"]["clients"] >= 256, \
        f"fd-limit clamp shrank the async run below benchmark scale: {records}"
    assert records["async"]["thread_growth"] <= 2, \
        f"reactor core grew threads with connection count: {records}"


def core_solver(path):
    """The flat busy-window kernel matches the reference oracle field for
    field, >= 2x faster and above a solves/sec floor; near saturation
    it classifies identically and is >= 20x faster."""
    records = variants_of(path)
    assert records, "no BENCH lines emitted"
    assert all(records[v]["identical_to_reference"] for v in ("reference", "flat")), \
        f"flat kernel answers diverged from the reference implementation: {records}"
    flat = records["flat"]
    assert flat["speedup_vs_reference"] >= 2.0, \
        f"flat kernel below the 2x speedup floor: {records}"
    assert flat["solves_per_sec"] >= 2000, \
        f"flat kernel below the absolute solves/sec floor: {records}"
    saturated = records["near_saturation"]
    assert saturated["identical_classification"], \
        f"near-saturation classification diverged from the capped reference: {records}"
    assert saturated["speedup_vs_reference"] >= 20, \
        f"divergence certificate below the 20x near-saturation floor: {records}"


def store_restart(path):
    """A restarted engine re-solves no more than one that stayed up,
    answers like cold, and restores artifacts from a clean snapshot."""
    records = variants_of(path)
    assert records, "no BENCH lines emitted"
    assert all(r["identical_to_cold"] for r in records.values()), \
        f"warm answers diverged from the cold run: {records}"
    warm, restart = records["warm"], records["restart"]
    assert restart["busy_window_solves"] <= 1.1 * warm["busy_window_solves"] + 0.5, \
        f"restart-warm re-solved busy windows the snapshot should have restored: {records}"
    assert restart["persisted_artifacts"] > 0, \
        f"restart loaded no artifacts from the snapshot: {records}"
    assert restart["load_skipped_corrupt"] == 0, \
        f"a clean snapshot was reported corrupt: {records}"


def dist_sweep(path):
    """The 4-worker merge equals the 1-worker sweep with no worker death,
    and is >= 2.5x faster where 4 cores exist."""
    records = variants_of(path)
    assert records, "no BENCH lines emitted"
    quad = records["4w"]
    assert quad["identical_to_single"], \
        f"4-worker merge diverged from the 1-worker sweep: {records}"
    assert quad["worker_deaths"] == 0, \
        f"workers died during a fault-free bench sweep: {records}"
    if quad["cores"] >= 4:
        assert quad["speedup_4w"] >= 2.5, \
            f"4 workers below the 2.5x speedup floor on {quad['cores']} cores: {records}"


def perfbench_smoke(path):
    """A short perfbench sweep_saturated run: correct, no failed op, and
    at least one op attempted (no timing gate)."""
    result = json.load(open(path))
    assert result["correct"], f"sweep_saturated answers diverged from the oracle: {result}"
    assert result["failed"] == 0, f"sweep_saturated ops failed: {result}"
    assert result["attempted"] > 0, f"sweep_saturated ran no op: {result}"


# name -> (gate, default file arguments)
GATES = {
    "serve_warm_restart": (serve_warm_restart, ["serve_cold.ndjson", "serve_warm.ndjson"]),
    "priority_search": (priority_search, ["BENCH_priority_search.json"]),
    "serve_stream": (serve_stream, ["BENCH_serve_stream.json"]),
    "serve_concurrent": (serve_concurrent, ["BENCH_serve_concurrent.json"]),
    "serve_async": (serve_async, ["BENCH_serve_async.json"]),
    "core_solver": (core_solver, ["BENCH_core_solver.json"]),
    "store_restart": (store_restart, ["BENCH_store_restart.json"]),
    "dist_sweep": (dist_sweep, ["BENCH_dist_sweep.json"]),
    "perfbench_smoke": (perfbench_smoke, ["perfbench_smoke.json"]),
}


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="gate", required=True)
    for name, (gate, defaults) in GATES.items():
        p = sub.add_parser(name, help=gate.__doc__.split("\n")[0])
        p.add_argument("files", nargs="*", default=defaults,
                       help=f"input file(s), default: {' '.join(defaults)}")
    args = parser.parse_args(argv)
    gate, defaults = GATES[args.gate]
    if len(args.files) != len(defaults):
        parser.error(f"{args.gate} takes {len(defaults)} file(s): {' '.join(defaults)}")
    try:
        gate(*args.files)
    except AssertionError as failure:
        print(f"bench_gates {args.gate}: FAILED: {failure}", file=sys.stderr)
        return 1
    print(f"bench_gates {args.gate}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
