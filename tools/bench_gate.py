#!/usr/bin/env python3
"""Bench-regression gate over a committed throughput history.

Usage: bench_gate.py BENCH_sweep.json bench/BENCH_history.json
                     [--no-append] [--snapshot FILE.jfs]
                     [--serving BENCH_serving.json]
       bench_gate.py --serving BENCH_serving.json

Replaces the old hardcoded 4,000 cells/s constant (docs/PERF.md "CI
regression gate"): the floor is now derived from the committed history —
80% of the median serial cells/s over the most recent five entries.
The median rides out one-off runner jitter in either direction; the 20%
margin absorbs steady-state variance between runners.

Checks, in order:
  1. the run's `identical` flag is true (parallel == serial output);
  2. if the run used the result cache, hit+dedup cells must not cover the
     whole sweep — a fully cache-served run measures file reads, not the
     engine, and must not enter the history;
  3. serial_cells_per_second >= 0.8 * median(last <= 5 history entries).

On success the run is appended to the history file (up to a cap of 50
entries, oldest dropped) so the floor tracks intentional throughput
changes without hand-editing a constant. The entry carries the run's
serial-leg `ns_per_message` (engine execute time per simulated message)
when BENCH_sweep.json has one. Commit the updated history when
a PR intentionally shifts performance. --no-append gates without
recording (e.g. exploratory local runs).

--snapshot FILE.jfs records the run-snapshot's integrity digest (the
trailing FNV-64 checksum of the .jfs file, as printed by
`javaflow_explain --digest`) alongside cells/s in the appended history
entry, tying each throughput point to the exact simulation results that
produced it.

--serving BENCH_serving.json additionally gates the multi-tenant
serving benchmark (docs/SERVING.md): the run's `identical` flag
(digest-equal reruns on every config) and `overlap_ok` flag (non-zero
Chapter 8 superposition witness on the wider fabrics) must both be
true, and `requests_per_second` must clear 80% of the median over the
history entries that already carry `serving_requests_per_second`
(entries predating the serving bench are skipped; with none present
the throughput is recorded without gating). The appended history entry
then carries `serving_requests_per_second`. With `--serving` alone (no
positional arguments) only the serving checks run and nothing is
appended.

Exit codes: 0 pass, 1 regression/divergence, 2 usage or malformed input.
"""

import json
import statistics
import struct
import sys

HISTORY_WINDOW = 5
HISTORY_CAP = 50
FLOOR_FRACTION = 0.8


def fail(message: str) -> None:
    print(f"bench_gate: {message}", file=sys.stderr)
    sys.exit(1)


def snapshot_digest(path: str) -> str:
    """Trailing FNV-64 checksum of a .jfs snapshot, as 16 hex digits."""
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < 8:
        raise ValueError(f"{path}: too short to be a snapshot")
    return format(struct.unpack("<Q", data[-8:])[0], "016x")


def check_serving(serving_path: str, history: list | None) -> float:
    """Gates BENCH_serving.json; returns its aggregate requests/s."""
    try:
        with open(serving_path) as f:
            serving = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_gate: {e}", file=sys.stderr)
        sys.exit(2)

    if not serving.get("identical", False):
        fail("serving rerun digests diverged (identical=false)")
    if not serving.get("overlap_ok", False):
        fail("serving run never overlapped residencies (overlap_ok=false)")

    rps = serving.get("requests_per_second", 0.0)
    window = [
        e["serving_requests_per_second"]
        for e in (history or [])[-HISTORY_WINDOW:]
        if "serving_requests_per_second" in e
    ]
    if window:
        floor = FLOOR_FRACTION * statistics.median(window)
        print(
            f"bench_gate: serving {rps:.1f} req/s, floor {floor:.1f} "
            f"(median of {len(window)} serving entries)"
        )
        if rps < floor:
            fail(f"serving throughput regressed: {rps:.1f} < {floor:.1f} "
                 "req/s")
    else:
        print(f"bench_gate: serving {rps:.1f} req/s "
              "(no serving history yet, recording only)")
    return rps


def main(argv: list[str]) -> int:
    rest = argv[1:]
    append = "--no-append" not in rest
    snapshot_path = None
    serving_path = None
    args = []
    i = 0
    while i < len(rest):
        if rest[i] == "--no-append":
            pass
        elif rest[i] == "--snapshot":
            i += 1
            if i >= len(rest):
                print(__doc__, file=sys.stderr)
                return 2
            snapshot_path = rest[i]
        elif rest[i] == "--serving":
            i += 1
            if i >= len(rest):
                print(__doc__, file=sys.stderr)
                return 2
            serving_path = rest[i]
        else:
            args.append(rest[i])
        i += 1
    if len(args) == 0 and serving_path is not None:
        # Standalone serving gate: no history to compare or append to.
        check_serving(serving_path, None)
        return 0
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2

    bench_path, history_path = args
    try:
        with open(bench_path) as f:
            bench = json.load(f)
        with open(history_path) as f:
            history = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_gate: {e}", file=sys.stderr)
        return 2
    if not isinstance(history, list) or not history:
        print(f"bench_gate: {history_path} must be a non-empty JSON list",
              file=sys.stderr)
        return 2

    if not bench.get("identical", False):
        fail("parallel sweep diverged from serial (identical=false)")

    cache = bench.get("report", {}).get("cache", {})
    served = cache.get("hit_cells", 0) + cache.get("dedup_cells", 0)
    cells = bench.get("cells", 0)
    if cells and served >= cells:
        fail(
            f"run was fully cache-served ({served}/{cells} cells) — "
            "throughput measures the cache, not the engine; gate with "
            "JAVAFLOW_CACHE=off or a cold cache dir"
        )

    got = bench["serial_cells_per_second"]
    window = [e["serial_cells_per_second"] for e in history[-HISTORY_WINDOW:]]
    floor = FLOOR_FRACTION * statistics.median(window)
    print(
        f"bench_gate: serial {got:.1f} cells/s, floor {floor:.1f} "
        f"(median of last {len(window)} of {len(history)} entries)"
    )
    if got < floor:
        fail(f"serial sweep regressed: {got:.1f} < {floor:.1f} cells/s")

    serving_rps = None
    if serving_path is not None:
        serving_rps = check_serving(serving_path, history)

    digest = None
    if snapshot_path is not None:
        try:
            digest = snapshot_digest(snapshot_path)
        except (OSError, ValueError) as e:
            print(f"bench_gate: {e}", file=sys.stderr)
            return 2
        print(f"bench_gate: snapshot digest {digest}")

    if append:
        meta = bench.get("metadata", {})
        entry = {
            "git_sha": meta.get("git_sha", "unknown"),
            "timestamp_utc": meta.get("timestamp_utc", "unknown"),
            "stride": bench.get("stride", 0),
            "serial_cells_per_second": got,
            "parallel_cells_per_second": bench.get(
                "parallel_cells_per_second", 0.0
            ),
        }
        if bench.get("ns_per_message") is not None:
            entry["ns_per_message"] = bench["ns_per_message"]
        if digest is not None:
            entry["snapshot_digest"] = digest
        if serving_rps is not None:
            entry["serving_requests_per_second"] = serving_rps
        history.append(entry)
        history = history[-HISTORY_CAP:]
        with open(history_path, "w") as f:
            json.dump(history, f, indent=2)
            f.write("\n")
        print(f"bench_gate: appended run to {history_path} "
              f"({len(history)} entries)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
