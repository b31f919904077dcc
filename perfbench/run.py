#!/usr/bin/env python3
"""JavaFlow simulator benchmark: one command for every workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call builds perfbench/jfbench
against ../src into .bench_build/ (Release, about a minute on four
cores); later calls only re-check the build. Workloads (perfbench/NOTES.md
says why each exists):

  sweep_cold     analysis::run_sweep over the 1605-method corpus, cache off
  sweep_warm     the same sweep served from a result cache filled in set-up
  serve_backlog  serve::serve on an open-loop kernel request stream

--trace 0 measures the end-to-end metrics, --trace 1 the per-layer ones
(a separate traced run). Either way the last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Metric names and
units come from BENCHMARK.json. Each run also writes its provenance, raw
figures and checks to .bench_build/results/.

sweep_warm fills its cache in a process of its own before the warm
process starts, so the warm process's peak RSS is its own. Each serving
stream runs in its own process with a wall-clock deadline: a stream that
stalls is killed, every request in it counts as failed, and the run goes
on.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
JFBENCH = os.path.join(BUILD, "jfbench")
REFERENCE_SNAPSHOT = os.path.join(ROOT, "bench", "reference_stride32.jfs")

DEFAULT_SEED = 1  # the seed the golden digests in golden.json belong to
WORKLOADS = ("sweep_cold", "sweep_warm", "serve_backlog")
STREAMS = 8  # distinct serving streams per run
REQUESTS_PER_STREAM = 2000  # as jfbench's serve_backlog generates them
MIN_ROUNDS = 2  # each stream runs at least twice: its digest must repeat
SERVE_DEADLINE_S = 30.0  # per stream process; one stream takes about 0.6 s
RUN_BUDGET_S = 160.0  # a run must end within 180 s, stalls included


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def child_env():
    # The simulator reads JAVAFLOW_* knobs (threads, cache, scheduler);
    # the benchmark pins all of them by leaving them unset.
    return {k: v for k, v in os.environ.items() if not k.startswith("JAVAFLOW_")}


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError(f"no simulator sources under {ROOT}/src")
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr, "env": child_env()}
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, **quiet)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "--target", "jfbench", "-j", jobs],
                   check=True, **quiet)
    if not os.access(JFBENCH, os.X_OK):
        raise RuntimeError("build produced no jfbench binary")


def jfbench(args, timeout):
    """Runs jfbench; returns its JSON result, or None if it timed out."""
    try:
        proc = subprocess.run([JFBENCH] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=timeout,
                              env=child_env())
    except subprocess.TimeoutExpired:
        return None  # subprocess.run has killed and reaped the child
    if proc.returncode != 0:
        raise RuntimeError(f"jfbench {args[0]} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def provenance(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            sha = out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    # Identifies the simulator sources when the checkout has no git data.
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    binary = jfbench(["--provenance"], timeout=30)
    return {"git_sha": sha, "src_sha256": digest.hexdigest(), "seed": seed,
            "hardware_threads": os.cpu_count(), "cpu_model": cpu,
            "compiler": binary["compiler"], "build_type": binary["build_type"]}


def run_sweep(args, work_dir, run_id):
    start = time.monotonic()
    warm = args.workload == "sweep_warm"
    common = ["--seed", str(args.seed), "--work-dir", work_dir]
    if warm:
        fill = jfbench(["sweep_fill"] + common, timeout=90)
        if fill is None:
            raise RuntimeError("sweep_fill did not finish in 90 s")
    cmd = [args.workload, "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--run-id", run_id] + common
    if args.workload == "sweep_cold" and args.seed == DEFAULT_SEED:
        cmd += ["--reference-snapshot", REFERENCE_SNAPSHOT]
    res = jfbench(cmd, timeout=170 - (time.monotonic() - start))
    if res is None:
        raise RuntimeError(f"{args.workload} did not finish in time")
    shutil.rmtree(os.path.join(work_dir, "cache"), ignore_errors=True)
    checks = list(res["checks"])
    setup_s = res["setup_s"]
    if warm:
        res["fill"] = fill
        setup_s = fill["setup_s"]
        checks.append({"name": "warm samples equal the cold fill bit for bit",
                       "ok": res["digests"]["sweep_samples"] == fill["sweep_samples"]})
    if args.trace:
        attempted = res["cells"]
        metrics = res["layers"]
        if warm:
            metrics["cache.fill_s"] = statistics.median(fill["fill_s"])
    else:
        cells = res["cells"]
        attempted = cells * len(res["pass_s"])
        best = min(res["pass_s"])  # NOTES.md "Statistics"
        metrics = {
            "setup_s": statistics.median(setup_s),
            "cells_per_s": cells / best,
            # One user request here is one whole run_sweep call.
            "requests_per_s": 1.0 / best,
            "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
        }
    return res, checks, attempted, 0, metrics


def stream_seed(seed, i):
    return (seed * STREAMS + i) % 2**64


def stream_args(args, i, work_dir, run_id, trace):
    return ["serve_backlog", "--seed", str(stream_seed(args.seed, i)),
            "--trace", str(trace), "--work-dir", work_dir,
            "--run-id", f"{run_id}-stream{i}"]


def run_serve(args, work_dir, run_id):
    if args.trace:
        deadline = RUN_BUDGET_S
        res = jfbench(stream_args(args, 0, work_dir, run_id, 1), deadline)
        if res is None:
            log(f"traced stream stalled past {deadline:.0f} s; counted as failed")
            return ({"stalled": [0]}, [{"name": "stream 0 finished", "ok": False}],
                    REQUESTS_PER_STREAM, REQUESTS_PER_STREAM, {})
        return res, list(res["checks"]), res["requests"], 0, res["layers"]

    # Untraced: STREAMS different streams, each in its own process, in
    # rounds until the run is long enough. A stream that stalls fails all
    # its requests and leaves the rotation (it would only stall again).
    runs = {i: [] for i in range(STREAMS)}
    stalled, checks = [], []
    start = time.monotonic()
    rounds = 0
    while rounds < MIN_ROUNDS or time.monotonic() - start < args.seconds:
        live = [i for i in range(STREAMS) if i not in stalled]
        if not live:
            break
        for i in live:
            deadline = min(SERVE_DEADLINE_S, start + RUN_BUDGET_S - time.monotonic())
            res = jfbench(stream_args(args, i, work_dir, run_id, 0), max(deadline, 1.0))
            if res is None:
                log(f"stream {i} did not finish in {max(deadline, 1.0):.0f} s; "
                    f"its {REQUESTS_PER_STREAM} requests count as failed")
                stalled.append(i)
                continue
            runs[i].append(res)
            checks.extend(res["checks"])
        rounds += 1
    attempted = REQUESTS_PER_STREAM * (sum(len(r) for r in runs.values()) + len(stalled))
    failed = REQUESTS_PER_STREAM * len(stalled)
    for i in range(STREAMS):
        if i in stalled:
            checks.append({"name": f"stream {i} finished", "ok": False})
        else:
            checks.append({"name": f"stream {i} gives the same digest every run",
                           "ok": len({r["digest"] for r in runs[i]}) == 1})
    done = [r for r in runs.values() if r]
    metrics = {}
    if len(done) == STREAMS:
        # Best of each stream's runs: host interference only ever slows a
        # run down (NOTES.md "Statistics").
        best = [min(r, key=lambda x: x["serve_s"]) for r in done]
        serve_s = sum(b["serve_s"] for b in best)
        children = [x for r in done for x in r]
        metrics = {
            "setup_s": statistics.median(t for x in children for t in x["setup_s"]),
            # A completed request is one simulated (method, config,
            # scenario) cell, so the two rates coincide here.
            "cells_per_s": sum(b["completed"] for b in best) / serve_s,
            "requests_per_s": sum(b["requests"] for b in best) / serve_s,
            # Streams differ in peak memory, processes of one stream barely.
            "peak_rss_mb": statistics.fmean(
                statistics.median(x["peak_rss_kb"] for x in r) for r in done) / 1024.0,
        }
    res = {"streams": runs, "stalled": stalled,
           "digests": [r[0]["digest"] if r else None for r in runs.values()]}
    return res, checks, attempted, failed, metrics


def golden_checks(args, res):
    """Committed golden digests, compared at the default seed only."""
    if args.seed != DEFAULT_SEED:
        return []
    with open(os.path.join(HERE, "golden.json")) as f:
        golden = json.load(f)
    if args.workload == "serve_backlog":
        want = golden["serve_reports"]
        if args.trace:  # the traced run serves stream 0 only
            got, want = [res.get("digest")], want[:1]
        else:
            got = res.get("digests")
    else:
        got, want = res.get("digests", {}).get("sweep_samples"), golden["sweep_samples"]
    return [{"name": "digests match golden.json", "ok": got == want}]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build()
    prov = provenance(args.seed)
    print("provenance " + json.dumps(prov, sort_keys=True), flush=True)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = os.path.join(BUILD, "runs", tag)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    run_id = f"{tag}-pid{os.getpid()}"
    runner = run_serve if args.workload == "serve_backlog" else run_sweep
    res, checks, attempted, failed, measured = runner(args, work_dir, run_id)
    checks += golden_checks(args, res)

    failed_checks = sum(1 for c in checks if not c["ok"])
    metrics = {}
    for m in wanted:
        # A layer the workload never calls did no work: it reports 0.
        value = measured.get(m["name"], 0.0 if args.trace else None)
        if value is None:
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    complete = len(metrics) == len(wanted)
    attempted += len(checks)
    failed += failed_checks

    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    with open(os.path.join(BUILD, "results", tag + ".json"), "w") as f:
        json.dump({"provenance": prov, "checks": checks, "raw": res,
                   "metrics": metrics}, f, indent=1, sort_keys=True)
    for c in checks:
        if not c["ok"]:
            log(f"check failed: {c['name']}")
    print(json.dumps({"correct": failed == 0 and complete, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, subprocess.CalledProcessError, ValueError,
            KeyError) as e:
        log(f"error: {e}")
        sys.exit(1)
