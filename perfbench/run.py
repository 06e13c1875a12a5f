#!/usr/bin/env python3
"""Wall-clock benchmark of the srcache simulator.

Builds perfbench/ (and with it the simulator sources in src/) into
.bench_build, then runs one workload again and again, one run per process,
for a wall-clock budget, and reports medians:

    python3 perfbench/run.py --workload write-paper --seed 42 --seconds 25 --trace 0

--trace 0 reports the end-to-end metrics of untraced runs. --trace 1
alternates traced and untraced runs and reports the per-layer metrics of
the traced ones, with the tracing overhead. The last stdout line is one
JSON object with the keys correct, attempted, failed and metrics; the
lines before it are the human-readable report. perfbench/README.md
describes every metric and workload.

A run fails when it crashes, fails its audits, or its outcome fingerprint
differs from the pinned one in perfbench/fingerprints.json (or, for a seed
with no pinned value, from the first run's).
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

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("write-paper", "read-fits", "mixed-tier", "write-flashcache5")
RUN_TIMEOUT_S = 120
MIN_RUNS = 3  # fewest runs of each kind, whatever the budget

# Self-time rows, outermost layer first, as the binary names them; the
# residual engine.loop_self_s closes the balance against lane busy time.
LAYERS = (
    ("engine.build", "engine.build_self_s"),
    ("flash.precondition", "flash.precondition_s"),
    ("workload.next", "workload.next_self_s"),
    ("tier.submit", "tier.submit_self_s"),
    ("src_cache.submit", "src_cache.submit_self_s"),
    ("src_cache.flush", "src_cache.flush_self_s"),
    ("baselines.submit", "baselines.submit_self_s"),
    ("raid", "raid.self_s"),
    ("flash", "flash.self_s"),
    ("hdd", "hdd.self_s"),
)


def log(msg):
    print(msg, flush=True)


def build():
    """Configures (once) and builds; exits 1 with the build log on failure."""
    steps = []
    if not any(os.path.exists(os.path.join(BUILD, f))
               for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD, *generator,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--parallel", "3"])
    for cmd in steps:
        try:
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        except OSError as e:
            sys.exit(f"perfbench: cannot run {cmd[0]}: {e}")
        if p.returncode != 0:
            sys.stderr.write(p.stdout + p.stderr)
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")


def git_describe():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        p = subprocess.run(["git", "describe", "--always", "--dirty"],
                           cwd=ROOT, env=env, capture_output=True, text=True,
                           timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return p.stdout.strip() if p.returncode == 0 else "unavailable"


def source_digest():
    """sha256 over the sources the binary is built from, so two results can
    be matched to the same code even outside a git checkout."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "bench", "harness.hpp")]
    for top in ("src", "perfbench"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = [x for x in dirs if x != "__pycache__"]
            paths += [os.path.join(d, f) for f in files]
    for path in sorted(paths):
        h.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def pinned_fingerprint(workload, seed):
    with open(os.path.join(HERE, "fingerprints.json")) as f:
        return json.load(f)["fingerprints"].get(workload, {}).get(str(seed))


def run_once(args, traced, extra):
    """One run in its own process: returns (record or None, error text).
    `extra` holds further perfbench options, such as a smaller --scale."""
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--trace", "1" if traced else "0", *extra]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {RUN_TIMEOUT_S} s"
    if p.returncode != 0:
        return None, f"exit code {p.returncode}: {p.stderr.strip()[-500:]}"
    try:
        return json.loads(p.stdout.strip().splitlines()[-1]), ""
    except (ValueError, IndexError):
        return None, "no JSON record on stdout"


def median(records, key):
    return statistics.median(r[key] for r in records)


def self_times(traced):
    """Per-run mean self time of each row over the traced runs, plus the
    residual; the rows sum exactly to the mean lane busy time."""
    n = len(traced)
    rows = {name: sum(r["layers"][layer]["self_s"] for r in traced) / n
            for layer, name in LAYERS}
    busy = sum(r["busy_s"] for r in traced) / n
    rows["engine.loop_self_s"] = busy - sum(rows.values())
    return rows, busy


def end_to_end(untraced):
    first = untraced[0]
    return [
        ("run_s", median(untraced, "run_s"), "s"),
        ("setup_s", median(untraced, "setup_s"), "s"),
        ("sim_ops_per_s", median(untraced, "sim_ops_per_s"), "ops/s"),
        ("peak_rss_mb", median(untraced, "peak_rss_mb"), "MiB"),
        ("sim_mbps", first["sim_mbps"], "MB/s"),
        ("hit_ratio", first["hit_ratio"], "ratio"),
        ("io_amplification", first["io_amplification"], "ratio"),
    ]


def per_layer(traced, untraced):
    rows, busy = self_times(traced)
    first = traced[0]
    counts = first["counts"]
    layers = first["layers"]

    def pct(name):
        return 100.0 * rows[name] / busy

    def calls(layer):
        return layers[layer]["calls"]

    overhead = 100.0 * (median(traced, "run_s") /
                        median(untraced, "run_s") - 1.0)
    metrics = [
        ("engine.build_s", median(traced, "setup_s"), "s"),
        ("engine.warmup_s", median(traced, "warmup_s"), "s"),
        ("engine.window_s", median(traced, "window_s"), "s"),
        ("engine.merge_s", median(traced, "merge_s"), "s"),
        ("engine.lane_imbalance", median(traced, "lane_imbalance"), "ratio"),
        ("engine.loop_self_pct", pct("engine.loop_self_s"), "%"),
        ("workload.next_calls", calls("workload.next"), "count"),
        ("workload.next_self_pct", pct("workload.next_self_s"), "%"),
        ("tier.submit_calls", calls("tier.submit"), "count"),
        ("tier.submit_self_pct", pct("tier.submit_self_s"), "%"),
    ]
    metrics += [(k, counts[k], "ratio" if k == "tier.hit_ratio" else "count")
                for k in ("tier.hit_ratio", "tier.destage_blocks",
                          "tier.demote_blocks", "tier.evict_blocks")]
    metrics += [
        ("src_cache.submit_calls", calls("src_cache.submit"), "count"),
        ("src_cache.submit_self_pct", pct("src_cache.submit_self_s"), "%"),
    ]
    metrics += [(k, counts[k], "count")
                for k in ("src_cache.segment_seals", "src_cache.sg_reclaims",
                          "src_cache.fetch_blocks", "src_cache.destage_blocks")]
    metrics += [
        ("src_cache.gc_copy_per_app_write",
         counts["src_cache.gc_copy_per_app_write"], "ratio"),
        ("baselines.submit_calls", calls("baselines.submit"), "count"),
        ("baselines.submit_self_pct", pct("baselines.submit_self_s"), "%"),
        ("raid.calls", calls("raid"), "count"),
        ("raid.self_pct", pct("raid.self_s"), "%"),
        ("raid.rmw_writes", counts["raid.rmw_writes"], "count"),
        ("raid.full_stripe_writes", counts["raid.full_stripe_writes"], "count"),
        ("flash.calls", calls("flash"), "count"),
        ("flash.self_pct", pct("flash.self_s"), "%"),
        ("flash.precondition_s", rows["flash.precondition_s"], "s"),
        ("flash.gc_pages_copied", counts["flash.gc_pages_copied"], "count"),
        ("flash.gc_erases", counts["flash.gc_erases"], "count"),
        ("flash.nand_write_amp", counts["flash.nand_write_amp"], "ratio"),
        ("hdd.calls", calls("hdd"), "count"),
        ("hdd.self_pct", pct("hdd.self_s"), "%"),
        ("hdd.read_blocks", layers["hdd"]["read_blocks"], "count"),
        ("hdd.write_blocks", layers["hdd"]["write_blocks"], "count"),
        ("obs.trace_overhead_pct", overhead, "%"),
    ]
    return metrics, rows, busy, overhead


def print_metrics(title, metrics):
    log(title)
    for name, value, unit in metrics:
        log(f"  {name:<34} {value:>16.6g} {unit}")


def print_self_table(rows, busy, overhead):
    log("per-layer self time (traced runs, lane-seconds per run)")
    for name, seconds in rows.items():
        log(f"  {name:<34} {seconds:>12.4f} s {100.0 * seconds / busy:>7.2f} %")
    log(f"  {'sum of rows':<34} {sum(rows.values()):>12.4f} s")
    log(f"  {'lane busy time':<34} {busy:>12.4f} s")
    log(f"  {'obs.trace_overhead_pct':<34} {overhead:>12.2f} %"
        "  (traced run_s / untraced run_s - 1)")


def check(rec, traced, reference):
    """Returns why a completed run failed, or an empty string."""
    if rec["error"]:
        return rec["error"]
    if rec["fingerprint"] != reference:
        return f"fingerprint {rec['fingerprint']} != expected {reference}"
    if traced:
        wrapped = sum(rec["layers"][layer]["self_s"] for layer, _ in LAYERS)
        if wrapped > 1.05 * rec["busy_s"]:
            return "wrapped self time exceeds lane busy time"
    return ""


def collect(args, expect, extra=()):
    """Runs until the budget is spent and each kind has MIN_RUNS runs.
    Untraced and traced runs alternate so drift on the host hits both."""
    records = {False: [], True: []}
    kinds = (False, True) if args.trace else (False,)
    attempted = failed = 0
    reference = expect
    begin = time.monotonic()
    while True:
        # Start no run that would end past the budget, judged by the mean
        # duration of the runs so far.
        elapsed = time.monotonic() - begin
        mean = elapsed / attempted if attempted else 0.0
        if (elapsed + mean > args.seconds and
                all(len(records[k]) >= MIN_RUNS for k in kinds)):
            break
        traced = bool(args.trace) and len(records[True]) < len(records[False])
        rec, error = run_once(args, traced, extra)
        attempted += 1
        timed = rec is not None and "sim_ops_per_s" in rec
        if rec is not None and not error:
            reference = reference or rec.get("fingerprint")
            error = check(rec, traced, reference)
        if timed:
            records[traced].append(rec)
        if error:
            failed += 1
        log(f"[run {attempted - 1}] {'traced  ' if traced else 'untraced'} "
            + (f"run_s={rec['run_s']:.4f} setup_s={rec['setup_s']:.4f} "
               f"sim_ops_per_s={rec['sim_ops_per_s']:.0f} "
               f"fingerprint={rec['fingerprint']} " if timed else "")
            + (f"FAILED: {error}" if error else "ok"))
        if not timed and attempted >= 3 and failed == attempted:
            break  # nothing runs at all; do not spin for the whole budget
    return records, attempted, failed, reference


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="wall-clock budget for the runs (build excluded)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    expect = pinned_fingerprint(args.workload, args.seed)
    log(f"[config] workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace} "
        f"nproc={os.cpu_count()} git={git_describe()} "
        f"source_sha256={source_digest()} "
        f"expect={expect or 'first run'}")

    records, attempted, failed, reference = collect(args, expect)
    untraced, traced = records[False], records[True]
    if not untraced or (args.trace and not traced):
        sys.exit("perfbench: no run completed")
    first = untraced[0]
    log(f"[build] type={first['build_type']} compiler={first['compiler']} "
        f"lanes={first['lanes']} domains={first['domains']}")
    log(f"[fingerprint] {reference}")
    metrics = end_to_end(untraced)
    print_metrics(f"end-to-end (medians of {len(untraced)} untraced runs)",
                  metrics)
    for key, unit in (("read_p99_ms", "ms (virtual)"),
                      ("write_p99_ms", "ms (virtual)"), ("sim_ops", "ops")):
        log(f"  {key:<34} {first[key]:>16.6g} {unit}")
    log(f"  {'realtime_factor':<34} "
        f"{median(untraced, 'realtime_factor'):>16.6g} virtual s / wall s")
    if args.trace:
        metrics, rows, busy, overhead = per_layer(traced, untraced)
        print_self_table(rows, busy, overhead)
        print_metrics(f"per-layer ({len(traced)} traced runs)", metrics)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit in metrics},
    }), flush=True)


if __name__ == "__main__":
    main()
