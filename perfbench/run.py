#!/usr/bin/env python3
"""Reference benchmark of the PRI simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Builds the simulator and the benchmark drivers from source (into
.bench_build/ of the checkout), runs one workload, checks that its
simulated results are correct, prints every metric with its unit and,
as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of the untraced driver.
--trace 1 runs the untraced driver and then the traced one, and
reports the per-layer metrics (plus the tracing overhead). The full
record of a run (run context, all metrics, failures, per-point
simulated results) is written to .bench_build/results/. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402

WORKLOADS = ("pri8-ref", "base4-ref", "sweep-quick")

END_TO_END_UNITS = {
    "kips": "kinst/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "point_ms_p50": "ms",
}

# Printed and recorded with the end-to-end metrics, not gated.
REPORTED_UNITS = {
    "failed_frac": "ratio",
    "paper_ipc_err": "ln_ratio",
    "point_ms_p98": "ms",
    "batch_wall_s": "s",
    "kips_measured": "kinst/s",
    "host_speed": "ratio",
    "setup_host_speed": "ratio",
}

PER_LAYER_UNITS = {
    "rename.ckpt_create_ns": "ns",
    "rename.ckpt_release_ns": "ns",
    "rename.ckpt_restore_ns": "ns",
    "rename.read_src_ns": "ns",
    "rename.rename_dest_ns": "ns",
    "rename.writeback_ns": "ns",
    "rename.commit_ns": "ns",
    "rename.self_share": "ratio",
    "rename.ckpts_per_kinst": "1/kinst",
    "rename.no_preg_stall_frac": "ratio",
    "workload.next_ns": "ns",
    "workload.restore_ns": "ns",
    "workload.fetched_per_committed": "ratio",
    "workload.self_share": "ratio",
    "workload.setup_ms": "ms",
    "branch.predict_ns": "ns",
    "branch.update_ns": "ns",
    "branch.mispredict_rate": "ratio",
    "memory.data_access_ns": "ns",
    "memory.inst_access_ns": "ns",
    "memory.dl1_miss_rate": "ratio",
    "memory.self_share": "ratio",
    "core.self_share": "ratio",
    "core.self_ns_per_cycle": "ns/cycle",
    "core.cycles_per_kinst": "cycles/kinst",
    "core.construct_ms": "ms",
    "core.steady_allocs": "count",
    "sim.worker_busy_frac": "ratio",
    "sim.journal_append_us": "us",
    "trace.overhead": "ratio",
}

BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS_DIR = os.path.join(ROOT, ".bench_build", "results")
DRIVER_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


# Compiler and driver temporaries stay inside the checkout too.
TMP_DIR = os.path.join(ROOT, ".bench_build", "tmp")
ENV = dict(os.environ, TMPDIR=TMP_DIR)


def build():
    """Configure (once) and build the drivers; a no-op when current."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    os.makedirs(TMP_DIR, exist_ok=True)
    log = os.path.join(BUILD_DIR, "build.log")
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT, env=ENV).returncode != 0:
                with open(log) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))


def run_driver(binary, workload, seed, seconds, jobs, out, check,
               spans=None):
    cmd = [os.path.join(BUILD_DIR, binary), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--jobs", str(jobs), "--out", out]
    if spans:
        cmd += ["--spans", spans]
    if not check:
        cmd.append("--no-check")
    if os.path.exists(out):
        os.remove(out)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=ENV,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(binary + " timed out")
    if proc.returncode != 0:
        fail("%s exited with %d" % (binary, proc.returncode))
    with open(out) as f:
        return json.load(f)


def source_digest():
    """sha256 of the simulator and benchmark sources: identifies the
    code measured when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        for dirpath, dirnames, files in sorted(os.walk(
                os.path.join(ROOT, top))):
            dirnames[:] = sorted(d for d in dirnames
                                 if d != "__pycache__")
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def run_context(seed, raw):
    commit = None
    # Only the checkout's own repository: git would otherwise search
    # the parent directories.
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT,
                capture_output=True, text=True,
                timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_commit": commit,
        "source_sha256": source_digest(),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": raw["compiler"],
        "build_type": raw["build_type"],
        "seed": seed,
        "workers": raw["jobs"],
    }


def failures_of(raw):
    return {f["key"]: f["reason"] for f in raw["failed"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    os.makedirs(RESULTS_DIR, exist_ok=True)
    stem = os.path.join(RESULTS_DIR, "%s-seed%d-trace%d"
                        % (args.workload, args.seed, args.trace))
    jobs = len(os.sched_getaffinity(0))

    untraced = run_driver("pri_perfbench", args.workload, args.seed,
                          args.seconds, jobs, stem + ".raw.json",
                          check=True)
    failed = failures_of(untraced)
    end_to_end = metrics.end_to_end(untraced)
    values, units = end_to_end, END_TO_END_UNITS
    if args.trace:
        traced = run_driver("pri_perfbench_traced", args.workload,
                            args.seed, args.seconds, jobs,
                            stem + ".traced.json", check=False,
                            spans=stem + ".spans.jsonl")
        failed.update(failures_of(traced))
        for key in metrics.simulation_mismatches(untraced, traced):
            failed.setdefault(key, "traced result differs from the "
                              "untraced one")
        units = PER_LAYER_UNITS
        try:
            values = metrics.per_layer(traced, untraced)
        except (ArithmeticError, KeyError):
            # Failed points can leave a ratio without a denominator;
            # the failures are reported instead.
            if not failed:
                raise
            values = {}
        traced_steady = {
            "steady_allocs": traced["trace"]["steady_allocs"],
            "steady_stack_growths":
                traced["trace"]["steady_stack_growths"],
        }

    attempted = len(untraced["points"])
    timed_points = len(metrics.point_means_ms(untraced))
    extra = metrics.reported(untraced)
    extra["failed_frac"] = len(failed) / attempted

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "context": run_context(args.seed, untraced),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
        "end_to_end": end_to_end,
        "reported": {k: {"value": v, "unit": REPORTED_UNITS[k]}
                     for k, v in extra.items()},
        "failures": failed,
        "point_ms_samples": timed_points,
        "point_ms_p98_tail_supported":
            metrics.tail_supported(timed_points, 98),
        "repeats": len(untraced["repeats"]),
        "golden_checked_commits":
            untraced["golden"]["checked_commits"],
        "jobs_identity": untraced["jobs_identity"],
        "points": untraced["points"],
    }
    if args.trace:
        record["traced_allocs"] = traced_steady
    with open(stem + ".json", "w") as f:
        json.dump(record, f, indent=1)
    for name in list(values) + list(extra):
        if not metrics.valid_name(name):
            fail("invalid metric name " + name)

    ctx = record["context"]
    print("perfbench %s seed %d trace %d: commit %s, %s, nproc %d, "
          "%s %s" % (args.workload, args.seed, args.trace,
                     ctx["git_commit"] or ctx["source_sha256"][:16],
                     ctx["cpu_model"], ctx["nproc"], ctx["compiler"],
                     ctx["build_type"]))
    for name, v in values.items():
        print("  %-32s %16.6g %s" % (name, v, units[name]))
    notes = {
        "failed_frac": "%d of %d points" % (len(failed), attempted),
        "paper_ipc_err": "the run's Base points",
        "point_ms_p98": "%d samples, %s" % (
            timed_points,
            "tail resolved" if record["point_ms_p98_tail_supported"]
            else "fewer than 10 beyond"),
        "batch_wall_s": "median of %d passes over the batch"
                        % record["repeats"],
        "kips_measured": "at the host speed of the run",
        "host_speed": "timed region vs reference, %d bursts"
                      % sum(map(len, untraced["ref_ns"])),
        "setup_host_speed": "set-up vs reference, %d bursts"
                            % sum(map(len, untraced["setup_ref_ns"])),
    }
    for name, v in extra.items():
        print("  %-32s %16.6g %s  (%s, not gated)"
              % (name, v, REPORTED_UNITS[name], notes[name]))
    for key, why in sorted(failed.items()):
        print("  FAILED %s: %s" % (key, why.splitlines()[0] if why
                                   else "?"))
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
    }))


if __name__ == "__main__":
    main()
