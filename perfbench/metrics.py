"""Arithmetic of the reference benchmark: percentiles, the paper-IPC
error, tracing overhead, and the metrics derived from the drivers'
raw measurements. Pure functions, so they can be tested alone."""

import math
import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# At least this many samples must lie beyond a reported percentile.
MIN_TAIL = 10

# Median ns of one host-speed reference burst (probe.hh,
# referenceBurst) on the development host, a 4-vCPU Intel Xeon KVM
# guest, in a quiet phase.
REFERENCE_BURST_NS = 205000.0

# The simulator's host time grows faster than the kernel's when the
# host is busy: as the kernel's time to this power. On the development
# host, at a kernel time 2.0x the quiet one, measured kips fell to
# 1/2.5 of the quiet rate (1/2.35 to 1/2.7 over the three workloads).
SPEED_EXPONENT = 1.35


def valid_name(name):
    """Metric and workload names: letters, digits, '_', '.', '-'."""
    return bool(NAME_RE.match(name))


def percentile(values, q):
    """Nearest-rank q-th percentile (0 < q <= 100) of values."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n, q):
    """Samples strictly above the nearest-rank q-th percentile's rank."""
    return n - max(1, math.ceil(q / 100.0 * n))


def tail_supported(n, q):
    """True when n samples leave at least MIN_TAIL beyond the q-th."""
    return samples_beyond(n, q) >= MIN_TAIL


def paper_ipc_err(pairs):
    """Mean of |ln(ipc / paper_ipc)| over (ipc, paper_ipc) pairs: the
    log of the geometric-mean factor by which IPC misses the paper."""
    if not pairs:
        raise ValueError("paper_ipc_err of no points")
    return statistics.fmean(abs(math.log(ipc / paper))
                            for ipc, paper in pairs)


def host_speed(bursts_ns):
    """Speed of the host over one stretch of a run (a set-up round, a
    repeat of the timed region) relative to the reference: the
    reference burst time over the stretch's median burst time, to the
    power SPEED_EXPONENT (0.8: host times read 1/0.8 of what they
    would at the reference speed). A median, so a burst that an
    interrupt or a descheduled vCPU stretched does not move it."""
    if not bursts_ns:
        raise ValueError("host speed of no reference bursts")
    return (REFERENCE_BURST_NS / statistics.median(bursts_ns)) ** \
        SPEED_EXPONENT


def trace_overhead(traced_kips, untraced_kips):
    """Share of throughput the probes cost: 1 - traced / untraced."""
    return 1.0 - traced_kips / untraced_kips


def _timed(raw, scaled):
    """(point, host ms samples) of the points with at least one timed
    sample (None marks a repeat in which the point failed; a point
    that failed in every repeat has none). When scaled, each sample
    is taken to the reference host speed by its repeat's bursts."""
    speeds = [host_speed(b) if scaled else 1.0 for b in raw["ref_ns"]]
    out = []
    for p, ms in zip(raw["points"], raw["point_ms"]):
        samples = [m * speeds[r] for r, m in enumerate(ms)
                   if m is not None]
        if samples:
            out.append((p, samples))
    return out


def point_means_ms(raw, scaled=True):
    """Each timed point's mean host ms over the repeats: one sample
    per point. A point's host time is its own SimInstance calls plus
    its charges (its share of its sweep batch's preparation and
    finalisation, and its journal append). A mean, not a median, so a
    slow phase of the host over some repeats moves it smoothly."""
    return [statistics.fmean(ms) for _, ms in _timed(raw, scaled)]


def kips(raw, scaled=True):
    """Committed kilo-instructions per host second of simulation (at
    the reference host speed when scaled): one pass's committed
    instructions over the sum of the points' mean host times, over
    the timed points. Each point is single-threaded, so this is the
    speed of one simulation, whatever the worker count."""
    timed = _timed(raw, scaled)
    committed = sum(p["committed"] for p, _ in timed)
    return committed / sum(statistics.fmean(ms) for _, ms in timed)


def batch_wall_s(raw):
    """Median wall-clock seconds of one pass over the batch."""
    return statistics.median(r["wall_s"] for r in raw["repeats"])


def setup_seconds(raw, scaled=True):
    """Set-up time: each program's median build time over the rounds,
    summed; each round's times taken to the reference host speed by
    its own bursts when scaled."""
    speeds = [host_speed(b) if scaled else 1.0
              for b in raw["setup_ref_ns"]]
    return sum(statistics.median(t * v for t, v in zip(s, speeds))
               for s in raw["setup_s"])


def paper_pairs(raw):
    """(ipc, paper_ipc) per (benchmark, width) of the run's own Base
    points, IPC averaged over programs as the figure harnesses average
    seeds. A failed point (no result: IPC 0) is left out."""
    groups = {}
    for p in raw["points"]:
        if p["scheme"] != "Base" or p["ipc"] <= 0:
            continue
        key = (p["bench"], p["width"])
        groups.setdefault(key, [p["paper_ipc"], []])[1].append(p["ipc"])
    return [(statistics.fmean(ipcs), paper)
            for paper, ipcs in groups.values()]


def run_speed(raw):
    """The host speed a run's point times were scaled by, in effect:
    measured kips over kips at the reference speed."""
    return kips(raw, scaled=False) / kips(raw)


def end_to_end(raw):
    """End-to-end metrics of one untraced driver run: name -> value,
    host times at the reference host speed. Time metrics need at
    least one timed point; a run whose every point failed has none of
    them."""
    out = {"setup_s": setup_seconds(raw),
           "peak_rss_mb": raw["peak_rss_kb"] / 1024.0}
    if _timed(raw, scaled=False):
        out["kips"] = kips(raw)
        out["point_ms_p50"] = percentile(point_means_ms(raw), 50)
    return out


def reported(raw):
    """Figures printed and recorded with the end-to-end metrics but
    not gated (README.md says why): paper_ipc_err where the run has
    Base points, the p98 point time (at the reference host speed), the
    batch's wall time, and the host speed with the kips measured at
    it."""
    out = {"batch_wall_s": batch_wall_s(raw)}
    pairs = paper_pairs(raw)
    if pairs:
        out["paper_ipc_err"] = paper_ipc_err(pairs)
    means = point_means_ms(raw)
    if means:
        out["point_ms_p98"] = percentile(means, 98)
        out["kips_measured"] = kips(raw, scaled=False)
        out["host_speed"] = run_speed(raw)
    out["setup_host_speed"] = \
        setup_seconds(raw) / setup_seconds(raw, scaled=False)
    return out


def _fns(raw):
    return {(f["layer"], f["name"]): f for f in raw["trace"]["fns"]}


def per_call_ns(fns, layer, name):
    f = fns[(layer, name)]
    return f["incl_ns"] / f["calls"] if f["calls"] else 0.0


def self_share(raw, layer):
    t = raw["trace"]
    return sum(f["self_ns"] for f in t["fns"]
               if f["layer"] == layer) / t["point_ns"]


def per_layer(traced, untraced):
    """Per-layer metrics of one traced driver run; untraced gives the
    baseline throughput for the tracing overhead. Host times are
    scaled to the reference host speed, each run by its own bursts."""
    t = traced["trace"]
    fns = _fns(traced)
    pts = traced["points"]
    committed_k = t["sim_committed"] / 1000.0
    run = fns[("core", "run")]
    ctor = fns[("core", "construct")]
    speed = run_speed(traced)

    def ns(layer, name):
        return per_call_ns(fns, layer, name) * speed

    return {
        "rename.ckpt_create_ns": ns("rename", "ckpt_create"),
        "rename.ckpt_release_ns": ns("rename", "ckpt_release"),
        "rename.ckpt_restore_ns": ns("rename", "ckpt_restore"),
        "rename.read_src_ns": ns("rename", "read_src"),
        "rename.rename_dest_ns": ns("rename", "rename_dest"),
        "rename.writeback_ns": ns("rename", "writeback"),
        "rename.commit_ns": ns("rename", "commit"),
        "rename.self_share": self_share(traced, "rename"),
        "rename.ckpts_per_kinst":
            fns[("rename", "ckpt_create")]["calls"] / committed_k,
        "rename.no_preg_stall_frac":
            sum(p["no_preg_stall_cycles"] for p in pts) /
            sum(p["run_cycles"] for p in pts),
        "workload.next_ns": ns("workload", "next"),
        "workload.restore_ns": ns("workload", "restore"),
        "workload.fetched_per_committed":
            fns[("workload", "next")]["calls"] / t["sim_committed"],
        "workload.self_share": self_share(traced, "workload"),
        "workload.setup_ms":
            setup_seconds(traced) * 1000.0 / len(traced["setup_s"]),
        "branch.predict_ns": ns("branch", "predict"),
        "branch.update_ns": ns("branch", "update"),
        "branch.mispredict_rate":
            sum(p["mispredicts"] for p in pts) /
            sum(p["branches"] for p in pts),
        "memory.data_access_ns": ns("memory", "data_access"),
        "memory.inst_access_ns": ns("memory", "inst_access"),
        "memory.dl1_miss_rate":
            statistics.fmean(p["dl1_miss_rate"] for p in pts),
        "memory.self_share": self_share(traced, "memory"),
        "core.self_share": run["self_ns"] / t["point_ns"],
        "core.self_ns_per_cycle":
            run["self_ns"] / t["sim_cycles"] * speed,
        "core.cycles_per_kinst": t["sim_cycles"] / committed_k,
        "core.construct_ms":
            ctor["incl_ns"] / ctor["calls"] / 1e6 * speed,
        "core.steady_allocs": t["steady_allocs"],
        "sim.worker_busy_frac":
            (t["point_ns"] + traced["charge_ns"]) /
            (t["runner_ns"] * t["workers"]),
        "sim.journal_append_us":
            t["journal_ns"] / t["journal_calls"] / 1000.0 * speed,
        "trace.overhead":
            trace_overhead(kips(traced), kips(untraced)),
    }


SIM_FIELDS = ("cycles", "insts", "committed", "arch_sig")


def simulation_mismatches(a, b):
    """Keys of points whose simulated results differ between runs."""
    ref = {p["key"]: p for p in a["points"]}
    bad = []
    for p in b["points"]:
        q = ref.get(p["key"])
        if q is None or any(p[f] != q[f] for f in SIM_FIELDS):
            bad.append(p["key"])
    if len(ref) != len(b["points"]):
        bad.extend(k for k in ref if k not in
                   {p["key"] for p in b["points"]})
    return bad
