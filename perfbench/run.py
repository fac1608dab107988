"""The superdenom benchmark.  Run from the repository root:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 15 --trace 0

Each pass of a workload runs in a fresh interpreter (child.py): it imports
the package, builds its seeded inputs, then runs its checks one after
another, a single caller in a closed loop.  Passes repeat the same sample
until --seconds have gone, at least MIN_PASSES times.  Every timing is scaled
by the reference workload timed next to it (see REFERENCE_S), and each
check's latency is its median over the passes.  Every verdict is compared
with its known answer and every report byte for byte with golden.json.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced passes of the same sample and prints the per-layer metrics derived
from the traced passes' spans, with the tracing overhead.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  The lines before it give the run record and each metric
with its unit.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402  (stdlib only; does not import the package)

CHILD = os.path.join(HERE, "child.py")
GOLDEN = os.path.join(HERE, "golden.json")
SPANS_DIR = os.path.join(HERE, "out")
SETUP_ONLY_CHILDREN = 3
# A pass with fewer than TAIL_MIN_CHECKS checks repeats at least
# MIN_PASSES_FEW times: there each check's median carries a metric alone.
MIN_PASSES = 3
MIN_PASSES_FEW = 4
# On a shared 2-vCPU Intel Xeon host, speed swung by up to 1.8x for tens of
# seconds at a time: a fixed pure-Python loop, repeated for 40 s, ran in 24
# to 49 ms, and one B(2,2) princ-d check in 70 to 131 ms.  The check's time
# divided by that of child.reference_work(), timed next to it, stayed within
# 3% of its median.  So every timing t is reported as t * REFERENCE_S /
# (reference time next to it): the time on a host where reference_work()
# takes REFERENCE_S, about its fastest time there.
REFERENCE_S = 0.002
# A run may take 180 s; every child is stopped by then.
RUN_LIMIT_S = 170

# (metric, unit)
END_TO_END = [
    ("checks_per_s", "checks/s"),
    ("verdict_p50_ms", "ms"),
    ("verdict_tail_ms", "ms"),
    ("right_verdict_rate", "share"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]
# With fewer checks in a pass than this, the tail is the slowest check.
TAIL_MIN_CHECKS = 100
# Expected dominant layer (largest self time) per workload.
DOMINANT = {"grid": "series.product_expansion", "frontier": "series.add", "theta": "series.weyl_character"}


class BenchError(Exception):
    pass


def spawn(args, mode: str, spans: str | None = None) -> tuple[dict, float]:
    """Run one child to completion; return its document and its wall time."""
    cmd = [sys.executable, CHILD, "--workload", args.workload, "--seed", str(args.seed), "--mode", mode]
    if spans:
        cmd += ["--spans", spans]
    t0 = time.monotonic()
    if t0 >= args.deadline:
        raise BenchError(f"the run took longer than {RUN_LIMIT_S} s")
    proc = subprocess.run(
        cmd + ["--t0", repr(t0)], cwd=ROOT, capture_output=True, text=True, timeout=args.deadline - t0
    )
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        raise BenchError(f"{mode} child failed with code {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def judge(workload: str, checks: list, golden: dict) -> list[str]:
    """Ids of the checks whose verdict differs from the known one, that
    raised, or whose report differs from the golden file by a byte."""
    wrong = []
    for cid, expect, _seconds, _ref, verdict, report in checks:
        want = golden.get(f"{workload}/{cid}")
        if verdict != expect or want is None or report != want:
            wrong.append(cid)
    return wrong


def scale(ref_s: float) -> float:
    return REFERENCE_S / ref_s


def pass_scale(doc: dict) -> float:
    return scale(statistics.median(c[3] for c in doc["checks"]))


def latencies(passes: list[dict]) -> list[float]:
    """Each check's scaled latency, its median over the passes, ascending."""
    per_check: dict[str, list[float]] = {}
    for doc in passes:
        for cid, _e, seconds, ref, _v, _r in doc["checks"]:
            per_check.setdefault(cid, []).append(seconds * scale(ref))
    return sorted(statistics.median(v) for v in per_check.values())


def tail(lat: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten checks beyond it, or the
    slowest check when a pass has fewer than TAIL_MIN_CHECKS."""
    n = len(lat)
    if n < TAIL_MIN_CHECKS:
        return lat[-1], f"slowest of {n} checks (too few for a percentile)"
    q = 1 - 10 / n
    return lat[math.ceil(q * n) - 1], f"p{100 * q:.1f} (nearest rank) of {n} checks, 10 beyond it"


def run_record(args, checks_per_pass: int, attempted: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "checks_per_pass": checks_per_pass,
        "checks_attempted": attempted,
    }


def keep_going(started: float, durations: list[float], seconds: float, least: int) -> bool:
    """Start another pass unless `least` have run and it would end past
    --seconds by more than half a pass."""
    if len(durations) < least:
        return True
    return time.monotonic() - started + statistics.mean(durations) / 2 < seconds


def untraced(args, golden: dict):
    children = [spawn(args, "setup")[0] for _ in range(SETUP_ONLY_CHILDREN)]
    passes, walls = [], []
    started = time.monotonic()
    least = MIN_PASSES
    while keep_going(started, walls, args.seconds, least):
        doc, wall = spawn(args, "pass")
        if len(doc["checks"]) < TAIL_MIN_CHECKS:
            least = MIN_PASSES_FEW
        passes.append(doc)
        walls.append(wall)
    setups = [doc["setup_s"] * scale(doc["setup_ref_s"]) for doc in children + passes]
    all_checks = [c for doc in passes for c in doc["checks"]]
    wrong = judge(args.workload, all_checks, golden)
    lat = latencies(passes)
    slowest, tail_note = tail(lat)
    raw = len(all_checks) / sum(c[2] for c in all_checks)
    values = {
        "checks_per_s": len(lat) / sum(lat),
        "verdict_p50_ms": 1000 * statistics.median(lat),
        "verdict_tail_ms": 1000 * slowest,
        "right_verdict_rate": 1 - len(wrong) / len(all_checks),
        "peak_rss_mb": statistics.median(doc["maxrss_kb"] for doc in passes) / 1024,
        "setup_s": statistics.median(setups),
    }
    notes = {
        "checks_per_s": f"{len(lat)} checks over the sum of their latencies, {len(passes)} passes "
        f"({raw:.4g} unscaled)",
        "verdict_tail_ms": tail_note,
        "verdict_p50_ms": f"median of {len(lat)} checks",
        "setup_s": f"median of {len(setups)} interpreters",
        "peak_rss_mb": f"median over {len(passes)} passes",
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return metrics, len(all_checks), len(passes[0]["checks"]), wrong, [], notes


def traced(args, golden: dict):
    os.makedirs(SPANS_DIR, exist_ok=True)
    spans_path = os.path.join(SPANS_DIR, f"{args.workload}.spans.jsonl")
    plain_walls, overheads, pair_walls = [], [], []
    runs, problems, wrong, attempted = [], [], [], 0
    started = time.monotonic()
    while keep_going(started, pair_walls, args.seconds, MIN_PASSES):
        # alternate which pass of a pair runs first, so that drift cancels
        if len(runs) % 2:
            doc, traced_wall = spawn(args, "trace", spans_path)
            plain, plain_wall = spawn(args, "pass")
        else:
            plain, plain_wall = spawn(args, "pass")
            doc, traced_wall = spawn(args, "trace", spans_path)
        plain_walls.append(plain_wall)
        overheads.append(traced_wall - plain_wall)
        pair_walls.append(plain_wall + traced_wall)
        # A traced interpreter holds every span, which slows the reference
        # work too, so its times are scaled by the untraced pass's reference.
        factor = pass_scale(plain)
        spans = layers.read_spans(spans_path)
        runs.append(layers.metrics(spans, factor))
        if len(runs) == 1:
            own = layers.self_seconds_by_span(spans)
        for d in (plain, doc):
            attempted += len(d["checks"])
            wrong += judge(args.workload, d["checks"], golden)
        if [c[4] for c in plain["checks"]] != [c[4] for c in doc["checks"]]:
            problems.append("traced verdicts differ from the untraced pass")
        compared = layers.compared_by_check(spans)
        vacuous = [c[0] for i, c in enumerate(doc["checks"]) if compared.get(i, 0) == 0]
        wrong += [f"{cid} (compared no terms)" for cid in vacuous]
        missing = layers.uncovered(args.workload, spans)
        if missing:
            problems.append(f"no calls recorded for {', '.join(missing)}")
    per_layer = layers.median_metrics(runs)
    overhead = statistics.median(overheads)
    dominant = max(own, key=own.get)
    units = {metric: unit for metric, _n, _s, unit in layers.METRICS}
    metrics = {name: {"value": value, "unit": units[name]} for name, value in per_layer.items()}
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    notes = {
        "trace.overhead_s": f"traced pass wall time minus untraced, median of {len(runs)} pairs "
        f"({statistics.median(plain_walls):.3f} s untraced; not scaled)",
        "dominant layer": f"{dominant} ({own[dominant]:.3f} s self; predicted {DOMINANT[args.workload]})",
    }
    return metrics, attempted, len(doc["checks"]), wrong, problems, notes


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(DOMINANT))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    args.deadline = time.monotonic() + RUN_LIMIT_S

    if not os.path.isfile(os.path.join(ROOT, "src", "superdenom", "__init__.py")):
        print(f"error: no superdenom package under {ROOT}/src", file=sys.stderr)
        return 2
    with open(GOLDEN) as fh:
        golden = {k: json.dumps(v, sort_keys=True, separators=(",", ":")) for k, v in json.load(fh).items()}
    try:
        metrics, attempted, per_pass, wrong, problems, notes = (traced if args.trace else untraced)(args, golden)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(json.dumps({"run_record": run_record(args, per_pass, attempted)}))
    for name, m in metrics.items():
        note = notes.get(name, "")
        print(f"{name:48s} {m['value']:>14.6g} {m['unit']:9s} {note}")
    for name, note in notes.items():
        if name not in metrics:
            print(f"{name:48s} {note}")
    for cid in wrong[:20]:
        print(f"wrong: {cid}")
    for problem in problems:
        print(f"trace check failed: {problem}")
    result = {"correct": not wrong and not problems, "attempted": attempted, "failed": len(wrong), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
