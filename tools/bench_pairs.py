"""Compare two checkouts on the perfbench workloads in alternating pairs.

    python3 tools/bench_pairs.py --parent ../parent --change . --seeds 1401-1410 \\
        --out BENCH_N.json --what "what changed; the claim"

For every workload and every seed, runs `python3 perfbench/run.py --trace 0`
once in each checkout, one process at a time: the parent first in the 1st,
3rd, ... pair of a workload, the change first in the others, so that drift of
the host's speed falls on both sides alike.  Then runs `--trace 1` once per
side on every workload at seed 7, so that a claim on any workload comes with
its per-layer counts.  Each side runs its own perfbench files from its own
checkout.  The workloads, the run length (`run_seconds`) and each
metric's better direction and bound are read from the change checkout's
BENCHMARK.json.

Writes one JSON document: the run design, a summary per workload and
end-to-end metric (quartiles of each side, how many pairs each side won, the
relative change of the median, the parent's interquartile range and two
verdicts, below), the traced runs with every per-layer metric and the
dominant layer, and every run's result.

  gain_shown    the change won at least nine tenths of the pairs, and its
                median is better than the parent's by more than the
                parent's interquartile range;
  within_bound  the change's median is worse than the parent's by no more
                than the metric's `bound` in BENCHMARK.json, taken as a
                share of the parent's median.

At least 10 seeds are required, since fewer pairs cannot show a gain against
the parent's spread.  Stdlib only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

MIN_PAIRS = 10
TRACE_SEED = 7


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def src_digest(checkout: str) -> str:
    """A short sha256 of the paths and bytes of the files under the
    checkout's src/, leaving out what building leaves there (__pycache__,
    *.egg-info)."""
    root = os.path.join(checkout, "src")
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__" and not d.endswith(".egg-info"))
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                data = fh.read()
            h.update(f"{os.path.relpath(path, root)}\0{len(data)}\0".encode() + data)
    return h.hexdigest()[:8]


def revision(checkout: str) -> str:
    """The checkout's short commit hash and the digest of its sources, as in
    7b4eb39+src:1a2b3c4d, so that an uncommitted change is not named by its
    parent alone; a checkout that is not the top of a git tree is named
    src:1a2b3c4d."""
    proc = subprocess.run(
        ["git", "-C", checkout, "rev-parse", "--show-toplevel", "--short", "HEAD"], capture_output=True, text=True
    )
    lines = proc.stdout.split()
    top = proc.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], checkout)
    return f"{lines[1]}+src:{src_digest(checkout)}" if top else f"src:{src_digest(checkout)}"


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run; its last stdout line, flattened, plus the
    dominant-layer line of a traced run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "error": proc.stderr.strip()[-2000:] or f"exit {proc.returncode}"}
    doc = json.loads(lines[-1])
    out = {"correct": doc["correct"], "attempted": doc["attempted"], "failed": doc["failed"]}
    out.update({name: round(m["value"], 6) for name, m in doc["metrics"].items()})
    for line in lines:
        if line.startswith("dominant layer"):
            out["dominant_layer"] = line[len("dominant layer"):].strip()
        elif line.startswith("trace check failed") or line.startswith("wrong:"):
            out.setdefault("problems", []).append(line)
    return out


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 6), "median": round(median, 6), "q3": round(q3, 6)}


def summarize(runs: list[dict], workloads: list[str], better: dict, bound: dict) -> dict:
    summary = {}
    for workload in workloads:
        pairs: dict[int, dict] = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["seed"], {})[r["side"]] = r
        pairs = {s: p for s, p in pairs.items() if len(p) == 2 and all("error" not in r for r in p.values())}
        if len(pairs) < MIN_PAIRS:
            summary[workload] = f"only {len(pairs)} complete pairs; no summary below {MIN_PAIRS}"
            continue
        summary[workload] = {}
        for metric, direction in better.items():
            both = [(p["parent"][metric], p["change"][metric]) for p in pairs.values()]
            parent = [a for a, _ in both]
            change = [b for _, b in both]
            sign = 1 if direction == "higher" else -1
            qp, qc = quartiles(parent), quartiles(change)
            change_wins = sum(1 for a, b in both if sign * (b - a) > 0)
            iqr = qp["q3"] - qp["q1"]
            gain = sign * (qc["median"] - qp["median"])
            summary[workload][metric] = {
                "parent": qp,
                "change": qc,
                "change_wins": change_wins,
                "parent_wins": sum(1 for a, b in both if sign * (a - b) > 0),
                "pairs": len(both),
                "median_change_rel": round(qc["median"] / qp["median"] - 1, 4) if qp["median"] else None,
                "parent_iqr": round(iqr, 6),
                "gain_shown": 10 * change_wins >= 9 * len(both) and gain > iqr,
                "within_bound": -gain <= bound[metric] * abs(qp["median"]),
            }
    return summary


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--seeds", required=True, help="seed range A-B, used on every workload")
    p.add_argument("--out", required=True, help="JSON file to write")
    p.add_argument("--what", default="", help="what the change does and the gain it claims")
    args = p.parse_args()

    seeds = seed_range(args.seeds)
    if len(seeds) < MIN_PAIRS:
        p.error(f"--seeds must name at least {MIN_PAIRS} seeds")
    sides = {"parent": args.parent, "change": args.change}
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bound = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = []
    for workload in workloads:
        for i, seed in enumerate(seeds):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                r = run_once(sides[side], workload, seed, seconds, 0)
                runs.append({"workload": workload, "seed": seed, "side": side, **r})
                status = "error" if "error" in r else f"correct={r['correct']} checks_per_s={r['checks_per_s']:.4g}"
                print(f"{workload} seed {seed} {side}: {status}", file=sys.stderr, flush=True)
    traced = []
    for workload in workloads:
        for side in ("parent", "change"):
            r = run_once(sides[side], workload, TRACE_SEED, seconds, 1)
            traced.append({"workload": workload, "seed": TRACE_SEED, "side": side, "trace": 1, **r})
            print(f"traced {workload} {side}: correct={r['correct']}", file=sys.stderr, flush=True)

    doc = {
        "what": args.what,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0 "
        f"(traced runs: --trace 1)",
        "host": f"{os.cpu_count()}-vCPU {cpu_model()}, Python {platform.python_version()}",
        "parent": revision(args.parent),
        "change": revision(args.change),
        "design": f"{len(seeds)} pairs per workload on seeds {args.seeds}; the parent ran first in the 1st, "
        f"3rd, ... pair of each workload, the change in the others; one traced run per side and "
        f"workload at seed {TRACE_SEED}; one process at a time, each side from its own checkout "
        f"with its own perfbench files",
        "summary": summarize(runs, workloads, better, bound),
        f"traced_seed_{TRACE_SEED}": traced,
        "runs": runs,
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0 if all(r.get("correct") for r in runs + traced) else 1


if __name__ == "__main__":
    raise SystemExit(main())
