"""One pass of a workload in a fresh interpreter; run.py starts it.

    python3 perfbench/child.py --workload grid --seed 1 --mode pass --t0 <time.monotonic()>

--t0 is the parent's monotonic clock just before it started this process, so
set-up time counts from interpreter start to built inputs.  Mode "setup"
stops there; "pass" then runs every check once, one after another, timing
each; "trace" does the same with the layer spans of layers.py installed and
writes them to --spans.  The last stdout line is one JSON document.

Next to every timing the child also times reference_work(), a fixed
pure-Python workload that shares nothing with the package: after set-up and
between checks.  run.py divides each check's time by the mean of the
reference times just before and just after it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


class _Key:
    __slots__ = ("coords", "_hash")

    def __init__(self, coords):
        self.coords = coords
        self._hash = hash(coords)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return self.coords == other.coords


def reference_work() -> int:
    """A sparse product over hashed tuple-keyed objects, like the series
    kernel's, but fixed and outside the package: about 2 ms."""
    a = {_Key((i, j, i - j, 0, 1)): i + j for i in range(12) for j in range(12)}
    b = [((i, -i, 1, i, 0), 1 - 2 * (i % 2)) for i in range(10)]
    out = {}
    for ka, ca in a.items():
        x = ka.coords
        for kb, cb in b:
            k = _Key(tuple(p + q for p, q in zip(x, kb)))
            out[k] = out.get(k, 0) + ca * cb
    return len(out)


def reference_s() -> float:
    """The time of one reference_work(), with the collector off so that it
    never pays for collecting the package's objects."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_work()
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=["setup", "pass", "trace"], required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--spans")
    args = p.parse_args()

    import workloads

    tracer = None
    if args.mode == "trace":
        import layers

        tracer = layers.Tracer()
        tracer.install()
    checks = workloads.build(args.workload, args.seed)
    setup_s = time.monotonic() - args.t0
    before = statistics.median(reference_s() for _ in range(5))
    # each check: [id, known verdict, seconds, reference seconds, verdict, report]
    out = {"setup_s": setup_s, "setup_ref_s": before, "checks": []}
    if args.mode != "setup":
        clock = time.perf_counter
        for i, check in enumerate(checks):
            if tracer:
                tracer.check = i
            verdict = None
            start = clock()
            try:
                result = check.run()
            except Exception as exc:  # a check that raises is a wrong verdict, not a crash
                verdict, report = "error", f"{type(exc).__name__}: {exc}"
            seconds = clock() - start
            if tracer:
                tracer.check = None
            after = reference_s()
            if verdict is None:
                doc = check.report(result)
                verdict, report = doc["verdict"], workloads.canonical(doc)
            out["checks"].append([check.id, check.expect, seconds, (before + after) / 2, verdict, report])
            before = after
        if tracer:
            tracer.write(args.spans)
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
