"""Write perfbench/golden.json: the report of every check of every workload's
universe, keyed by "<workload>/<check id>", so that a run with any seed can be
checked byte for byte.

Run from the repository root, at a commit whose verdicts are trusted:

    python3 perfbench/golden.py

It refuses to write the file if any check's verdict differs from its known
verdict (pass for an identity, fail for a negative control).
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

GOLDEN = os.path.join(HERE, "golden.json")


def main() -> int:
    reports = {}
    wrong = []
    for name in workloads.WORKLOADS:
        t0 = time.perf_counter()
        checks = workloads.build(name, None)
        for check in checks:
            doc = check.report(check.run())
            key = f"{name}/{check.id}"
            if key in reports:
                raise SystemExit(f"duplicate check id {key}")
            reports[key] = doc
            if doc["verdict"] != check.expect:
                wrong.append(key)
        print(f"{name}: {len(checks)} checks in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    if wrong:
        print("verdicts differ from the known answers:", *wrong, sep="\n  ", file=sys.stderr)
        return 1
    with open(GOLDEN, "w") as fh:
        fh.write("{\n")
        fh.write(",\n".join(f"{json.dumps(k)}: {workloads.canonical(v)}" for k, v in sorted(reports.items())))
        fh.write("\n}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
