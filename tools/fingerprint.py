"""Print one digest per CLI call, so that two checkouts' outputs compare by `diff`.

    python3 tools/fingerprint.py > after.txt

Runs a fixed list of `superdenom` calls in-process, against the `src` of the
checkout this script sits in, and prints one line per call:

    <sha256 of stdout, stderr and the exit status>  <argv>

The list holds the README examples; `verify` of every kind with `--orders
all` on GL(2,2), GL(3,2), B(1,2), B(2,2), C(2,1), D(2,1) and D(3,2) at depth 6
(a kind off its family or order exits 2, which is fingerprinted too), and the
compact-pair kinds on their own orders; `theta-table` and `theta-verify` for
each pair; `kw-check`, including the m = n ranks GL(2,2) and D(2,2), where the
gamma chain drops a root; `dump-series`; and the calls that miss a required
argument and exit 2.  Stdlib only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from superdenom.cli import main  # noqa: E402
from superdenom.denominators import IDENTITY_KINDS  # noqa: E402
from superdenom.rootdata import distinguished_order  # noqa: E402

README = [
    "verify --identity princ-sd --family gl --m 2 --n 2 --orders all --depth 8",
    "verify --identity glkk --k 3 --depth 6",
    "verify --identity seconda-sd --family b --m 1 --n 2 --orders distinguished --depth 8",
    "list-arc-diagrams --family gl --m 5 --n 4 --format text",
    "reduce-diagram --family gl --m 2 --n 2"
    ' --order [{"kind":"e","idx":1},{"kind":"d","idx":1},{"kind":"e","idx":2},{"kind":"d","idx":2}]'
    " --arcs [[0,3],[1,2]] --format text",
    "theta-table --pair B --m 1 --n 2 --bound 6",
    "theta-verify --pair D1 --m 2 --n 2 --depth 8",
    "theta-verify --pair GL --n 1 --p 1 --q 1 --depth 8",
    "kw-check --family d --m 2 --n 2 --depth 8",
    "dump-series --family b --m 1 --n 1 --what lhs-sd --depth 6",
]

VERIFY_RANKS = [("gl", 2, 2), ("gl", 3, 2), ("b", 1, 2), ("b", 2, 2), ("c", 2, 1), ("d", 2, 1), ("d", 3, 2)]

PAIRS = [
    "--pair B --m 1 --n 2",
    "--pair D1 --m 2 --n 2",
    "--pair D2 --m 2 --n 1",
    "--pair D2' --m 2 --n 1",
    "--pair GL --n 2 --p 1 --q 1",
]

KW_RANKS = [("gl", 2, 1), ("gl", 2, 2), ("gl", 3, 2), ("b", 2, 1), ("d", 2, 1), ("d", 2, 2), ("d", 3, 2)]

MISSING_ARGUMENTS = [
    "verify --identity glkk",
    "verify --identity princ-sd",
    "theta-verify --pair GL --n 1",
    "theta-verify --pair B --n 1",
]


def calls() -> list[list[str]]:
    out = [line.split(" ") for line in README]
    for fam, m, n in VERIFY_RANKS:
        for kind in IDENTITY_KINDS:
            if kind != "glkk":
                out.append(
                    f"verify --identity {kind} --family {fam} --m {m} --n {n} --orders all --depth 6".split()
                )
    for m, n in [(1, 2), (2, 2)]:
        out.append(f"verify --identity seconda-sd --family b --m {m} --n {n} --orders distinguished --depth 6".split())
    for kind in ("seconda-d2-sd", "seconda-w1-sd"):
        for m, n in [(2, 1), (3, 2)]:
            order = json.dumps(distinguished_order("D", m, n, "D2").to_json(), separators=(",", ":"))
            out.append(f"verify --identity {kind} --family d --m {m} --n {n} --orders {order} --depth 6".split())
    for pair in PAIRS:
        out.append(f"theta-table {pair} --bound 6".split())
        out.append(f"theta-verify {pair} --depth 6".split())
    for fam, m, n in KW_RANKS:
        out.append(f"kw-check --family {fam} --m {m} --n {n} --depth 6".split())
    for fam, m, n in VERIFY_RANKS:
        for what in ("lhs-sd", "lhs-d"):
            out.append(f"dump-series --family {fam} --m {m} --n {n} --what {what} --depth 6".split())
    out += [line.split(" ") for line in MISSING_ARGUMENTS]
    return out


def fingerprint(argv: list[str]) -> str:
    """The digest line of one call: its stdout, its stderr and its exit status."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text = f"{out.getvalue()}\n--stderr--\n{err.getvalue()}\nexit {code}\n"
    digest = hashlib.sha256(text.encode()).hexdigest()
    return f"{digest}  {' '.join(argv)}"


if __name__ == "__main__":
    for argv in calls():
        print(fingerprint(argv), flush=True)
