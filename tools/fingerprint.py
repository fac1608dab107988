"""Print one digest per CLI call and per demo, so that two checkouts' outputs compare by `diff`.

    python3 tools/fingerprint.py > after.txt

Runs a fixed list of `superdenom` calls, then every `demos/*.py` script, all
in-process against the `src` of the checkout this script sits in, and prints
one line each:

    <sha256 of stdout, stderr and the exit status>  <argv, or demos/<script>>

The list holds the README examples; `verify` of every kind with `--orders
all` on GL(2,2), GL(3,2), B(1,2), B(2,2), C(2,1), D(2,1) and D(3,2) at depth 6,
and on GL(0,2), GL(3,0) and B(0,2), which have an even block of size 0 (a
kind off its family or order exits 2, which is fingerprinted too), and the
compact-pair kinds on their own orders; `verify --identity princ-sd --orders
distinguished --depth 3` on GL(4,3), B(3,2), D(3,2) and D(3,3), whose Weyl
sums are the largest of the list; `theta-table` and `theta-verify` for
each pair, on ranks whose blocks include an empty part (B(0,2), GL with
p = 0 or q = 0, and GL(0,2) with p = q = 0, which has no eps run), a
one-coordinate part, the larger D1 x block of D1(3,1) and D2'(1,2), whose
twist acts on its only eps, and on B(1,3), D1(2,3) and GL(1; 2,2), whose
flip sums hold the most summands that are singular for the Levi block;
`theta-verify` of D1(2,3) at depth 8, whose first term from the table's
det-twisted entries for n > m lies below the depth-6 window, and of
D1(3,2) and B(1,4) at depth 12 and B(3,3) and D2(3,3) at depth 8, where
most of each compact character lies below the window;
`list-arc-diagrams` in text on D(2,2), which has sign twins and -eps_m
orders, and on B(2,2); `reduce-diagram` of three nested arcs on the D(3,3)
order d1 d2 d3 e1 e2 e3, which ends in eps_m and needs odd moves;
`kw-check`, including the m = n ranks GL(2,2) and D(2,2), where the
gamma chain drops a root; `dump-series`; the calls that miss a required
argument, give a pair a rank it does not take, or give arcs, a depth or a
bound of the wrong form, which exit 2; the default JSON form of both
diagram commands and the text form of `theta-table`; and `princ-sd` on the
D(4,3) D2 order, where no tiebreak seed separates the denominator
exponents, which exits 3.  The demos print what no CLI call does: simple
roots, odd reflections and root-cone verdicts.  Stdlib only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import runpy
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

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

VERIFY_RANKS = [
    ("gl", 2, 2), ("gl", 3, 2), ("b", 1, 2), ("b", 2, 2), ("c", 2, 1), ("d", 2, 1), ("d", 3, 2),
    ("gl", 0, 2), ("gl", 3, 0), ("b", 0, 2),
]

PAIRS = [
    "--pair B --m 1 --n 2",
    "--pair D1 --m 2 --n 2",
    "--pair D2 --m 2 --n 1",
    "--pair D2' --m 2 --n 1",
    "--pair GL --n 2 --p 1 --q 1",
    # blocks with an empty part, a one-coordinate part or a larger x block
    "--pair B --m 0 --n 2",
    "--pair GL --n 1 --p 2 --q 0",
    "--pair GL --n 2 --p 0 --q 2",
    "--pair D1 --m 3 --n 1",
    "--pair D2 --m 3 --n 1",
    "--pair D2' --m 3 --n 2",
    # no eps run (p = q = 0); the twist on the only eps
    "--pair GL --n 2 --p 0 --q 0",
    "--pair D2' --m 1 --n 2",
    # flip sums with many singular summands (8, 11 and 2 over the table at bound 6)
    "--pair B --m 1 --n 3",
    "--pair D1 --m 2 --n 3",
    "--pair GL --n 1 --p 2 --q 2",
]

# the largest Weyl sums: princ-sd on a distinguished order at depth 3
LARGE_RANKS = [("gl", 4, 3), ("b", 3, 2), ("d", 3, 2), ("d", 3, 3)]

KW_RANKS = [("gl", 2, 1), ("gl", 2, 2), ("gl", 3, 2), ("b", 2, 1), ("d", 2, 1), ("d", 2, 2), ("d", 3, 2)]

# the diagram layer: sign twins and -eps_m orders (D), the B orders, and a
# reduction whose innermost non-simple arc needs odd moves first
NESTED_ORDER = json.dumps(
    [{"kind": "d", "idx": i} for i in (1, 2, 3)] + [{"kind": "e", "idx": i} for i in (1, 2, 3)],
    separators=(",", ":"),
)
DIAGRAMS = [
    "list-arc-diagrams --family d --m 2 --n 2 --format text",
    "list-arc-diagrams --family b --m 2 --n 2 --format text",
    f"reduce-diagram --family d --m 3 --n 3 --order {NESTED_ORDER} --arcs [[0,5],[1,4],[2,3]] --format text",
]

MISSING_ARGUMENTS = [
    "verify --identity glkk",
    "verify --identity princ-sd",
    "theta-verify --pair GL --n 1",
    "theta-verify --pair B --n 1",
]

# deep theta checks, where the finite characters are cut hardest at the
# window: most of each compact character lies below it
DEEP_THETA = [
    "theta-verify --pair D1 --m 3 --n 2 --depth 12",
    "theta-verify --pair B --m 3 --n 3 --depth 8",
    "theta-verify --pair D2 --m 3 --n 3 --depth 8",
    "theta-verify --pair B --m 1 --n 4 --depth 12",
]

# a rank the pair does not take exits 2
UNUSED_RANKS = [
    "theta-table --pair B --m 1 --n 1 --p 9 --bound 1",
    "theta-table --pair GL --n 1 --p 1 --q 0 --m 7 --bound 1",
]

# the paths no call above reaches: the default JSON form of the diagram
# commands, the text form of theta-table, arcs that are not integer pairs,
# a negative depth and a bound that is no integer (exit 2), and a check on
# which no tiebreak seed separates the denominator exponents (exit 3)
D2_ORDER = json.dumps(distinguished_order("D", 4, 3, "D2").to_json(), separators=(",", ":"))
OTHER_PATHS = [
    "list-arc-diagrams --family d --m 2 --n 2",
    f"reduce-diagram --family d --m 3 --n 3 --order {NESTED_ORDER} --arcs [[0,5],[1,4],[2,3]]",
    "theta-table --pair GL --n 1 --p 2 --q 1 --bound 4 --format text",
    f"reduce-diagram --family d --m 3 --n 3 --order {NESTED_ORDER} --arcs [[0,1.5]]",
    "verify --identity glkk --k 2 --depth -1",
    "theta-table --pair B --m 1 --n 2 --bound x",
    f"verify --identity princ-sd --family d --m 4 --n 3 --orders {D2_ORDER} --depth 1",
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
    for fam, m, n in LARGE_RANKS:
        out.append(f"verify --identity princ-sd --family {fam} --m {m} --n {n} --orders distinguished --depth 3".split())
    for pair in PAIRS:
        out.append(f"theta-table {pair} --bound 6".split())
        out.append(f"theta-verify {pair} --depth 6".split())
    # the depth-6 window misses the D1(2,3) entry a = (1, 0) with the "-"
    # label (degree 3 in the oscillator); depth 8 reaches it
    out.append("theta-verify --pair D1 --m 2 --n 3 --depth 8".split())
    out += [line.split(" ") for line in DEEP_THETA]
    out += [line.split(" ") for line in DIAGRAMS]
    for fam, m, n in KW_RANKS:
        out.append(f"kw-check --family {fam} --m {m} --n {n} --depth 6".split())
    for fam, m, n in VERIFY_RANKS:
        for what in ("lhs-sd", "lhs-d"):
            out.append(f"dump-series --family {fam} --m {m} --n {n} --what {what} --depth 6".split())
    out += [line.split(" ") for line in MISSING_ARGUMENTS + UNUSED_RANKS + OTHER_PATHS]
    return out


def _digest(run, label: str) -> str:
    """The digest line of one in-process run: its stdout, its stderr and the
    exit status that ``run`` returns."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run()
    text = f"{out.getvalue()}\n--stderr--\n{err.getvalue()}\nexit {code}\n"
    digest = hashlib.sha256(text.encode()).hexdigest()
    return f"{digest}  {label}"


def fingerprint(argv: list[str]) -> str:
    """The digest line of one call: its stdout, its stderr and its exit status."""
    return _digest(lambda: main(argv), " ".join(argv))


def demo_fingerprint(script: pathlib.Path) -> str:
    """The digest line of one demo script, run as ``__main__``; a script that
    raises fails this tool rather than printing a digest."""

    def run() -> int:
        runpy.run_path(str(script), run_name="__main__")
        return 0

    return _digest(run, f"demos/{script.name}")


if __name__ == "__main__":
    for argv in calls():
        print(fingerprint(argv), flush=True)
    for script in sorted((ROOT / "demos").glob("*.py")):
        print(demo_fingerprint(script), flush=True)
