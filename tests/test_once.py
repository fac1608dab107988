"""What is built once is kept in one place: ``rootdata.once`` and its owner's
``_kept`` dict, on every datum, system, theta block and pair."""

import ast
import contextlib
import io
import pathlib

import superdenom
from superdenom.cli import main
from superdenom.denominators import IDENTITY_KINDS, verify
from superdenom.diagrams import enumerate_diagrams
from superdenom.rootdata import PositiveSystem, RootDatum, build_root_datum, positive_system, standard_order
from superdenom.series import CharSeries
from superdenom.theta import Block, DualPair, make_pair

# the ranks of the shared-left-side sweep, and every pair of the benchmark's
# theta workload
RANKS = [("D", 2, 2, "dede"), ("GL", 3, 2, "edede")]
THETA_PAIRS = [
    ("B", dict(m=1, n=1)), ("B", dict(m=1, n=2)), ("B", dict(m=2, n=1)),
    ("D2", dict(m=1, n=1)), ("D2", dict(m=2, n=1)), ("D1", dict(m=2, n=1)), ("D1", dict(m=2, n=2)),
    ("GL", dict(n=1, p=1, q=1)), ("GL", dict(n=2, p=1, q=1)), ("GL", dict(n=1, p=2, q=1)),
    ("B", dict(m=2, n=2)), ("D2", dict(m=2, n=2)), ("GL", dict(n=2, p=2, q=1)),
]
SERIES_FIELDS = ("packed", "bound", "bits", "threshold4", "ceiling4")


def _record_owners(monkeypatch) -> list:
    """Every system, block and pair built from here on, in a list."""
    owners = []
    for cls, method in ((PositiveSystem, "__init__"), (Block, "__post_init__"), (DualPair, "__init__")):

        def record(self, *args, _honest=getattr(cls, method), **kwargs):
            _honest(self, *args, **kwargs)
            owners.append(self)

        monkeypatch.setattr(cls, method, record)
    return owners


def _sweep():
    """Every verify kind on every diagram of RANKS (the seconda kinds hold
    only on their distinguished orders, and glkk is no diagram check),
    kw-check on each rank and a depth-8 duality check of every pair."""
    for fam, m, n, pattern in RANKS:
        system = positive_system(build_root_datum(fam, m, n), standard_order(fam, m, n, pattern))
        for X in enumerate_diagrams(system):
            for kind in IDENTITY_KINDS:
                if kind == "glkk" or kind.startswith("seconda") or (kind.startswith("kwg") and not X.is_simple()):
                    continue
                assert verify(kind, system, X=X, depth=4).passed, (fam, kind, X.arcs)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["kw-check", "--family", fam, "--m", str(m), "--n", str(n), "--depth", "4"]) == 0
    for tag, kw in THETA_PAIRS:
        assert make_pair(tag, **kw).verify_duality(8).passed, (tag, kw)


def _same(owner, kept, fresh) -> bool:
    """Whether a kept value equals a fresh build: series on their window
    fields, systems on their functional and roots, a block's image-key
    closures on their outputs at its rho and at each positive root, and
    everything else by ==."""
    if isinstance(kept, CharSeries):
        return all(getattr(kept, f) == getattr(fresh, f) for f in SERIES_FIELDS)
    if isinstance(kept, PositiveSystem):
        fields = lambda s: (s.datum, s.order, s.tiebreak, s._hvals2, s.positive_even, s.positive_odd, s.rho)
        return fields(kept) == fields(fresh)
    if isinstance(owner, Block) and callable(kept[0]):
        probes = [owner.rho, *owner.positive]
        return all([*kept[0](x)] == [*fresh[0](x)] and kept[1](x) == fresh[1](x) for x in probes)
    return kept == fresh


def _once_sites() -> tuple[set[str], set[str]]:
    """The names of the builders passed to ``once`` in the package, and
    ``module.function`` for every function that reads or writes an
    attribute ``_kept`` other than by setting it to an empty dict."""
    builders, touches = set(), set()
    for path in pathlib.Path(superdenom.__file__).parent.glob("*.py"):

        def visit(node, where, fresh_dict=False):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                where = f"{path.stem}.{node.name}"
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "once":
                build = node.args[1]
                builders.add(build.id if isinstance(build, ast.Name) else build.attr)
            if isinstance(node, ast.Attribute) and node.attr == "_kept" and not fresh_dict:
                touches.add(where)
            init = isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict) and not node.value.keys
            for child in ast.iter_child_nodes(node):
                visit(child, where, init and child in node.targets)

        visit(ast.parse(path.read_text()), f"{path.stem}.<module>")
    return builders, touches


def test_every_owner_keeps_only_fresh_builds_and_only_once_writes_them(monkeypatch):
    owners = _record_owners(monkeypatch)
    _sweep()
    owners += [o.datum for o in owners if isinstance(o, PositiveSystem)]
    owners = list({id(o): o for o in owners}.values())
    assert {type(o) for o in owners} >= {RootDatum, PositiveSystem, Block}
    assert any(isinstance(o, DualPair) for o in owners)

    # one memo per owner, and no other dict
    for owner in owners:
        dicts = sorted(name for name, value in vars(owner).items() if isinstance(value, dict))
        assert dicts == ["_kept"], (owner, dicts)

    # every kept value equals a fresh build with every memo emptied first
    kept = [(owner, build, key, value) for owner in owners for (build, key), value in owner._kept.items()]
    for owner in owners:
        owner._kept.clear()
    for owner, build, key, value in kept:
        assert _same(owner, value, build(owner, *key)), (owner, build.__name__, key)

    # the sweep reached every builder, and only rootdata.once writes a memo
    builders, touches = _once_sites()
    assert {build.__name__ for _, build, _, _ in kept} == builders
    assert touches == {"rootdata.once"}
