import ast
import inspect
import itertools
import pathlib
import types

import superdenom

REMOVED = [
    "weyl_act",
    "f_sum",
    "expand_factor",
    "GeometricFactor",
    "stabilizer_check",
    "orbit",
    "even_flip_pairs_group",
    "eps_permutations",
    "delta_permutations",
    "signed_group",
    "sign_flip_set",
    "rhs_kwg",
    "rhs_princ",
    "_rhs_princ",
    "rhs_mm",
    "rhs_migliore",
    "_rhs_migliore",
    "factorial",
    "weyl_numerator",
    "seconda_sum",
    "seconda_d2_sum",
    "w_equal_w1_sums",
    "_first_diagram_sums",
    "apply_moves",
    "reflect_simple_roots",
    "erho_pair",
]


def test_all_lists_resolvable_public_names_and_no_modules():
    assert superdenom.__all__ == sorted(set(superdenom.__all__))
    for name in superdenom.__all__:
        assert not name.startswith("_")
        value = getattr(superdenom, name)
        assert not isinstance(value, types.ModuleType), name
    for module in ("weights", "rootdata", "weyl", "series", "diagrams", "denominators", "theta", "kw"):
        assert module not in superdenom.__all__
    for name in ("verify", "compare", "right_side", "WeylSum", "make_pair", "coset_reps", "CharSeries", "window4"):
        assert name in superdenom.__all__


def test_removed_helpers_are_gone():
    from superdenom import denominators, diagrams, kw, rootdata, series, theta, weights, weyl

    for name in REMOVED:
        assert name not in superdenom.__all__
        assert not hasattr(superdenom, name), name
        for module in (series, weyl, denominators, diagrams, rootdata):
            assert not hasattr(module, name), (module.__name__, name)
    assert not hasattr(weyl.WeylElement, "act_coords2")
    assert not hasattr(weyl.WeylElement, "inverse")
    assert not hasattr(weights.Weight, "is_integral")
    assert not hasattr(weights.Weight, "eps_coord")
    assert not hasattr(weights.Weight, "delta_coord")
    assert "detail" not in denominators.IdentityReport.__dataclass_fields__
    assert not hasattr(rootdata.PositiveSystem, "is_positive")
    assert not hasattr(weights.Weight, "delta_sum2")
    assert not hasattr(weights.Weight, "is_zero")
    assert not hasattr(rootdata.BasisOrder, "is_canonical")
    assert not hasattr(denominators, "_report")
    assert not hasattr(theta.DualPair, "_report")
    assert not hasattr(kw, "_chain_report")
    assert not hasattr(kw, "_fit_ratio")
    assert not hasattr(theta, "_delta_line")
    assert not hasattr(theta.D2Pair, "_levi_elements")
    assert not hasattr(theta.DualPair, "v2_character")
    # a finite sum is one Block.character call, and the Enright representatives
    # are read off the length table
    assert not hasattr(theta.DualPair, "_levi_sum")
    assert "key" not in inspect.signature(weyl.coset_reps).parameters
    assert "theta.enright" not in _calls_by_function("coset_reps")
    # the Levi character straightens every summand: no run sort, no runs
    assert not hasattr(theta.DualPair, "_sorted_in_block")
    for pair in (theta.make_pair("B", m=1, n=2), theta.make_pair("GL", n=1, p=2, q=1)):
        assert not hasattr(pair, "levi_runs"), pair.tag
    assert not hasattr(series.CharSeries, "agrees_with")
    assert not hasattr(diagrams.ArcDiagram, "bracket_interval")
    # every nesting fact reads nested_below; the arc roots come from one read
    # of the order's functionals
    assert not hasattr(diagrams.ArcDiagram, "arc_root")
    assert not hasattr(diagrams.ArcDiagram, "support_positions")
    assert not hasattr(rootdata.PositiveSystem, "simple_coefficients")
    assert "__lt__" not in vars(weights.Weight)  # object's own __lt__ is always there
    assert not hasattr(weyl, "_max_group") and not hasattr(weyl, "MAX_GROUP_ENV")


def _calls_by_function(name: str) -> set[str]:
    """``module.function`` for every call in the package to a function or
    method called ``name``, by the innermost function it is made in."""
    out = set()
    for path in pathlib.Path(superdenom.__file__).parent.glob("*.py"):

        def visit(node, where):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                where = f"{path.stem}.{node.name}"
            if isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called == name:
                    out.add(where)
            for child in ast.iter_child_nodes(node):
                visit(child, where)

        visit(ast.parse(path.read_text()), f"{path.stem}.<module>")
    return out


# functions and methods that no code in the package, in tools/ or in demos/
# reads, each with the reason it stays
UNREFERENCED_KEPT = {
    "denominators.with_safe_expansion": "perfbench's controls choose their functional with it",
    "weyl.weyl_order": "perfbench bounds the frontier controls' group order with it",
    "theta.DualPair.l2_character": "perfbench traces it, and its theta controls call the threshold form",
    "theta.DualPair.enright_character": "perfbench's theta controls call it",
    "denominators.verify_odd_reflection": "the odd-reflection check of acceptance criterion 7a",
    "weyl.WeylElement.is_identity": "perfbench's dropid controls drop the identity element with it",
}


def _public_surface():
    """Every top-level function and public method of the package, as
    ``module.name`` or ``module.Class.name`` mapped to its class (None for a
    function), and for every name the package, ``tools/`` or ``demos/``
    reads (as a name or an attribute) the functions and methods of the
    package it is read in (None outside them, "tools" or "demos")."""
    defs, readers = {}, {}

    def read(node, scope):
        for sub in ast.walk(node):
            name = sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", None)
            if isinstance(sub, (ast.Name, ast.Attribute)):
                readers.setdefault(name, set()).add(scope)

    for path in pathlib.Path(superdenom.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                defs[f"{path.stem}.{node.name}"] = None
                read(node, f"{path.stem}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef):
                        qual = f"{path.stem}.{node.name}.{sub.name}"
                        if not sub.name.startswith("_"):
                            defs[qual] = node.name
                        read(sub, qual)
                    else:
                        read(sub, None)
            else:
                read(node, None)
    root = pathlib.Path(__file__).resolve().parent.parent
    for folder in ("tools", "demos"):
        for path in (root / folder).glob("*.py"):
            read(ast.parse(path.read_text()), folder)
    return defs, readers


def test_every_function_is_read_or_kept_for_a_reason():
    # a name in __all__ is not read by that alone: a public function or method
    # is read by the package outside its own body, by tools/ or by demos/
    defs, readers = _public_surface()

    def needed(qual):
        name = qual.rsplit(".", 1)[1]
        return any(scope != qual for scope in readers.get(name, ()))

    assert sorted(q for q in defs if not needed(q) and q not in UNREFERENCED_KEPT) == []
    # every kept name still exists and is still unreferenced
    assert sorted(q for q in UNREFERENCED_KEPT if q not in defs or needed(q)) == []


def test_compare_is_the_one_verdict_rule():
    # every report is built in compare, and every coefficient comparison is
    # made there: the constant fit of the natural-module identities judges
    # its ratio through compare too
    assert _calls_by_function("IdentityReport") == {"denominators.compare"}
    assert _calls_by_function("mismatches") == {"denominators.compare"}


def test_only_the_full_group_and_the_enright_groups_search_a_closure():
    # every other group is a product of the groups of the family's block
    # types; W_g and theta's Enright groups, true reflection subgroups, are
    # searched
    assert _calls_by_function("enumerate_closure") == {"weyl.full_weyl", "theta.enright"}


def test_every_identity_side_is_a_weyl_sum_record():
    # the signed Weyl sum is expanded only through WeylSum.expand, and the
    # kernel is called directly only by the sum and by theta's four
    # single-product characters, which are not Weyl sums
    from superdenom import kw, series

    assert _calls_by_function("f_sum_quotient") == {"denominators.expand"}
    assert _calls_by_function("product_expansion") == {
        "series.f_sum_quotient",
        "theta.oscillator_character",
        "theta._with_tail",
        "theta.oscillator_x_character",
        "theta.d2_twin_sum",
    }
    assert not hasattr(kw, "f_sum_quotient") and not hasattr(kw, "product_expansion")
    assert not hasattr(series.CharSeries, "one_minus_exp")


def _attribute_readers(attr: str) -> set[str]:
    """``module.function`` or ``module.Class.function`` for every top-level
    function or method of the package that reads an attribute called
    ``attr`` (``module.<module>`` outside them)."""
    out = set()
    for path in pathlib.Path(superdenom.__file__).parent.glob("*.py"):

        def visit(node, where, cls):
            if isinstance(node, ast.ClassDef) and where is None:
                cls = node.name
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and where is None:
                where = ".".join(filter(None, (path.stem, cls, node.name)))
            if isinstance(node, ast.Attribute) and node.attr == attr and isinstance(node.ctx, ast.Load):
                out.add(where or f"{path.stem}.<module>")
            for child in ast.iter_child_nodes(node):
                visit(child, where, cls)

        visit(ast.parse(path.read_text()), None, None)
    return out


def test_weight_keyed_terms_are_read_only_at_the_boundary():
    # series work on packed keys; the Weight-keyed view is read only where a
    # weight leaves the package, and by the natural-module fits in kw
    boundary = {
        "series.CharSeries.coeff",
        "series.CharSeries.support_sorted",
        "series.CharSeries.to_json",
        "series.CharSeries.__repr__",
        "series.CharSeries.mismatches",
    }
    readers = _attribute_readers("terms")
    assert "series.CharSeries.support_sorted" in readers and "kw.highest_weight" in readers
    assert {r for r in readers if not r.startswith("kw.")} <= boundary


def test_highest_weight_keeps_its_coords2_tie_break():
    # kw.highest_weight breaks a height tie by coords2; the key order breaks
    # it on the last coordinate first, so the top key is the other weight
    from superdenom import kw
    from superdenom.rootdata import build_root_datum, positive_system, standard_order
    from superdenom.series import CharSeries
    from superdenom.weights import Weight

    system = positive_system(build_root_datum("GL", 2, 1), standard_order("GL", 2, 1, "ede"))
    probes = [Weight(c, system.shape) for c in itertools.product((-2, 0, 2), repeat=3)]
    x, y = next(
        (x, y) for x in probes for y in probes
        if system.ht4(x) == system.ht4(y) and x.coords2 > y.coords2 and x.coords2[-1] < y.coords2[-1]
    )
    series = CharSeries(system, {x: 1, y: 1}, None, system.ht4(x))
    assert max(series.packed) in CharSeries(system, {y: 1}, None, system.ht4(y)).packed
    assert kw.highest_weight(system, series) == x


def test_one_block_pairs_share_one_body():
    from superdenom import theta

    classes = [c for c in vars(theta).values() if isinstance(c, type) and c.__module__ == theta.__name__]
    defining = lambda name: {c.__name__ for c in classes if name in vars(c)}
    assert defining("sigma_set") == {"DualPair"}
    for name in ("enright_candidates", "_l2_shift", "_compact_shift"):
        assert defining(name) == {"DualPair"}, name
    for name in ("mu", "compact_hw", "flip_set"):
        assert defining(name) == {"OneBlockPair", "GLPair"}, name
    assert "__init__" not in vars(theta.OneBlockPair)
    # every block is declared once, by the constructors
    tree = ast.parse(inspect.getsource(theta))
    callers = {
        f.name
        for f in ast.walk(tree)
        if isinstance(f, ast.FunctionDef)
        for node in ast.walk(f)
        if isinstance(node, ast.Attribute) and node.attr == "of" and getattr(node.value, "id", None) == "Block"
    }
    assert callers == {"__init__"}


def test_one_registry_names_the_pairs_and_their_ranks():
    # the CLI's --pair choices, make_pair and the classes read one dict, and
    # each class declares its tag and the ranks its constructor takes
    import argparse

    from superdenom import cli, theta

    subcommands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for command in ("theta-table", "theta-verify"):
        pair = next(a for a in subcommands.choices[command]._actions if a.dest == "pair")
        assert pair.choices == list(theta.PAIRS), command
    assert list(theta.PAIRS) == ["B", "D1", "D2", "D2'", "GL"]
    for tag, cls in theta.PAIRS.items():
        assert cls.tag == tag and isinstance(cls.ranks, tuple), tag
        assert tuple(inspect.signature(cls).parameters) == cls.ranks, tag
    # D2' is a subclass, not a flag
    assert "__init__" not in vars(theta.D2Pair) and issubclass(theta.D2PrimePair, theta.D2Pair)
    assert not hasattr(theta, "partial")
