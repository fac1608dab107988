import ast
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
    assert not hasattr(series.CharSeries, "agrees_with")
    assert not hasattr(diagrams.ArcDiagram, "bracket_interval")
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


# functions and methods that no code in the package reads, each with the
# reason it stays
UNREFERENCED_KEPT = {
    "denominators.with_safe_expansion": "perfbench's controls choose their functional with it",
    "weyl.weyl_order": "perfbench bounds the frontier controls' group order with it",
    "theta.DualPair.l2_character": "perfbench traces it, and its theta controls call the threshold form",
    "theta.DualPair.enright_character": "perfbench's theta controls call it",
    "denominators.verify_odd_reflection": "the odd-reflection check of acceptance criterion 7a",
    "theta.DualPair.verify_enright": "the Enright verdict of acceptance criterion 9 and the README session",
}


def _public_surface():
    """Every top-level function and public method of the package, as
    ``module.name`` or ``module.Class.name`` mapped to its class (None for a
    function), and for every name the package reads (as a name or an
    attribute) the functions and methods it is read in (None outside them)."""
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
    return defs, readers


def test_every_function_is_read_exported_or_kept_for_a_reason():
    # a method counts as exported when its class is in __all__
    defs, readers = _public_surface()

    def needed(qual):
        name = qual.rsplit(".", 1)[1]
        exported = (defs[qual] or name) in superdenom.__all__
        return exported or any(scope != qual for scope in readers.get(name, ()))

    assert sorted(q for q in defs if not needed(q) and q not in UNREFERENCED_KEPT) == []
    # every kept name still exists and is still unreferenced
    assert sorted(q for q in UNREFERENCED_KEPT if q not in defs or needed(q)) == []


def test_compare_is_the_one_verdict_rule():
    # every report is built in compare, and every coefficient comparison is
    # made there: the constant fit of the natural-module identities judges
    # its ratio through compare too
    assert _calls_by_function("IdentityReport") == {"denominators.compare"}
    assert _calls_by_function("mismatches") == {"denominators.compare"}


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


def test_one_block_pairs_share_one_body():
    from superdenom import theta

    classes = [c for c in vars(theta).values() if isinstance(c, type) and c.__module__ == theta.__name__]
    defining = lambda name: {c.__name__ for c in classes if name in vars(c)}
    assert defining("sigma_set") == {"DualPair"}
    for name in ("mu", "compact_hw", "flip_set", "enright_candidates"):
        assert defining(name) == {"OneBlockPair", "GLPair"}, name
