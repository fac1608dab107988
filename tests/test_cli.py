import json
import os
import pathlib
import subprocess
import sys

import pytest

from superdenom.cli import main
from superdenom import denominators, weyl
from superdenom.rootdata import distinguished_order


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify_princ_gl21(capsys):
    code, out = run(
        capsys, "verify", "--identity", "princ-sd", "--family", "gl",
        "--m", "2", "--n", "1", "--orders", "all", "--depth", "5",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "pass"
    assert all(c["verdict"] == "pass" for c in doc["checks"])


def test_verify_glkk(capsys):
    code, out = run(capsys, "verify", "--identity", "glkk", "--k", "2", "--depth", "4")
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_verify_seconda_on_its_distinguished_order(capsys):
    code, out = run(
        capsys, "verify", "--identity", "seconda-sd", "--family", "b",
        "--m", "1", "--n", "2", "--orders", "distinguished", "--depth", "5",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "pass" and len(doc["checks"]) == 1


@pytest.mark.parametrize("kind", ["seconda-d2-sd", "seconda-w1-sd"])
def test_verify_seconda_on_the_d2_order_passed_as_json(capsys, kind):
    order = json.dumps(distinguished_order("D", 2, 1, "D2").to_json())
    code, out = run(
        capsys, "verify", "--identity", kind, "--family", "d",
        "--m", "2", "--n", "1", "--orders", order, "--depth", "5",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "pass" and len(doc["checks"]) == 1


@pytest.mark.parametrize("kind", ["seconda-d2-sd", "seconda-w1-sd"])
def test_verify_seconda_off_its_order_exit_2(capsys, kind):
    # "distinguished" on family D starts with the D1 order, where neither
    # D-type specialization is claimed
    code = main(["verify", "--identity", kind, "--family", "d", "--m", "2", "--n", "1", "--orders", "distinguished"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "holds only on the distinguished D2 order" in captured.err


def test_verify_seconda_off_its_family_names_both_algebras(capsys):
    code = main(["verify", "--identity", "seconda-sd", "--family", "gl", "--m", "2", "--n", "2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        "error: seconda-sd holds only on the distinguished B order of B(2,2); "
        "the input is GL(2,2) with the order e1>e2>d1>d2\n"
    )


def test_list_arc_diagrams_contains_gl54_reference(capsys):
    order = json.dumps(
        [{"kind": k, "idx": i, "sign": 1} for k, i in
         [("e", 1), ("d", 1), ("e", 2), ("d", 2), ("d", 3), ("e", 3), ("e", 4), ("d", 4), ("e", 5)]]
    )
    code, out = run(
        capsys, "list-arc-diagrams", "--family", "gl", "--m", "5", "--n", "4",
        "--orders", order,
    )
    assert code == 0
    doc = json.loads(out)
    assert any(sorted(map(tuple, X["arcs"])) == [(0, 3), (1, 2), (4, 5), (7, 8)] for X in doc)


def test_reduce_diagram(capsys):
    order = json.dumps([
        {"kind": "e", "idx": 1}, {"kind": "d", "idx": 1},
        {"kind": "e", "idx": 2}, {"kind": "d", "idx": 2},
    ])
    code, out = run(
        capsys, "reduce-diagram", "--family", "gl", "--m", "2", "--n", "2",
        "--order", order, "--arcs", "[[0,3],[1,2]]",
    )
    assert code == 0
    doc = json.loads(out)
    assert sorted(map(tuple, doc["result"]["arcs"])) == [(0, 1), (2, 3)]


def test_theta_table_contains_empty_partition(capsys):
    code, out = run(capsys, "theta-table", "--pair", "B", "--m", "1", "--n", "1", "--bound", "4")
    assert code == 0
    doc = json.loads(out)
    assert any(entry["partition"] == [0] for entry in doc)


def test_theta_verify(capsys):
    code, out = run(capsys, "theta-verify", "--pair", "GL", "--n", "1", "--p", "1", "--q", "1", "--depth", "5")
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_kw_check(capsys):
    code, out = run(capsys, "kw-check", "--family", "gl", "--m", "2", "--n", "1", "--depth", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["chv"]["verdict"] == "pass" and doc["kwfor"]["verdict"] == "pass"


def test_dump_series_byte_stable(capsys):
    args = ("dump-series", "--family", "b", "--m", "1", "--n", "1", "--depth", "4")
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    coords = [tuple(t["coords2"]) for t in doc["terms"]]
    assert coords == sorted(coords)


def test_config_error_exit_2(capsys):
    code = main(["theta-verify", "--pair", "GL", "--n", "1"])  # missing p, q
    assert code == 2
    code = main(["verify", "--identity", "nonsense"])
    assert code == 2


@pytest.mark.parametrize("argv,message", [
    (["verify", "--identity", "glkk"], "the gl(k,k) lemma needs --k"),
    (["verify", "--identity", "princ-sd"], "this identity needs --family, --m and --n"),
    (["theta-verify", "--pair", "GL", "--n", "1"], "the GL pair needs --p and --q"),
    (["theta-verify", "--pair", "B", "--n", "1"], "the B pair needs --m"),
])
def test_missing_arguments_exit_2_with_one_error_line(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv,message", [
    (["theta-table", "--pair", "B", "--m", "1", "--n", "1", "--p", "9", "--bound", "1"], "the B pair takes no rank p"),
    (["theta-table", "--pair", "GL", "--n", "1", "--p", "1", "--q", "0", "--m", "7", "--bound", "1"],
     "the GL pair takes no rank m"),
    (["theta-verify", "--pair", "D2'", "--m", "2", "--n", "1", "--q", "1"], "the D2' pair takes no rank q"),
])
def test_a_rank_the_pair_does_not_take_exits_2_with_one_error_line(capsys, argv, message):
    # a rank that would be silently ignored is most likely a typo
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_a_closed_stdout_keeps_the_exit_status_and_prints_nothing_to_stderr():
    # the text listing of GL(5,4) is about 150 kB, more than a pipe holds, so
    # the command is still writing when the reader closes the pipe after one line
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    argv = ["list-arc-diagrams", "--family", "gl", "--m", "5", "--n", "4", "--format", "text"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "superdenom.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )
    assert proc.stdout.readline().strip()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


@pytest.mark.parametrize("argv", [
    ["verify", "--identity", "glkk", "--k", "2", "--depth", "2"],
    ["theta-verify", "--pair", "GL", "--n", "1", "--p", "1", "--q", "1", "--depth", "2"],
    ["kw-check", "--family", "gl", "--m", "2", "--n", "1", "--depth", "2"],
    ["dump-series", "--family", "b", "--m", "1", "--n", "1", "--depth", "2"],
])
def test_json_only_commands_reject_format(capsys, argv):
    # these commands print JSON only, so they take no --format option
    code = main(argv + ["--format", "text"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--format" in captured.err


def test_verification_failure_exit_1(capsys, monkeypatch):
    broken = denominators.IdentityReport(
        identity_kind="glkk", system="x", subset="k=2", depth=2, passed=False
    )
    import superdenom.cli as cli

    monkeypatch.setattr(cli, "verify_glkk", lambda k, depth: broken)
    code = main(["verify", "--identity", "glkk", "--k", "2"])
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["verify", "--identity", "princ-sd", "--family", "c", "--m", "2", "--n", "1", "--depth", "-3"],
    ["verify", "--identity", "glkk", "--k", "2", "--depth", "-3"],
    ["theta-verify", "--pair", "GL", "--n", "1", "--p", "1", "--q", "1", "--depth", "-3"],
    ["kw-check", "--family", "gl", "--m", "2", "--n", "1", "--depth", "-3"],
    ["dump-series", "--family", "b", "--m", "1", "--n", "1", "--depth", "-3"],
    ["theta-table", "--pair", "B", "--m", "1", "--n", "1", "--bound", "-2"],
])
def test_negative_depth_exit_2(capsys, argv):
    # a negative depth leaves an empty window, where every check would pass
    # without comparing a coefficient; a negative bound, an empty table
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert argv[-2] in captured.err


ORDER_22 = '[{"kind":"e","idx":1},{"kind":"d","idx":1},{"kind":"e","idx":2},{"kind":"d","idx":2}]'


@pytest.mark.parametrize("argv,message", [
    (["verify", "--identity", "princ-sd", "--family", "gl", "--m", "1", "--n", "1", "--orders", "[1,2]"],
     "error: a basis symbol is"),
    (["verify", "--identity", "princ-sd", "--family", "gl", "--m", "1", "--n", "1", "--orders", '{"a":1}'],
     "error: a basis order is a list of symbols"),
    (["reduce-diagram", "--family", "gl", "--m", "2", "--n", "2", "--order", ORDER_22, "--arcs", "5"],
     "error: --arcs must be a list of [i, j] pairs of integers"),
    # a float or boolean index, or a string sign, is not read as an integer
    (["verify", "--identity", "princ-sd", "--family", "gl", "--m", "1", "--n", "1",
      "--orders", '[{"kind":"e","idx":1.9},{"kind":"d","idx":1}]'], "error: a basis symbol is"),
    (["verify", "--identity", "princ-sd", "--family", "gl", "--m", "1", "--n", "1",
      "--orders", '[{"kind":"e","idx":1},{"kind":"d","idx":true}]'], "error: a basis symbol is"),
    (["verify", "--identity", "princ-sd", "--family", "gl", "--m", "1", "--n", "1",
      "--orders", '[{"kind":"e","idx":1,"sign":"1"},{"kind":"d","idx":1}]'], "error: a basis symbol is"),
    # a kind other than the string "e" or "d" is reported as a malformed
    # symbol, not as a misplaced eps or delta symbol
    (["verify", "--identity", "princ-sd", "--family", "gl", "--m", "1", "--n", "1",
      "--orders", '[{"kind":"q","idx":1},{"kind":"d","idx":1}]'], "error: a basis symbol is"),
    (["verify", "--identity", "princ-sd", "--family", "gl", "--m", "1", "--n", "1",
      "--orders", '[{"kind":"e","idx":1},{"kind":["d"],"idx":1}]'], "error: a basis symbol is"),
    (["reduce-diagram", "--family", "gl", "--m", "2", "--n", "2", "--arcs", "[]",
      "--order", '[{"kind":"e","idx":1},{"kind":"D","idx":1},{"kind":"e","idx":2},{"kind":"d","idx":2}]'],
     "error: a basis symbol is"),
])
def test_json_of_the_wrong_shape_exit_2(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(message) and len(captured.err.splitlines()) == 1


def test_a_malformed_symbol_names_the_kinds_it_accepts(capsys):
    code = main(["verify", "--identity", "princ-sd", "--family", "gl", "--m", "1", "--n", "1",
                 "--orders", '[{"kind":"q","idx":1},{"kind":"d","idx":1}]'])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: a basis symbol is")
    assert '"kind": "e" or "d"' in err


@pytest.mark.parametrize("family,m,n,condition", [
    ("gl", 1, 2, "m >= n"),
    ("b", 1, 2, "m > n"),
    ("d", 1, 2, "m >= n"),
    ("d", 1, 1, "m >= 2, got D(1,1)"),
    ("gl", 1, 0, "m + n >= 2, got GL(1,0)"),
])
def test_kw_check_uncovered_rank_exit_2(capsys, family, m, n, condition):
    code = main(["kw-check", "--family", family, "--m", str(m), "--n", str(n)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    expected = f"error: the {family.upper()}-type natural-module identities need {condition}"
    assert captured.err.splitlines() == [expected]


def test_internal_error_exit_3(capsys, monkeypatch):
    monkeypatch.setattr(weyl, "MAX_GROUP", 3)
    code = main(["verify", "--identity", "princ-sd", "--family", "b", "--m", "2", "--n", "2", "--depth", "3"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.splitlines() == ["internal error: group enumeration exceeded bound 3"]


def _migliore_b11(capsys):
    code = main(["verify", "--identity", "migliore", "--family", "b", "--m", "1", "--n", "1", "--depth", "3"])
    return code, capsys.readouterr()


def test_colliding_group_products_exit_3(capsys, monkeypatch):
    # W_B' is the product of its blocks' groups; a block listed twice makes
    # its products collide, a defect of the program, not bad input
    listing = denominators.signed_permutations
    monkeypatch.setattr(denominators, "signed_permutations", lambda *a, **kw: 2 * listing(*a, **kw))
    code, captured = _migliore_b11(capsys)
    assert code == 3
    assert captured.out == ""
    assert captured.err.splitlines() == ["internal error: product set has duplicates"]


def test_a_group_that_is_no_union_of_cosets_exits_3(capsys, monkeypatch):
    # W_0 reads one representative per coset of W_B' in W_g; a W_g missing an
    # element is a defect of the program, not bad input
    full = denominators.full_weyl
    monkeypatch.setattr(denominators, "full_weyl", lambda datum: full(datum)[:-1])
    code, captured = _migliore_b11(capsys)
    assert code == 3
    assert captured.out == ""
    assert captured.err.splitlines() == ["internal error: the big set is not a union of cosets of the small group"]


def test_verify_over_every_order_searches_the_full_group_once(capsys, monkeypatch):
    # every order, diagram and perturbed system of the rank shares one datum
    searched, closure = [], weyl.enumerate_closure
    monkeypatch.setattr(weyl, "enumerate_closure", lambda gens, shape: searched.append(shape) or closure(gens, shape))
    code, out = run(
        capsys, "verify", "--identity", "princ-sd", "--family", "d",
        "--m", "2", "--n", "2", "--orders", "all", "--depth", "3",
    )
    assert code == 0 and len(json.loads(out)["checks"]) > 1
    assert searched == [(2, 2)]


def test_any_other_escaping_exception_exits_3(capsys, monkeypatch):
    # a defect, such as a TypeError, must not read as a failed identity
    import superdenom.cli as cli

    def broken(k, depth):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(cli, "verify_glkk", broken)
    code = main(["verify", "--identity", "glkk", "--k", "2"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == "internal error: TypeError: unsupported operand"


def test_an_internal_key_error_exits_3_not_2(capsys, monkeypatch):
    # no input path raises KeyError, so one that escapes is a defect, not bad input
    import superdenom.cli as cli

    def broken(k, depth):
        raise KeyError("missing table entry")

    monkeypatch.setattr(cli, "verify_glkk", broken)
    code = main(["verify", "--identity", "glkk", "--k", "2"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "Traceback" in captured.err
    assert captured.err.splitlines()[-1] == "internal error: KeyError: 'missing table entry'"
