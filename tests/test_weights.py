from fractions import Fraction

import pytest

from superdenom.weights import Weight, inner, is_isotropic


def test_supertrace_form_values():
    sh = (2, 1)
    e1, d1 = Weight.eps(1, sh), Weight.delta(1, sh)
    assert inner(e1, e1) == 1
    assert inner(d1, d1) == -1
    assert inner(e1 - d1, e1 - d1) == 0
    assert is_isotropic(e1 - d1)


def test_bilinear_and_symmetric():
    sh = (2, 2)
    a = Weight.eps(1, sh) + 2 * Weight.delta(2, sh)
    b = Weight.eps(2, sh) - Weight.delta(2, sh)
    c = Weight.eps(1, sh)
    assert inner(a, b) == inner(b, a)
    assert inner(a + c, b) == inner(a, b) + inner(c, b)
    assert inner(a, b) == Fraction(2)  # only the delta_2 parts pair: 2 * (-1) * (-1)


def test_arithmetic_and_equality():
    sh = (1, 1)
    e, d = Weight.eps(1, sh), Weight.delta(1, sh)
    assert e + d - d == e
    assert (2 * e).half() == e
    with pytest.raises(ValueError):
        e.half().half()  # quarter coordinates leave the lattice
    assert e != Weight.eps(1, (1, 2)) + 0 * Weight.delta(1, (1, 2))


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        inner(Weight.eps(1, (1, 1)), Weight.eps(1, (2, 1)))
    a, b = Weight.eps(1, (1, 1)), Weight.eps(1, (2, 1))
    for op in (lambda x, y: x + y, lambda x, y: x - y):
        with pytest.raises(ValueError, match="shape mismatch"):
            op(a, b)


def test_sums_equal_the_same_weight_built_from_coordinates():
    sh = (2, 1)
    a, b = Weight((1, -3, 4), sh), Weight((2, 5, -4), sh)
    for got, coords in [(a + b, (3, 2, 0)), (a - b, (-1, -8, 8)), (-a, (-1, 3, -4))]:
        want = Weight(coords, sh)
        assert got == want and hash(got) == hash(want) and got.shape == sh


def test_json_roundtrip():
    sh = (2, 3)
    w = Weight.eps(2, sh) - 3 * Weight.delta(1, sh)
    assert Weight.from_json(w.to_json()) == w
    assert w.to_json() == {"shape": [2, 3], "coords2": [0, 2, -6, 0, 0]}
