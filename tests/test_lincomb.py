from fractions import Fraction

from hypothesis import given, settings, strategies as st

from glcenter.central import capelli_H
from glcenter.enveloping import element_from_json_obj, element_to_json_obj
from glcenter.lincomb import add, add_into, add_term, parse_coeff, scale, sub
from glcenter.shifted import s_star, shifted_from_json, shifted_to_json

coeffs = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
).filter(bool)
combos = st.dictionaries(st.integers(0, 5), coeffs, max_size=6)


def reference(x, y, c):
    """x + c*y by summing every key, then dropping zero sums."""
    out = {k: x.get(k, 0) + c * y.get(k, 0) for k in set(x) | set(y)}
    return {k: v for k, v in out.items() if v}


@settings(max_examples=200, deadline=None)
@given(combos, combos, st.one_of(coeffs, st.just(0)))
def test_kernel_matches_reference(x, y, c):
    x0, y0 = dict(x), dict(y)
    results = {
        "add": (add(x, y), reference(x, y, 1)),
        "sub": (sub(x, y), reference(x, y, -1)),
        "scale": (scale(y, c), reference({}, y, c)),
    }
    into = dict(x)
    add_into(into, y, c)
    results["add_into"] = (into, reference(x, y, c))
    for name, (got, want) in results.items():
        assert got == want, name
        assert all(got.values()), name
    assert x == x0 and y == y0
    assert scale(x, 0) == {}
    assert scale(x, Fraction(0)) == {}


def _types(x):
    return {k: type(v) for k, v in x.items()}


def test_add_into_keeps_coefficient_types():
    x = {0: 2, 1: Fraction(1, 2)}
    y = {1: Fraction(1, 2), 2: 3, 3: Fraction(-2, 3), 4: 5}
    add_into(x, y)
    assert x == {0: 2, 1: 1, 2: 3, 3: Fraction(-2, 3), 4: 5}
    assert _types(x) == {0: int, 1: Fraction, 2: int, 3: Fraction, 4: int}
    z = {0: 2}
    add_into(z, {0: 1, 1: 3}, Fraction(1))
    assert z == {0: 3, 1: 3}
    assert _types(z) == {0: Fraction, 1: Fraction}


def test_zero_scale_and_zero_term_change_nothing():
    x = {0: 2, 1: Fraction(1, 2)}
    add_into(x, {1: Fraction(3), 2: 4}, 0)
    assert x == {0: 2, 1: Fraction(1, 2)}
    assert _types(x) == {0: int, 1: Fraction}
    add_term(x, 5, 0)
    add_term(x, 6, Fraction(0))
    assert x == {0: 2, 1: Fraction(1, 2)}


def test_cancelling_sums_remove_the_key():
    x = {0: 2, 1: Fraction(1, 2)}
    add_term(x, 0, -2)
    add_into(x, {1: Fraction(1, 4)}, -2)
    assert x == {}
    y = {0: 1}
    add_term(y, 1, Fraction(1, 3))
    assert _types(y) == {0: int, 1: Fraction}


def test_json_coefficients_read_back_as_int_when_integral():
    read = [parse_coeff(text) for text in ("3", "-4", "6/2", "-2/6")]
    assert read == [3, -4, 3, Fraction(-1, 3)]
    assert [type(q) for q in read] == [int, int, int, Fraction]


def test_json_round_trips_keep_int():
    # the JSON readers of shifted polynomials and enveloping elements, each
    # written from an all-int combination
    p = s_star((2, 1), 3)
    body = capelli_H(2, 3).body
    read = [
        (p.terms, shifted_from_json(shifted_to_json(p)).terms),
        (body, element_from_json_obj(element_to_json_obj(body))),
    ]
    for before, after in read:
        assert after == before
        assert set(_types(before).values()) == set(_types(after).values()) == {int}
