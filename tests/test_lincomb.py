from fractions import Fraction

from hypothesis import given, settings, strategies as st

from glcenter.lincomb import add, add_into, scale, sub

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
