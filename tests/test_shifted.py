from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from glcenter import central, shifted
from glcenter.central import (
    CentralElement,
    capelli_H,
    duality_W,
    embed,
    nazarov_umeda_I,
    schur_element,
)
from glcenter.combinatorics import (
    conjugate,
    contains,
    hook_number,
    partitions_upto,
    permutation_sign,
    size,
)
from glcenter.enveloping import elem_mul, pbw_normal_form
from glcenter.lincomb import add, add_into, add_term, sub
from glcenter.shifted import (
    ShiftedPolynomial,
    e_star,
    eval_at_partition,
    express_in_estar_basis,
    format_shifted,
    from_estar_coeffs,
    h_star,
    harish_chandra,
    i_star,
    is_shifted_symmetric,
    omega,
    pi_star,
    s_star,
    s_star_determinant,
    shifted_from_json,
    shifted_to_json,
    sp_const,
    sp_eval,
    sp_linear,
    sp_mul,
    sp_prod,
    sp_zero,
)


def sp_add(p, q):
    return ShiftedPolynomial(p.n, add(p.terms, q.terms))


def sp_sub(p, q):
    return ShiftedPolynomial(p.n, sub(p.terms, q.terms))


def test_first_generators_agree():
    for n in (1, 2, 3):
        x_sum = ShiftedPolynomial(
            n, {tuple(1 if j == i else 0 for j in range(n)): Fraction(1) for i in range(n)}
        )
        assert e_star(1, n) == x_sum
        assert h_star(1, n) == x_sum


def test_generator_closed_forms():
    assert e_star(2, 2).terms == {(1, 1): 1, (0, 1): 1}
    assert h_star(2, 2).terms == {(2, 0): 1, (1, 0): -1, (1, 1): 1, (0, 1): -2, (0, 2): 1}
    assert e_star(0, 2) == sp_const(2, 1)
    assert h_star(0, 2) == sp_const(2, 1)


def test_generator_argument_errors():
    with pytest.raises(ValueError):
        e_star(3, 2)
    with pytest.raises(ValueError):
        h_star(-1, 2)
    for build in (s_star, s_star_determinant):
        with pytest.raises(ValueError, match="^shape needs at most n rows$"):
            build((1, 1, 1), 2)
    with pytest.raises(ValueError, match="^value count must match variable count$"):
        sp_eval(e_star(1, 2), [1])


def test_is_shifted_symmetric():
    assert is_shifted_symmetric(e_star(2, 3))
    assert is_shifted_symmetric(h_star(2, 2))
    assert is_shifted_symmetric(s_star((2, 1), 3))
    assert is_shifted_symmetric(sp_add(sp_linear(2, 1, 0), sp_linear(2, 2, 0)))
    assert not is_shifted_symmetric(sp_mul(sp_linear(2, 1, 0), sp_linear(2, 2, 0)))
    assert not is_shifted_symmetric(sp_linear(2, 1, 0))


def test_s_star_presentations_agree():
    for n in range(6):
        for lam in partitions_upto(5):
            if len(lam) <= n:
                assert s_star_determinant(lam, n) == s_star(lam, n), (lam, n)
    for lam in [(3, 2), (5,)]:
        assert s_star_determinant(lam, 6) == s_star(lam, 6), lam


def test_s_star_is_the_tableau_route(monkeypatch):
    # the determinant ratio is a check only, never on the s_star path
    cases = [(lam, n) for n in range(1, 6) for lam in partitions_upto(4) if len(lam) <= n]
    expected = {c: s_star_determinant(*c) for c in cases}

    def refuse(lam, n):
        raise AssertionError("s_star called the determinant route")

    monkeypatch.setattr(shifted, "s_star_determinant", refuse)
    for case in cases:
        p = s_star(*case)
        assert p == expected[case], case


def _det_by_permutations(n, entries):
    """Determinant of a k x k matrix of polynomials by its k!-term
    permutation expansion: the reference for the row-by-row Laplace
    expansion in s_star_determinant."""
    k = len(entries)
    out = sp_zero(n)
    for perm in permutations(range(k)):
        term = sp_prod(n, (entries[perm[c]][c] for c in range(k)))
        add_into(out.terms, term.terms, permutation_sign(perm))
    return out


def sp_divide_exact(num, den):
    """Exact multivariate division on the lexicographic order; raises when a
    remainder step is not divisible by the leading term of den. The
    reference for the division by the Vandermonde factors in
    s_star_determinant."""
    if not den.terms:
        raise ZeroDivisionError("division by zero polynomial")
    dmono = max(den.terms)
    dcoeff = den.terms[dmono]
    quot = sp_zero(num.n)
    rem = ShiftedPolynomial(num.n, dict(num.terms))
    while rem.terms:
        mono = max(rem.terms)
        coeff = rem.terms[mono]
        q = tuple(a - b for a, b in zip(mono, dmono))
        if any(e < 0 for e in q):
            raise ValueError("polynomial division failed to be exact")
        if type(coeff) is int and type(dcoeff) is int and not coeff % dcoeff:
            qcoeff = coeff // dcoeff
        else:
            qcoeff = Fraction(coeff) / dcoeff
        qterm = ShiftedPolynomial(num.n, {q: qcoeff})
        add_into(quot.terms, qterm.terms)
        add_into(rem.terms, sp_mul(qterm, den).terms, -1)
    return quot


def _falling_matrix(parts, n, in_y=False):
    """[(x_i + n - i) falling (parts_j + n - j)] for parts padded to length n;
    with in_y, the same in the variables y_i = x_i + n - i."""
    parts = tuple(parts) + (0,) * (n - len(parts))

    def falling(i, m):
        shift = 0 if in_y else n - i
        return sp_prod(n, (sp_linear(n, i, shift - t) for t in range(m)))

    return [[falling(i, parts[j - 1] + n - j) for j in range(1, n + 1)] for i in range(1, n + 1)]


def test_s_star_determinant_matches_the_full_expansion():
    # both determinants expanded over all n! permutations, then one general
    # division: the route s_star_determinant replaced
    def typed(p):
        return {m: (c, type(c)) for m, c in p.terms.items()}

    for n in range(5):
        den = _det_by_permutations(n, _falling_matrix((), n))
        for lam in partitions_upto(4):
            if len(lam) <= n:
                reference = sp_divide_exact(_det_by_permutations(n, _falling_matrix(lam, n)), den)
                assert typed(s_star_determinant(lam, n)) == typed(reference), (lam, n)


def test_vandermonde_division_rejects_a_perturbed_numerator():
    # in y_i = x_i + n - i the numerator is det[y_i falling (lam_j + n - j)],
    # and the denominator's factors are y_i - y_j
    n, factors = 3, [(1, 2), (1, 3), (2, 3)]
    num = _det_by_permutations(n, _falling_matrix((2, 1), n, in_y=True))
    quotient = num
    for i, j in factors:
        quotient = shifted._divide_by_difference(quotient, i, j)
    to_x = [sp_linear(n, i, n - i) for i in (1, 2, 3)]
    assert shifted._substitute(quotient, to_x) == s_star((2, 1), n)
    add_term(num.terms, (1, 0, 0), 1)
    with pytest.raises(ValueError, match="failed to be exact"):
        for i, j in factors:
            num = shifted._divide_by_difference(num, i, j)


def _estar_by_combinations(k, n):
    """e*_k by its defining sum over i_1 < ... < i_k, the reference for
    e_star = s_star of the column (1^k)."""
    out = sp_zero(n)
    for idx in combinations(range(1, n + 1), k):
        factors = (sp_linear(n, i, k - j) for j, i in enumerate(idx, 1))
        add_into(out.terms, sp_prod(n, factors).terms)
    return out


def _hstar_by_combinations(k, n):
    """h*_k by its defining sum over i_1 <= ... <= i_k, the reference for
    h_star = s_star of the row (k)."""
    out = sp_zero(n)
    for idx in combinations_with_replacement(range(1, n + 1), k):
        factors = (sp_linear(n, i, j - k) for j, i in enumerate(idx, 1))
        add_into(out.terms, sp_prod(n, factors).terms)
    return out


def test_generators_match_their_defining_sums():
    def typed(p):
        return {m: (c, type(c)) for m, c in p.terms.items()}

    for n in range(1, 7):
        for k in range(n + 1):
            assert typed(e_star(k, n)) == typed(_estar_by_combinations(k, n)), (k, n)
        for k in range(6):
            assert typed(h_star(k, n)) == typed(_hstar_by_combinations(k, n)), (k, n)


def test_s_star_vanishing_and_normalization():
    n = 3
    for lam in partitions_upto(3, include_empty=False):
        if len(lam) > n:
            continue
        p = s_star(lam, n)
        assert eval_at_partition(p, lam) == hook_number(lam)
        for mu in partitions_upto(3):
            if len(mu) > n:
                continue
            if not contains(lam, mu):
                assert eval_at_partition(p, mu) == 0
    assert s_star((), 3) == sp_const(3, 1)


def test_express_in_estar_basis_round_trip():
    for p in [s_star((2, 1), 3), h_star(3, 3), sp_mul(e_star(1, 2), e_star(2, 2))]:
        coeffs = express_in_estar_basis(p)
        assert from_estar_coeffs(coeffs, p.n) == p
    assert express_in_estar_basis(e_star(2, 3)) == {(2,): 1}
    assert express_in_estar_basis(sp_const(2, 7)) == {(): 7}
    assert express_in_estar_basis(sp_zero(2)) == {}


def test_express_in_estar_basis_rejects_asymmetric():
    with pytest.raises(ValueError):
        express_in_estar_basis(sp_linear(2, 2, 0))


@st.composite
def _estar_combinations(draw):
    """A random combination of e*-products in n <= 3 variables, plus, half
    of the time, one random monomial that usually breaks shifted symmetry."""
    n = draw(st.integers(min_value=1, max_value=3))
    coeff = st.sampled_from((-3, -2, -1, 1, 2, 3))
    p = sp_zero(n)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        key = draw(st.lists(st.integers(min_value=1, max_value=n), max_size=3))
        add_into(p.terms, sp_prod(n, (e_star(k, n) for k in key)).terms, draw(coeff))
    if draw(st.booleans()):
        mono = draw(st.lists(st.integers(min_value=0, max_value=2), min_size=n, max_size=n))
        add_term(p.terms, tuple(mono), draw(coeff))
    return p


@settings(max_examples=150, deadline=None)
@given(_estar_combinations())
def test_peel_succeeds_exactly_on_shifted_symmetric_input(p):
    # the peel is the check on the hot path; is_shifted_symmetric is the
    # definitional oracle
    try:
        coeffs = express_in_estar_basis(p)
    except ValueError:
        coeffs = None
    assert (coeffs is not None) == is_shifted_symmetric(p)
    if coeffs is not None:
        assert from_estar_coeffs(coeffs, p.n) == p


def test_each_generator_is_built_once_per_call(monkeypatch):
    # the keys (2, 1, 1) and (1, 1) repeat k = 1 within a key and across keys
    e1, e2 = e_star(1, 3), e_star(2, 3)
    p = sp_prod(3, (e2, e1, e1))
    add_into(p.terms, sp_mul(e1, e1).terms)
    h1, h2 = capelli_H(1, 2).body, capelli_H(2, 2).body
    body = elem_mul(h1, h1)
    add_into(body, elem_mul(h2, h1))
    x = CentralElement(pbw_normal_form(body), 2, "H1^2+H2*H1")
    built = Counter()
    for module, name in [
        (shifted, "e_star"),
        (shifted, "h_star"),
        (central, "capelli_H"),
        (central, "nazarov_umeda_I"),
    ]:
        def counted(k, n, *args, _name=name, _original=getattr(module, name)):
            built[_name, k, n] += 1
            return _original(k, n, *args)

        monkeypatch.setattr(module, name, counted)
    # embed and duality_W are checked on the generators they substitute;
    # the next test counts their peels
    for f, arg, names in [
        (express_in_estar_basis, p, {"e_star"}),
        (omega, p, {"e_star", "h_star"}),
        (i_star, p, {"e_star"}),
        (embed, x, {"capelli_H"}),
        (duality_W, x, {"nazarov_umeda_I"}),
    ]:
        built.clear()
        f(arg)
        counts = {key: c for key, c in built.items() if key[0] in names}
        assert {key[0] for key in counts} == names, f.__name__
        assert max(counts.values()) == 1, (f.__name__, counts)


def test_omega_swaps_generator_families():
    for n in (2, 3):
        for k in range(1, n + 1):
            assert omega(e_star(k, n)) == h_star(k, n)
            assert omega(h_star(k, n)) == e_star(k, n)


def test_omega_involution():
    for p in [s_star((2, 1), 3), h_star(2, 2), sp_mul(e_star(1, 2), e_star(2, 2))]:
        assert omega(omega(p)) == p


def test_omega_conjugates_small_shapes():
    # omega(s*_lam) = s*_{lam~} holds when |lam| <= n
    for n, lam in [(2, (2,)), (2, (1, 1)), (3, (2, 1)), (3, (3,)), (3, (1, 1, 1))]:
        assert size(lam) <= n
        assert omega(s_star(lam, n)) == s_star(conjugate(lam), n)
    # pinned counterexample outside that range: (2,1) is self-conjugate but
    # omega still moves it at n = 2
    p = s_star((2, 1), 2)
    assert omega(p) != p
    assert eval_at_partition(p, (3,)) == 0
    assert eval_at_partition(omega(p), (3,)) == 6


def test_strip_duality_of_generator_evaluations():
    for mu in [(1,), (2,), (1, 1), (2, 1), (3, 1)]:
        for k in (1, 2):
            nv = max(k, len(mu), mu[0], 1)
            lhs = eval_at_partition(e_star(k, nv), conjugate(mu))
            rhs = eval_at_partition(h_star(k, nv), mu)
            assert lhs == rhs


def test_pi_star_and_i_star():
    for n in (2, 3):
        for k in range(1, n):
            assert pi_star(e_star(k, n)) == e_star(k, n - 1)
            assert pi_star(h_star(k, n)) == h_star(k, n - 1)
        assert pi_star(e_star(n, n)) == sp_zero(n - 1)
    assert pi_star(s_star((2, 1), 3)) == s_star((2, 1), 2)
    for p in [e_star(2, 2), s_star((2, 1), 2)]:
        assert pi_star(i_star(p)) == p
    with pytest.raises(ValueError):
        pi_star(sp_const(0, 1))


def test_harish_chandra_on_named_elements():
    for n in (2, 3):
        for k in range(1, n + 1):
            assert harish_chandra(capelli_H(k, n)) == e_star(k, n)
            assert harish_chandra(nazarov_umeda_I(k, n)) == h_star(k, n)
    assert harish_chandra(schur_element((2, 1), 2)) == s_star((2, 1), 2)


def test_embed_and_duality_peel_the_image_once(monkeypatch):
    peels = []

    def counted(p):
        peels.append(p)
        return express_in_estar_basis(p)

    for module in (shifted, central):
        monkeypatch.setattr(module, "express_in_estar_basis", counted)
    x = schur_element((2, 1), 3)
    image = harish_chandra(x)
    for f in (embed, duality_W):
        peels.clear()
        f(x)
        assert peels == [image], f.__name__


def test_harish_chandra_rejects_non_central():
    with pytest.raises(ValueError, match="input is not central"):
        harish_chandra(CentralElement({((1, 1),): Fraction(1)}, 2, "user"))


def test_sp_divide_exact():
    n = 2
    x1, x2 = sp_linear(n, 1, 0), sp_linear(n, 2, 0)
    num = sp_sub(sp_mul(x1, x1), sp_mul(x2, x2))
    assert sp_divide_exact(num, sp_sub(x1, x2)) == sp_add(x1, x2)
    with pytest.raises(ValueError):
        sp_divide_exact(x1, x2)
    with pytest.raises(ZeroDivisionError):
        sp_divide_exact(x1, sp_zero(n))


def test_sp_divide_exact_keeps_integer_input_exact():
    # int / int is a float; the quotient must stay in Fractions
    num = ShiftedPolynomial(1, {(2,): 1, (1,): 3})
    q = sp_divide_exact(num, ShiftedPolynomial(1, {(1,): 2}))
    assert q.terms == {(1,): Fraction(1, 2), (0,): Fraction(3, 2)}
    assert {type(c) for c in q.terms.values()} == {Fraction}


def test_sp_divide_exact_gives_int_quotient_when_integral():
    x1, x2 = sp_linear(2, 1, 0), sp_linear(2, 2, 0)
    num = sp_mul(sp_add(x1, x2), ShiftedPolynomial(2, {(1, 0): 2, (0, 0): -6}))
    q = sp_divide_exact(num, sp_add(x1, x2))
    assert q.terms == {(1, 0): 2, (0, 0): -6}
    assert {type(c) for c in q.terms.values()} == {int}


def test_integer_coefficients_stay_integers():
    p = s_star((3, 1), 5)
    for terms in [
        p.terms,
        express_in_estar_basis(p),
        omega(p).terms,
        i_star(p).terms,
        s_star_determinant((2, 1), 3).terms,
    ]:
        assert terms and {type(c) for c in terms.values()} == {int}


def test_eval_at_partition_is_the_fraction_evaluation():
    # the value summed in int equals the sum over Fraction powers, as a Fraction
    p = s_star((3, 1), 5)
    for mu in [(), (1,), (3, 1), (4, 2, 1), (5, 3, 3, 2, 1)]:
        point = [Fraction(v) for v in mu + (0,) * (5 - len(mu))]
        reference = sum(
            (c * prod(v**e for v, e in zip(point, mono)) for mono, c in p.terms.items()),
            Fraction(0),
        )
        value = eval_at_partition(p, mu)
        assert type(value) is Fraction and value == reference, mu


def test_sp_eval_accepts_fraction_values():
    p = ShiftedPolynomial(2, {(2, 0): 3, (0, 1): Fraction(1, 2), (0, 0): -1})
    value = sp_eval(p, [Fraction(1, 3), 4])
    assert type(value) is Fraction and value == Fraction(4, 3)
    assert sp_eval(e_star(2, 2), [Fraction(1, 2), Fraction(3, 2)]) == Fraction(9, 4)


def test_sp_eval_rejects_floats():
    # a float would become an inexact Fraction such as 3602879701896397/2**55
    with pytest.raises(TypeError):
        sp_eval(e_star(1, 1), [0.1])
    with pytest.raises(TypeError):
        sp_eval(e_star(2, 2), [1, 2.0])
    assert sp_eval(e_star(1, 2), ["1/3", 2]) == Fraction(7, 3)
    assert type(sp_eval(e_star(1, 2), [1, 2])) is Fraction


def test_harish_chandra_of_integer_body():
    p = harish_chandra(capelli_H(2, 3))
    assert p == e_star(2, 3)
    assert {type(c) for c in p.terms.values()} <= {int, Fraction}
    assert {type(c) for c in express_in_estar_basis(p).values()} <= {int, Fraction}


def test_eval_at_partition_pads_with_zeros():
    assert eval_at_partition(e_star(1, 3), (2,)) == 2
    assert eval_at_partition(sp_const(2, 5), ()) == 5
    with pytest.raises(ValueError):
        eval_at_partition(e_star(1, 2), (1, 1, 1))


def test_format_shifted():
    assert format_shifted(sp_zero(2)) == "0"
    assert format_shifted(e_star(2, 2)) == "x1*x2 + x2"
    assert format_shifted(h_star(2, 2)) == "x1^2 + x1*x2 - x1 + x2^2 - 2*x2"
    assert format_shifted(ShiftedPolynomial(2, {(1, 0): -1, (0, 1): 2})) == "-x1 + 2*x2"
    assert format_shifted(ShiftedPolynomial(2, {(1, 1): 1, (0, 0): -3})) == "x1*x2 - 3"


def test_shifted_json_round_trip():
    for p in [s_star((2, 1), 3), sp_zero(2), sp_const(2, Fraction(-7, 3))]:
        assert shifted_from_json(shifted_to_json(p)) == p
