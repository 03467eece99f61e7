"""Shifted symmetric polynomials in n variables over exact rationals.

A polynomial is a sparse linear combination (see `lincomb`) mapping dense
exponent tuples (length n) to nonzero int or Fraction coefficients, wrapped
with its variable count. A coefficient is an int until a division needs a
Fraction: s*_lam, e*_k, h*_k, the e*-peel and its products stay in int.
Shifted symmetry means
p(..., x_i, x_{i+1}, ...) = p(..., x_{i+1} - 1, x_i + 1, ...) for all i;
the named families e*_k, h*_k, s*_lambda all satisfy it, and the eigenvalue
map from central elements lands exactly here.
"""

from __future__ import annotations

import json
import operator
from fractions import Fraction
from typing import NamedTuple

from .combinatorics import Partition, check_partition, conjugate, enumerate_rssyt
from .enveloping import check_letters
from .lincomb import add_into, add_term, exact, format_terms, parse_coeff, prefix_product


class ShiftedPolynomial(NamedTuple):
    n: int
    terms: dict


def sp_zero(n: int) -> ShiftedPolynomial:
    return ShiftedPolynomial(n, {})


def sp_const(n: int, c) -> ShiftedPolynomial:
    return ShiftedPolynomial(n, {(0,) * n: c} if c else {})


def sp_linear(n: int, i: int, shift) -> ShiftedPolynomial:
    """x_i + shift (1-indexed variable)."""
    terms = {}
    mono = tuple(1 if j == i - 1 else 0 for j in range(n))
    terms[mono] = 1
    if shift:
        terms[(0,) * n] = shift
    return ShiftedPolynomial(n, terms)


def sp_mul(p: ShiftedPolynomial, q: ShiftedPolynomial) -> ShiftedPolynomial:
    out: dict = {}
    for m1, c1 in p.terms.items():
        # adding m1 is injective in m2, so each row has distinct exponents
        add_into(out, {tuple(map(operator.add, m1, m2)): c2 for m2, c2 in q.terms.items()}, c1)
    return ShiftedPolynomial(p.n, out)


def sp_prod(n: int, factors) -> ShiftedPolynomial:
    out = sp_const(n, 1)
    for f in factors:
        out = sp_mul(out, f)
    return out


def sp_eval(p: ShiftedPolynomial, values) -> Fraction:
    values = [exact(v) for v in values]
    if len(values) != p.n:
        raise ValueError("value count must match variable count")
    total = 0
    for mono, c in p.terms.items():
        term = c
        for v, e in zip(values, mono):
            if e:
                term *= v**e
        total += term
    return Fraction(total)


def _substitute(p: ShiftedPolynomial, images) -> ShiftedPolynomial:
    """p with each x_j replaced by the polynomial images[j - 1]."""
    out = sp_zero(p.n)
    for mono, c in p.terms.items():
        factors = (images[j] for j, e in enumerate(mono) for _ in range(e))
        add_into(out.terms, sp_prod(p.n, factors).terms, c)
    return out


def is_shifted_symmetric(p: ShiftedPolynomial) -> bool:
    n = p.n
    for i in range(1, n):
        images = [sp_linear(n, j, 0) for j in range(1, n + 1)]
        images[i - 1], images[i] = sp_linear(n, i + 1, -1), sp_linear(n, i, 1)
        if _substitute(p, images).terms != p.terms:
            return False
    return True


def e_star(k: int, n: int) -> ShiftedPolynomial:
    """Sum over i_1 < ... < i_k of (x_{i_1}+k-1)(x_{i_2}+k-2)...(x_{i_k}),
    the shifted Schur polynomial of the column (1^k)."""
    if not 0 <= k <= n:
        raise ValueError(f"e* needs 0 <= k <= n, got k={k}, n={n}")
    return s_star((1,) * k, n)


def h_star(k: int, n: int) -> ShiftedPolynomial:
    """Sum over i_1 <= ... <= i_k of (x_{i_1}-k+1)(x_{i_2}-k+2)...(x_{i_k}),
    the shifted Schur polynomial of the row (k)."""
    if k < 0:
        raise ValueError("h* needs k >= 0")
    return s_star((k,) if k else (), n)


def _falling(n: int, i: int, shift: int, m: int) -> ShiftedPolynomial:
    """Falling factorial (x_i + shift)(x_i + shift - 1)...(m factors)."""
    return sp_prod(n, (sp_linear(n, i, shift - t) for t in range(m)))


def _divide_by_difference(p: ShiftedPolynomial, i: int, j: int) -> ShiftedPolynomial:
    """p / (x_i - x_j) by synthetic division in x_i; raises when a remainder
    is left."""
    x_j = sp_linear(p.n, j, 0)
    slices: dict = {}  # the coefficient of x_i^k, a polynomial without x_i
    for mono, c in p.terms.items():
        slices.setdefault(mono[i - 1], {})[mono[: i - 1] + (0,) + mono[i:]] = c
    out: dict = {}
    carry = sp_zero(p.n)  # the coefficient of x_i^(k - 1) in the quotient
    for k in range(max(slices, default=0), -1, -1):
        carry = sp_mul(x_j, carry)
        add_into(carry.terms, slices.get(k, {}))
        if k:
            out.update((mono[: i - 1] + (k - 1,) + mono[i:], c) for mono, c in carry.terms.items())
    if carry.terms:
        raise ValueError("polynomial division failed to be exact")
    return ShiftedPolynomial(p.n, out)


def s_star_determinant(lam: Partition, n: int) -> ShiftedPolynomial:
    """det[(x_i + n - i) falling (lam_j + n - j)] / det[(x_i + n - i) falling (n - j)].
    Both are taken in y_i = x_i + n - i. Row i of the numerator is a
    polynomial in y_i alone, so it is expanded row by row over the sets of
    columns already used (Laplace), 2^n n steps. A falling power is monic in
    y_i, so the denominator is the Vandermonde product prod_{i<j} (y_i - y_j);
    the numerator is divided by its factors one at a time. This route shares
    no code with `s_star`, which it cross-checks in `verify` and the tests."""
    lam = check_partition(lam)
    if len(lam) > n:
        raise ValueError("shape needs at most n rows")
    padded = lam + (0,) * (n - len(lam))
    minors = {0: sp_const(n, 1)}  # bitmask of the columns of rows 1..i -> minor
    for i in range(1, n + 1):
        row = [_falling(n, i, 0, padded[j] + n - 1 - j) for j in range(n)]
        grown: dict = {}
        for used, minor in minors.items():
            for j in range(n):
                if not used >> j & 1:
                    # a sign flip for each used column to the right of j
                    sign = -1 if (used >> j).bit_count() % 2 else 1
                    add_into(grown.setdefault(used | 1 << j, {}), sp_mul(row[j], minor).terms, sign)
        minors = {used: ShiftedPolynomial(n, terms) for used, terms in grown.items()}
    out = minors[(1 << n) - 1]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out = _divide_by_difference(out, i, j)
    return _substitute(out, [sp_linear(n, i, n - i) for i in range(1, n + 1)])


def s_star(lam: Partition, n: int) -> ShiftedPolynomial:
    """Shifted Schur polynomial: the sum over reverse semistandard tableaux T
    of the product over cells s of (x_{T(s)} - c(s)). `s_star_determinant`,
    the determinant ratio over its Vandermonde denominator, is its
    independent cross-check in `verify` and the tests."""
    lam = check_partition(lam)
    if len(lam) > n:
        raise ValueError("shape needs at most n rows")
    out = sp_zero(n)
    for tab in enumerate_rssyt(lam, n):
        factors = []
        for r, row in enumerate(tab):
            for c, entry in enumerate(row):
                factors.append(sp_linear(n, entry, -(c - r)))
        add_into(out.terms, sp_prod(n, factors).terms)
    return out


def harish_chandra(x) -> ShiftedPolynomial:
    """Image of a central element: keep purely-Cartan PBW monomials and send
    e_{ii} to x_i. Raises on a letter outside 1..n and when the e*-peel
    rejects the result as not shifted symmetric."""
    return _harish_chandra_peeled(x)[0]


def _harish_chandra_peeled(x) -> tuple:
    """(harish_chandra(x), its e*-basis expression), from one peel."""
    n = x.n
    check_letters(x.body, n)
    out: dict = {}
    for word, coeff in x.body.items():
        if all(a == b for a, b in word):
            exps = [0] * n
            for a, _ in word:
                exps[a - 1] += 1
            add_term(out, tuple(exps), coeff)
    p = ShiftedPolynomial(n, out)
    try:
        coeffs = express_in_estar_basis(p)
    except ValueError:
        raise ValueError("Harish-Chandra image is not shifted symmetric; input is not central") from None
    return p, coeffs


def eval_at_partition(p: ShiftedPolynomial, mu: Partition) -> Fraction:
    mu = check_partition(mu)
    if len(mu) > p.n:
        raise ValueError("partition needs at most n parts")
    return sp_eval(p, list(mu) + [0] * (p.n - len(mu)))


def pi_star(p: ShiftedPolynomial) -> ShiftedPolynomial:
    """Set the last variable to zero: Lambda*(n) -> Lambda*(n-1)."""
    if p.n == 0:
        raise ValueError("no variable left to remove")
    out = {m[:-1]: c for m, c in p.terms.items() if m[-1] == 0}
    return ShiftedPolynomial(p.n - 1, out)


def express_in_estar_basis(p: ShiftedPolynomial) -> dict:
    """Unique expression of a shifted symmetric polynomial as a polynomial in
    e*_1 .. e*_n: mapping from multisets (weakly decreasing tuples of k
    values) to coefficients. Peels the (degree, lex) leading term against the
    e*-product it leads, so that term falls strictly at every step. Each
    e*-product is its key's prefix product times one more generator. The peel
    raises exactly when the input is not in Q[e*_1..e*_n], which makes it a
    complete test of shifted symmetry."""
    n = p.n
    rem = ShiftedPolynomial(n, dict(p.terms))
    coeffs: dict = {}
    gens: dict = {}
    products = {(): sp_const(n, 1)}
    while rem.terms:
        mono = max(rem.terms, key=lambda m: (sum(m), m))
        if any(mono[i] < mono[i + 1] for i in range(n - 1)):
            raise ValueError("input is not shifted symmetric: non-dominant leading term")
        coeff = rem.terms[mono]
        key = conjugate(tuple(e for e in mono if e))
        add_term(coeffs, key, coeff)
        gens.update((k, e_star(k, n)) for k in set(key) - gens.keys())
        add_into(rem.terms, prefix_product(products, key, gens, sp_mul).terms, -coeff)
    return coeffs


def from_estar_coeffs(coeffs: dict, n: int, gen=e_star) -> ShiftedPolynomial:
    """The polynomial coeffs (as from the peel) in gen(k, n), built once per k,
    each product from its key's prefix product."""
    gens = {k: gen(k, n) for k in set().union(*coeffs)}
    products = {(): sp_const(n, 1)}
    out = sp_zero(n)
    for key, c in coeffs.items():
        add_into(out.terms, prefix_product(products, key, gens, sp_mul).terms, c)
    return out


def i_star(p: ShiftedPolynomial) -> ShiftedPolynomial:
    """Re-express the generators one variable up: Lambda*(n) -> Lambda*(n+1)."""
    return from_estar_coeffs(express_in_estar_basis(p), p.n + 1, e_star)


def omega(p: ShiftedPolynomial) -> ShiftedPolynomial:
    """Substitute e*_k -> h*_k in the e*-basis expression."""
    return from_estar_coeffs(express_in_estar_basis(p), p.n, h_star)


def format_shifted(p: ShiftedPolynomial) -> str:
    return format_terms(
        (
            "*".join(f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(mono, 1) if e),
            p.terms[mono],
        )
        for mono in sorted(p.terms, reverse=True)
    )


def shifted_to_json(p: ShiftedPolynomial) -> str:
    items = [
        {"exponents": list(m), "coeff": str(p.terms[m])}
        for m in sorted(p.terms, reverse=True)
    ]
    return json.dumps({"n": p.n, "terms": items})


def shifted_from_json(text: str) -> ShiftedPolynomial:
    data = json.loads(text)
    terms = {}
    for item in data["terms"]:
        add_term(terms, tuple(int(e) for e in item["exponents"]), parse_coeff(item["coeff"]))
    return ShiftedPolynomial(int(data["n"]), terms)
