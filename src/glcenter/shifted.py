"""Shifted symmetric polynomials in n variables over exact rationals.

A polynomial is a dict mapping dense exponent tuples (length n) to nonzero
Fractions, wrapped with its variable count. Shifted symmetry means
p(..., x_i, x_{i+1}, ...) = p(..., x_{i+1} - 1, x_i + 1, ...) for all i;
the named families e*_k, h*_k, s*_lambda all satisfy it, and the eigenvalue
map from central elements lands exactly here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations

from .combinatorics import (
    Partition,
    check_partition,
    conjugate,
    enumerate_rssyt,
    format_partition,
    permutation_sign,
)


@dataclass
class ShiftedPolynomial:
    n: int
    terms: dict

    def __eq__(self, other):
        return (
            isinstance(other, ShiftedPolynomial)
            and self.n == other.n
            and self.terms == other.terms
        )


def sp_zero(n: int) -> ShiftedPolynomial:
    return ShiftedPolynomial(n, {})


def sp_const(n: int, c) -> ShiftedPolynomial:
    c = Fraction(c)
    return ShiftedPolynomial(n, {(0,) * n: c} if c else {})


def sp_linear(n: int, i: int, shift) -> ShiftedPolynomial:
    """x_i + shift (1-indexed variable)."""
    terms = {}
    mono = tuple(1 if j == i - 1 else 0 for j in range(n))
    terms[mono] = Fraction(1)
    shift = Fraction(shift)
    if shift:
        terms[(0,) * n] = shift
    return ShiftedPolynomial(n, terms)


def sp_add_into(p: ShiftedPolynomial, q: ShiftedPolynomial, c=1) -> None:
    for mono, v in q.terms.items():
        w = p.terms.get(mono, 0) + v * c
        if w:
            p.terms[mono] = w
        else:
            p.terms.pop(mono, None)


def sp_add(p: ShiftedPolynomial, q: ShiftedPolynomial) -> ShiftedPolynomial:
    out = ShiftedPolynomial(p.n, dict(p.terms))
    sp_add_into(out, q)
    return out


def sp_sub(p: ShiftedPolynomial, q: ShiftedPolynomial) -> ShiftedPolynomial:
    out = ShiftedPolynomial(p.n, dict(p.terms))
    sp_add_into(out, q, -1)
    return out


def sp_mul(p: ShiftedPolynomial, q: ShiftedPolynomial) -> ShiftedPolynomial:
    out: dict = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            w = out.get(m, 0) + c1 * c2
            if w:
                out[m] = w
            else:
                out.pop(m, None)
    return ShiftedPolynomial(p.n, out)


def sp_prod(n: int, factors) -> ShiftedPolynomial:
    out = sp_const(n, 1)
    for f in factors:
        out = sp_mul(out, f)
    return out


def sp_eval(p: ShiftedPolynomial, values) -> Fraction:
    values = [Fraction(v) for v in values]
    if len(values) != p.n:
        raise ValueError("value count must match variable count")
    total = Fraction(0)
    for mono, c in p.terms.items():
        term = c
        for v, e in zip(values, mono):
            if e:
                term *= v**e
        total += term
    return total


def sp_degree(p: ShiftedPolynomial) -> int:
    return max((sum(m) for m in p.terms), default=0)


def is_shifted_symmetric(p: ShiftedPolynomial) -> bool:
    n = p.n
    for i in range(1, n):
        swapped = sp_zero(n)
        for mono, c in p.terms.items():
            factors = []
            for j, e in enumerate(mono, start=1):
                if not e:
                    continue
                if j == i:
                    base = sp_linear(n, i + 1, -1)
                elif j == i + 1:
                    base = sp_linear(n, i, 1)
                else:
                    base = sp_linear(n, j, 0)
                factors.extend([base] * e)
            sp_add_into(swapped, sp_prod(n, factors), c)
        if swapped.terms != p.terms:
            return False
    return True


def e_star(k: int, n: int) -> ShiftedPolynomial:
    """Sum over i_1 < ... < i_k of (x_{i_1}+k-1)(x_{i_2}+k-2)...(x_{i_k})."""
    if not 0 <= k <= n:
        raise ValueError(f"e* needs 0 <= k <= n, got k={k}, n={n}")
    out = sp_zero(n)
    for idx in combinations(range(1, n + 1), k):
        sp_add_into(
            out, sp_prod(n, (sp_linear(n, i, k - j) for j, i in enumerate(idx, 1)))
        )
    return out


def h_star(k: int, n: int) -> ShiftedPolynomial:
    """Sum over i_1 <= ... <= i_k of (x_{i_1}-k+1)(x_{i_2}-k+2)...(x_{i_k})."""
    if k < 0:
        raise ValueError("h* needs k >= 0")
    out = sp_zero(n)
    for idx in combinations_with_replacement(range(1, n + 1), k):
        sp_add_into(
            out, sp_prod(n, (sp_linear(n, i, j - k) for j, i in enumerate(idx, 1)))
        )
    return out


def _falling(n: int, i: int, shift: int, m: int) -> ShiftedPolynomial:
    """Falling factorial (x_i + shift)(x_i + shift - 1)...(m factors)."""
    return sp_prod(n, (sp_linear(n, i, shift - t) for t in range(m)))


def _det(n: int, entries) -> ShiftedPolynomial:
    """Determinant of a k x k matrix of polynomials via permutation expansion."""
    k = len(entries)
    out = sp_zero(n)
    for perm in permutations(range(k)):
        term = sp_prod(n, (entries[perm[c]][c] for c in range(k)))
        sp_add_into(out, term, permutation_sign(perm))
    return out


def _lex_leading(p: ShiftedPolynomial):
    mono = max(p.terms)
    return mono, p.terms[mono]


def sp_divide_exact(num: ShiftedPolynomial, den: ShiftedPolynomial) -> ShiftedPolynomial:
    """Exact multivariate division on the lexicographic order; raises when a
    remainder step is not divisible by the leading term of den."""
    if not den.terms:
        raise ZeroDivisionError("division by zero polynomial")
    dmono, dcoeff = _lex_leading(den)
    quot = sp_zero(num.n)
    rem = ShiftedPolynomial(num.n, dict(num.terms))
    while rem.terms:
        mono, coeff = _lex_leading(rem)
        q = tuple(a - b for a, b in zip(mono, dmono))
        if any(e < 0 for e in q):
            raise ValueError("polynomial division failed to be exact")
        qterm = ShiftedPolynomial(num.n, {q: coeff / dcoeff})
        sp_add_into(quot, qterm)
        sp_add_into(rem, sp_mul(qterm, den), -1)
    return quot


def s_star_determinant(lam: Partition, n: int) -> ShiftedPolynomial:
    """det[(x_i + n - i) falling (lam_j + n - j)] / det[(x_i + n - i) falling (n - j)]."""
    lam = check_partition(lam)
    if len(lam) > n:
        raise ValueError("shape needs at most n rows")
    padded = lam + (0,) * (n - len(lam))
    num = _det(
        n,
        [
            [_falling(n, i, n - i, padded[j - 1] + n - j) for j in range(1, n + 1)]
            for i in range(1, n + 1)
        ],
    )
    den = _det(
        n,
        [[_falling(n, i, n - i, n - j) for j in range(1, n + 1)] for i in range(1, n + 1)],
    )
    return sp_divide_exact(num, den)


def s_star_tableau(lam: Partition, n: int) -> ShiftedPolynomial:
    """Sum over reverse semistandard tableaux of prod over cells (x_{T(s)} - c(s))."""
    lam = check_partition(lam)
    if len(lam) > n:
        raise ValueError("shape needs at most n rows")
    out = sp_zero(n)
    for tab in enumerate_rssyt(lam, n):
        factors = []
        for r, row in enumerate(tab):
            for c, entry in enumerate(row):
                factors.append(sp_linear(n, entry, -(c - r)))
        sp_add_into(out, sp_prod(n, factors))
    return out


def s_star(lam: Partition, n: int) -> ShiftedPolynomial:
    """Shifted Schur polynomial; both presentations computed and compared."""
    det_form = s_star_determinant(lam, n)
    tab_form = s_star_tableau(lam, n)
    if det_form != tab_form:
        raise AssertionError(
            f"s* presentations disagree for lam={lam}, n={n}"
        )
    return det_form


def harish_chandra(x) -> ShiftedPolynomial:
    """Image of a central element: keep purely-Cartan PBW monomials and send
    e_{ii} to x_i. Raises when the result is not shifted symmetric."""
    n = x.n
    out: dict = {}
    for word, coeff in x.body.items():
        exps = [0] * n
        cartan = True
        for a, b in word:
            if a == b:
                exps[a - 1] += 1
            else:
                cartan = False
                break
        if cartan:
            mono = tuple(exps)
            v = out.get(mono, 0) + coeff
            if v:
                out[mono] = v
            else:
                out.pop(mono, None)
    p = ShiftedPolynomial(n, out)
    if not is_shifted_symmetric(p):
        raise ValueError("Harish-Chandra image is not shifted symmetric; input is not central")
    return p


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
    values) to coefficients. Peels the lex-leading term of the top
    homogeneous part against the matching e*-product."""
    n = p.n
    rem = ShiftedPolynomial(n, dict(p.terms))
    coeffs: dict = {}
    while rem.terms:
        deg = sp_degree(rem)
        if deg == 0:
            coeffs[()] = coeffs.get((), 0) + rem.terms[(0,) * n]
            break
        top = [m for m in rem.terms if sum(m) == deg]
        mono = max(top)
        if any(mono[i] < mono[i + 1] for i in range(n - 1)):
            raise ValueError("input is not shifted symmetric: non-dominant leading term")
        coeff = rem.terms[mono]
        key = conjugate(tuple(e for e in mono if e))
        coeffs[key] = coeffs.get(key, 0) + coeff
        sp_add_into(rem, estar_monomial(key, n), -coeff)
    return {k: v for k, v in coeffs.items() if v}


def estar_monomial(key, n: int) -> ShiftedPolynomial:
    return sp_prod(n, (e_star(k, n) for k in key))


def hstar_monomial(key, n: int) -> ShiftedPolynomial:
    return sp_prod(n, (h_star(k, n) for k in key))


def from_estar_coeffs(coeffs: dict, n: int, gen=estar_monomial) -> ShiftedPolynomial:
    out = sp_zero(n)
    for key, c in coeffs.items():
        sp_add_into(out, gen(key, n), c)
    return out


def i_star(p: ShiftedPolynomial) -> ShiftedPolynomial:
    """Re-express the generators one variable up: Lambda*(n) -> Lambda*(n+1)."""
    return from_estar_coeffs(express_in_estar_basis(p), p.n + 1)


def omega(p: ShiftedPolynomial) -> ShiftedPolynomial:
    """Substitute e*_k -> h*_k in the e*-basis expression."""
    return from_estar_coeffs(express_in_estar_basis(p), p.n, gen=hstar_monomial)


def format_shifted(p: ShiftedPolynomial) -> str:
    if not p.terms:
        return "0"
    parts = []
    for mono in sorted(p.terms, reverse=True):
        c = p.terms[mono]
        body = "*".join(
            f"x{i}" if e == 1 else f"x{i}^{e}"
            for i, e in enumerate(mono, 1)
            if e
        )
        if not body:
            parts.append(str(c))
        elif c == 1:
            parts.append(body)
        elif c == -1:
            parts.append(f"-{body}")
        else:
            parts.append(f"{c}*{body}")
    out = parts[0]
    for t in parts[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


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
        mono = tuple(int(e) for e in item["exponents"])
        c = Fraction(item["coeff"])
        if c:
            terms[mono] = terms.get(mono, 0) + c
    return ShiftedPolynomial(int(data["n"]), {m: c for m, c in terms.items() if c})
