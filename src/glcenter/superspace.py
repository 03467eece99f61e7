"""The supersymmetric algebra of letterplace variables (a|j).

Symbols come in four classes. A proper letter is a positive integer and has
Z2 degree 1. Virtual symbols are pairs (cls, index) with cls "a" (positive,
degree 0), "b" (negative, degree 1), or "g" (the auxiliary symbol used to
build biproducts, degree 0). A variable (a|j) pairs a symbol with a place
j >= 1; places carry degree 1, so a variable is odd exactly when its symbol
is even. Odd variables anticommute and square to zero; even variables are
central. Monomials are stored sorted by a fixed key with the sign of the
sorting permutation absorbed into the coefficient. Every constructor here,
`poly_from_json` included, makes such canonical monomials, and
`superpolarize` relies on it: it moves the one variable it changes to its
place instead of sorting the monomial again.

A polynomial is a sparse linear combination (see `lincomb`) mapping
monomials (tuples of variables) to nonzero int or Fraction coefficients; the
empty monomial () is the unit.
"""

from __future__ import annotations

import itertools
import json
from bisect import bisect_left
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .combinatorics import deruyts, enumerate_standard_proper, permutation_sign
from .lincomb import add_into, add_term, parse_coeff

Sym = Union[int, tuple]
Var = tuple  # (symbol, place)
SuperPolynomial = dict


def alpha(i: int) -> Sym:
    return ("a", i)


def beta(i: int) -> Sym:
    return ("b", i)


def gamma(i: int) -> Sym:
    return ("g", i)


def is_proper(sym: Sym) -> bool:
    return isinstance(sym, int)


def symbol_degree(sym: Sym) -> int:
    """Z2 degree: proper letters and negative symbols 1, positive and
    auxiliary symbols 0."""
    if isinstance(sym, int):
        return 1
    return 1 if sym[0] == "b" else 0


_CLASS_RANK = {"b": 1, "a": 2, "g": 3}


def symbol_key(sym: Sym) -> tuple:
    if isinstance(sym, int):
        return (0, sym)
    return (_CLASS_RANK[sym[0]], sym[1])


def format_symbol(sym: Sym) -> str:
    if isinstance(sym, int):
        return str(sym)
    return f"{sym[0]}{sym[1]}"


def var_key(v: Var) -> tuple:
    sym, place = v
    return symbol_key(sym) + (place,)


def var_is_odd(v: Var) -> bool:
    return symbol_degree(v[0]) == 0


def normalize_vars(seq: Sequence[Var]) -> tuple:
    """Sort a product of variables into canonical order.

    Returns (monomial, sign); (None, 0) when an odd variable repeats.
    The sign is the parity of the odd-odd inversions removed by sorting.
    """
    odds = [var_key(v) for v in seq if var_is_odd(v)]
    if len(set(odds)) != len(odds):
        return None, 0
    return tuple(sorted(seq, key=var_key)), permutation_sign(odds)


def const(c) -> SuperPolynomial:
    return {(): c} if c else {}


def poly_mul(p: SuperPolynomial, q: SuperPolynomial) -> SuperPolynomial:
    out: SuperPolynomial = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            mono, sign = normalize_vars(m1 + m2)
            if mono is not None:
                add_term(out, mono, c1 * c2 * sign)
    return out


def superpolarize(a: Sym, b: Sym, p: SuperPolynomial) -> SuperPolynomial:
    """Left superderivation D_{a,b}: sends (b|j) to (a|j), Leibniz with sign
    (-1)^{|D| |prefix|} on each monomial.

    The monomials of p must be canonical (sorted by `var_key`, no repeated
    odd variable), as every constructor in this module makes them. The new
    variable (a|j) then only moves to its place in the rest of the monomial:
    when it is odd, the sorting sign is the parity of the odd variables it
    passes, and the term is zero if an equal odd variable is already there."""
    d_odd = symbol_degree(a) != symbol_degree(b)
    a_odd = symbol_degree(a) == 0
    a_key = symbol_key(a)
    out: SuperPolynomial = {}
    for mono, coeff in p.items():
        for i, (sym, place) in enumerate(mono):
            if sym != b:
                continue
            new = (a, place)
            rest = mono[:i] + mono[i + 1 :]
            k = bisect_left(rest, a_key + (place,), key=var_key)
            flip = d_odd and sum(map(var_is_odd, mono[:i])) % 2
            if a_odd:
                if rest[k : k + 1] == (new,):
                    continue
                flip ^= sum(map(var_is_odd, rest[k:i] if k < i else rest[i:k])) % 2
            add_term(out, rest[:k] + (new,) + rest[k:], -coeff if flip else coeff)
    return out


def word_degree(word: Iterable[Sym]) -> int:
    return sum(symbol_degree(z) for z in word) % 2


def biproduct(word: Sequence[Sym], places: Sequence[int]) -> SuperPolynomial:
    """(z_1 .. z_p | j_1 .. j_q): polarize each gamma of the product
    (g|j_1)..(g|j_q) into the letters of the word, rightmost letter first.
    Zero when the lengths differ."""
    word, places = tuple(word), tuple(places)
    if len(word) != len(places):
        return {}
    g = gamma(1)
    mono, sign = normalize_vars(tuple((g, j) for j in places))
    if mono is None:
        return {}
    p: SuperPolynomial = {mono: sign}
    for z in reversed(word):
        p = superpolarize(z, g, p)
    return p


def bitableau(S, T) -> SuperPolynomial:
    """Signed product of row biproducts (row_s of S | row_s of T)."""
    S = tuple(tuple(r) for r in S)
    T = tuple(tuple(r) for r in T)
    if tuple(len(r) for r in S) != tuple(len(r) for r in T):
        return {}
    exp = 0
    pdeg_prefix = 0
    for s in range(len(S)):
        if s > 0:
            exp += word_degree(S[s]) * pdeg_prefix
        pdeg_prefix = (pdeg_prefix + len(T[s])) % 2
    p = const(-1 if exp % 2 else 1)
    for row_s, row_t in zip(S, T):
        p = poly_mul(p, biproduct(row_s, row_t))
    return p


def highest_weight_vector(lam, n: int) -> SuperPolynomial:
    """(D_lam | D^P_lam): the canonical highest weight vector of the Schur
    module of shape lam inside C[M_{n,lam_1}]; its weight is conjugate(lam)."""
    lam = tuple(lam)
    if lam and lam[0] > n:
        raise ValueError(f"shape {lam} needs lam_1 <= n={n}")
    rows = deruyts(lam)
    return bitableau(rows, rows)


def _subset_signs_all_odd(m: int, k: int):
    # positions 0..m-1, subsets of size k with the unshuffle parity of
    # moving the subset to the front (every letter odd)
    for A in itertools.combinations(range(m), k):
        inA = set(A)
        inv = sum(1 for i in range(m) if i not in inA for j in A if j > i)
        yield A, (-1 if inv % 2 else 1)


def laplace_check(w1, w2, places) -> bool:
    """Expand (w1 w2 | places) over complementary splits of the place word
    and compare with the direct biproduct."""
    w1, w2, places = tuple(w1), tuple(w2), tuple(places)
    lhs = biproduct(w1 + w2, places)
    rhs: SuperPolynomial = {}
    extra = len(w1) % 2 and word_degree(w2)
    for A, unshuffle in _subset_signs_all_odd(len(places), len(w1)):
        inA = set(A)
        pa = tuple(places[i] for i in A)
        pb = tuple(places[i] for i in range(len(places)) if i not in inA)
        sign = unshuffle * (-1 if extra else 1)
        term = poly_mul(biproduct(w1, pa), biproduct(w2, pb))
        add_into(rhs, term, sign)
    return lhs == rhs


def laplace_check_dual(w, places1, places2) -> bool:
    """Expand (w | places1 places2) over complementary splits of the letter
    word and compare with the direct biproduct."""
    w, places1, places2 = tuple(w), tuple(places1), tuple(places2)
    lhs = biproduct(w, places1 + places2)
    rhs: SuperPolynomial = {}
    for A in itertools.combinations(range(len(w)), len(places1)):
        inA = set(A)
        B = [i for i in range(len(w)) if i not in inA]
        koszul = sum(
            symbol_degree(w[i]) * symbol_degree(w[j]) for i in B for j in A if j > i
        )
        wa = tuple(w[i] for i in A)
        wb = tuple(w[i] for i in B)
        exp = koszul + (len(places1) % 2) * word_degree(wb)
        term = poly_mul(biproduct(wa, places1), biproduct(wb, places2))
        add_into(rhs, term, -1 if exp % 2 else 1)
    return lhs == rhs


def _coordinate_matrix(polys):
    monos = sorted({m for p in polys for m in p}, key=lambda m: tuple(map(var_key, m)))
    index = {m: i for i, m in enumerate(monos)}
    cols = []
    for p in polys:
        col = [Fraction(0)] * len(monos)
        for m, c in p.items():
            col[index[m]] = c
        cols.append(col)
    return monos, cols


def span_dimension(polys) -> int:
    from .linalg import rank

    polys = [p for p in polys if p]
    if not polys:
        return 0
    _, cols = _coordinate_matrix(polys)
    rows = [[col[i] for col in cols] for i in range(len(cols[0]))]
    return rank(rows)


def schur_module_dimension(lam, n: int) -> int:
    """Rank of the span of all bitableaux (X|D^P_lam), X over {1..n}."""
    lam = tuple(lam)
    dp = deruyts(lam)
    xs = itertools.product(*(itertools.product(range(1, n + 1), repeat=part) for part in lam))
    return span_dimension([bitableau(tuple(x), dp) for x in xs])


def straighten_oracle(p: SuperPolynomial, lam, n: int) -> dict:
    """Coordinates of p in the standard basis {(S|D^P_lam)}, by exact linear
    algebra. Raises if p is outside the span."""
    from .linalg import solve

    lam = tuple(lam)
    dp = deruyts(lam)
    standard = enumerate_standard_proper(lam, n)
    basis = [bitableau(S, dp) for S in standard]
    monos, cols = _coordinate_matrix(basis + [p])
    a = [[cols[j][i] for j in range(len(basis))] for i in range(len(monos))]
    b = [cols[len(basis)][i] for i in range(len(monos))]
    x = solve(a, b)
    if x is None:
        raise ValueError("polynomial is not in the span of the standard basis")
    return {S: c for S, c in zip(standard, x) if c}


_CLASS_NAME = {"a": "alpha", "b": "beta", "g": "gamma"}
_NAME_CLASS = {v: k for k, v in _CLASS_NAME.items()}


def _sym_to_json(sym: Sym):
    if isinstance(sym, int):
        return ["proper", sym]
    return [_CLASS_NAME[sym[0]], sym[1]]


def _sym_from_json(data) -> Sym:
    cls, idx = data[0], int(data[1])
    if cls == "proper":
        return idx
    return (_NAME_CLASS[cls], idx)


def poly_to_json(p: SuperPolynomial) -> str:
    items = []
    for mono in sorted(p, key=lambda m: tuple(map(var_key, m))):
        items.append(
            {
                "monomial": [_sym_to_json(s) + [j] for s, j in mono],
                "coeff": str(p[mono]),
            }
        )
    return json.dumps(items)


def poly_from_json(text: str) -> SuperPolynomial:
    """Read a polynomial written as a list of monomials in any order; each
    monomial is sorted into canonical order with its sign, and one that
    repeats an odd variable is zero."""
    out: SuperPolynomial = {}
    for item in json.loads(text):
        mono, sign = normalize_vars(
            [(_sym_from_json(v[:2]), int(v[2])) for v in item["monomial"]]
        )
        if mono is not None:
            add_term(out, mono, sign * parse_coeff(item["coeff"]))
    return out
