"""Named elements of the center of U(gl(n)) and the maps between centers.

Constructions route through virtual symbols: a Capelli bitableau [S|T] is the
devirtualized image of e_{S,C*} e_{C*,T}, where the Coderuyts tableau C* has
one positive virtual symbol per row. A Young-Capelli bitableau [S|box T] is
built as its expansion, the column symmetrization of Capelli words, and a
double Young-Capelli bitableau [box S|T] as the signed row symmetrization of
Young-Capelli expansions; each constructor devirtualizes one combination of
words. The paper's direct virtual words, with the virtual-Deruyts exchange
blocks e_{C*,D*} and e_{D*,C*}, are the reference the tests compare against.
Schur elements are normalized sums of double Young-Capelli bitableaux [box S|S]
and specialize to the determinantal generators H_k(n) (column shapes) and the
permanental generators I_k(n) (row shapes).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product
from math import factorial

from .combinatorics import (
    Partition,
    Tableau,
    check_partition,
    conjugate,
    enumerate_row_increasing,
    format_partition,
    hook_number,
    permutation_cycle_type,
    permutation_sign,
    shape_of,
    size,
    sym_character,
)
from .enveloping import (
    EnvelopingElement,
    act,
    devirtualize,
    elem_mul,
    gen_key,
    one,
    pbw_normal_form,
)
from .lincomb import add_into, add_term, scale
from .shifted import express_in_estar_basis, harish_chandra
from .superspace import alpha, beta, highest_weight_vector, is_proper


@dataclass
class CentralElement:
    """A PBW body at alphabet size n; provenance names the element it was
    built as, wrapped in each map applied to it, e.g. "W(S:2,2@n=4)"."""

    body: EnvelopingElement
    n: int
    provenance: str


def _check_bitableau(S, T) -> tuple:
    """S and T as tuples of rows, after checking that both are tableaux of
    proper letters and that their shapes are equal."""
    S, T = tuple(map(tuple, S)), tuple(map(tuple, T))
    for row in S + T:
        for x in row:
            if not (is_proper(x) and x >= 1):
                raise ValueError(f"tableau entries must be proper letters, got {x!r}")
    if shape_of(S) != shape_of(T):
        raise ValueError("bitableau needs equal shapes")
    return S, T


def _left_block(S: Tableau, pool: int) -> tuple:
    """e_{S,C*}: the Coderuyts tableau repeats one positive symbol per row."""
    return tuple((x, alpha(r + 1 + pool)) for r, row in enumerate(S) for x in row)


def _right_block(T: Tableau, pool: int) -> tuple:
    """e_{C*,T}."""
    return tuple((alpha(r + 1 + pool), x) for r, row in enumerate(T) for x in row)


def capelli_bitableau(S, T, pool: int = 0) -> EnvelopingElement:
    """[S|T]: image of e_{S,C*} e_{C*,T}; central only in aggregate sums."""
    S, T = _check_bitableau(S, T)
    word = _left_block(S, pool) + _right_block(T, pool)
    return devirtualize({word: 1})


def _column_permuted(T: Tableau):
    """All tableaux obtained by permuting the entries of each column,
    enumerated over the full column permutation group."""
    shape = shape_of(T)
    heights = conjugate(shape)
    for pis in product(*(permutations(range(h)) for h in heights)):
        yield tuple(
            tuple(T[pis[c][r]][c] for c in range(shape[r])) for r in range(len(shape))
        )


def _row_permuted(T: Tableau):
    """All (sign, tableau) pairs for the row permutation group; the sign is
    the product of the signatures."""
    shape = shape_of(T)
    for pis in product(*(permutations(range(length)) for length in shape)):
        sign = 1
        for pi in pis:
            sign *= permutation_sign(pi)
        yield sign, tuple(
            tuple(T[r][pis[r][c]] for c in range(shape[r])) for r in range(len(shape))
        )


def _sorted_odd_block(factors: tuple):
    """Sort pairwise-anticommuting odd generators by key; None when a factor
    repeats (an odd element squares to zero)."""
    keys = [gen_key(g) for g in factors]
    inv = 0
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            if keys[i] > keys[j]:
                inv += 1
            elif keys[i] == keys[j]:
                return None
    order = sorted(range(len(factors)), key=lambda t: keys[t])
    return (-1 if inv % 2 else 1), tuple(factors[t] for t in order)


def _capelli_word_canonical(S: Tableau, T: Tableau, pool: int):
    """Canonical form (sign, word) of the virtual word of [S|T], or None when
    it vanishes; the two blocks sort independently."""
    left = _sorted_odd_block(_left_block(S, pool))
    if left is None:
        return None
    right = _sorted_odd_block(_right_block(T, pool))
    if right is None:
        return None
    return left[0] * right[0], left[1] + right[1]


def _yc_expansion(S: Tableau, T: Tableau, pool: int) -> EnvelopingElement:
    """Column-symmetrized sum of Capelli words, not yet devirtualized."""
    acc: EnvelopingElement = {}
    for Tbar in _column_permuted(T):
        res = _capelli_word_canonical(S, Tbar, pool)
        if res is None:
            continue
        sign, word = res
        add_term(acc, word, sign)
    return acc


def young_capelli(S, T, pool: int = 0) -> EnvelopingElement:
    """[S|box T]: column symmetrization of [S|T], the sum of the Capelli
    bitableaux [S|T'] over the column permutations T' of T."""
    S, T = _check_bitableau(S, T)
    return devirtualize(_yc_expansion(S, T, pool))


def double_young_capelli(S, T, pool: int = 0) -> EnvelopingElement:
    """[box S|T]: signed row symmetrization of Young-Capelli bitableaux, the
    sum of sign(pi) [S|box T'] over the row permutations T' = pi(T), times
    (-1)^(h(h-1)/2) for h = |shape|."""
    S, T = _check_bitableau(S, T)
    h = size(shape_of(S))
    global_sign = -1 if (h * (h - 1) // 2) % 2 else 1
    acc: EnvelopingElement = {}
    for sign, Ts in _row_permuted(T):
        add_into(acc, _yc_expansion(S, Ts, pool), global_sign * sign)
    return devirtualize(acc)


def schur_element(lam: Partition, n: int, pool: int = 0) -> CentralElement:
    """S_lam(n) = (1/H(lam~)) sum of [box S|S] over row-increasing tableaux S
    of shape lam~ with entries in 1..n."""
    lam = check_partition(lam)
    lam_t = conjugate(lam)
    if lam_t and lam_t[0] > n:
        raise ValueError(f"schur element needs at most n rows in the conjugate, got {lam_t[0]} > {n}")
    body: EnvelopingElement = {}
    for S in enumerate_row_increasing(lam_t, n):
        add_into(body, double_young_capelli(S, S, pool))
    body = scale(body, Fraction(1, hook_number(lam_t)))
    return CentralElement(body, n, f"S:{format_partition(lam)}@n={n}")


def capelli_H(k: int, n: int, pool: int = 0) -> CentralElement:
    """H_k(n): sum over increasing k-tuples of [i_k...i_1|i_1...i_k], all rows
    built on a single positive virtual symbol."""
    if not 1 <= k <= n:
        raise ValueError(f"H_k needs 1 <= k <= n, got k={k}, n={n}")
    a = alpha(1 + pool)
    words: EnvelopingElement = {}
    for idx in combinations(range(1, n + 1), k):
        word = tuple((i, a) for i in reversed(idx)) + tuple((a, i) for i in idx)
        words[word] = 1
    return CentralElement(devirtualize(words), n, f"H:{k}@n={n}")


def capelli_H_cdet(k: int, n: int) -> CentralElement:
    """H_k(n) as the sum of column determinants of the matrices
    [e_{i_r,i_s} + delta_{rs}(k-r)] over increasing k-tuples."""
    if not 1 <= k <= n:
        raise ValueError(f"H_k needs 1 <= k <= n, got k={k}, n={n}")
    body: EnvelopingElement = {}
    for idx in combinations(range(1, n + 1), k):
        _add_column_expansion(body, idx, lambda r, c: k - 1 - r if r == c else 0, permutation_sign)
    return CentralElement(pbw_normal_form(body), n, f"H:{k}@n={n}")


def _add_column_expansion(body: EnvelopingElement, idx: tuple, shift, weight) -> None:
    """Add to body the sum over permutations perm of weight(perm) times the
    column product M[perm[0]][0] ... M[perm[k-1]][k-1] of the k x k matrix
    M[r][c] = e_{idx_r, idx_c} + shift(r, c)."""
    k = len(idx)
    entries = [[_matrix_entry(idx[r], idx[c], shift(r, c)) for c in range(k)] for r in range(k)]
    for perm in permutations(range(k)):
        term = one()
        for c in range(k):
            term = elem_mul(term, entries[perm[c]][c])
        add_into(body, term, weight(perm))


def _matrix_entry(i: int, j: int, shift: int) -> EnvelopingElement:
    out: EnvelopingElement = {((i, j),): Fraction(1)}
    if shift:
        out[()] = Fraction(shift)
    return out


def _compositions(k: int, n: int):
    """All n-tuples of nonnegative integers summing to k."""
    if n == 1:
        yield (k,)
        return
    for first in range(k + 1):
        for rest in _compositions(k - first, n - 1):
            yield (first,) + rest


def nazarov_umeda_I(k: int, n: int, pool: int = 0) -> CentralElement:
    """I_k(n): multinomially weighted sum of the symmetric row elements
    [n^{h_n}...1^{h_1}|1^{h_1}...n^{h_n}]* built on one negative virtual
    symbol."""
    if k < 1:
        raise ValueError(f"I_k needs k >= 1, got k={k}")
    b = beta(1 + pool)
    words: EnvelopingElement = {}
    for hs in _compositions(k, n):
        word = tuple(
            (j, b) for j in range(n, 0, -1) for _ in range(hs[j - 1])
        ) + tuple((b, j) for j in range(1, n + 1) for _ in range(hs[j - 1]))
        coeff = Fraction(1)
        for hj in hs:
            coeff /= factorial(hj)
        words[word] = coeff
    return CentralElement(devirtualize(words), n, f"I:{k}@n={n}")


def nazarov_umeda_I_cper(k: int, n: int) -> CentralElement:
    """I_k(n) as the weighted sum of column permanents of the matrices
    [e_{i_r,i_s} - delta_{i_r,i_s}(k-s)] over weakly increasing k-tuples."""
    if k < 1:
        raise ValueError(f"I_k needs k >= 1, got k={k}")
    body: EnvelopingElement = {}
    for idx in combinations_with_replacement(range(1, n + 1), k):
        coeff = Fraction(1)
        for j in range(1, n + 1):
            coeff /= factorial(sum(1 for i in idx if i == j))
        _add_column_expansion(
            body,
            idx,
            lambda r, c: -(k - 1 - c) if idx[r] == idx[c] else 0,
            lambda perm: coeff,
        )
    return CentralElement(pbw_normal_form(body), n, f"I:{k}@n={n}")


def capelli_immanant(mu: Partition, left, right, pool: int = 0) -> EnvelopingElement:
    """Cimm_mu[left;right]: character-weighted sum over permutations pi of the
    column Capelli bitableaux [pi(left)|right]. Permuting the right word
    instead gives the same element; the tests check that."""
    mu = check_partition(mu)
    left, right = tuple(left), tuple(right)
    h = len(left)
    if len(right) != h or size(mu) != h:
        raise ValueError("immanant needs |mu| = len(left) = len(right)")
    for x in left + right:
        if not (is_proper(x) and x >= 1):
            raise ValueError(f"immanant words use proper letters, got {x!r}")
    words: EnvelopingElement = {}
    right_block = tuple((alpha(r + 1 + pool), right[r]) for r in range(h))
    for perm in permutations(range(h)):
        chi = sym_character(mu, permutation_cycle_type(perm))
        if chi:
            left_block = tuple((left[perm[r]], alpha(r + 1 + pool)) for r in range(h))
            add_term(words, left_block + right_block, chi)
    return devirtualize(words)


def eigenvalue(x: CentralElement, mu: Partition) -> Fraction:
    """Scalar by which x acts on the canonical highest weight vector of
    weight mu (the Deruyts-pair bitableau of the conjugate shape)."""
    mu = check_partition(mu)
    if len(mu) > x.n:
        raise ValueError(f"weight needs at most n={x.n} rows, got {len(mu)}")
    mu_t = conjugate(mu)
    d = mu_t[0] if mu_t else 1
    v = highest_weight_vector(mu_t, x.n, d)
    w = act(x.body, v)
    if not w:
        return Fraction(0)
    mono = next(iter(v))
    ratio = Fraction(w.get(mono, 0)) / v[mono]
    if w != scale(v, ratio):
        raise ValueError("image is not a scalar multiple of the highest weight vector")
    return ratio


def olshanski_project(x: CentralElement) -> CentralElement:
    """Projection from the center at n to the center at n-1: drop every PBW
    monomial containing a generator whose column index is n; a surviving
    row index n signals input outside the centralizer."""
    n = x.n
    if n < 1:
        raise ValueError("nothing to project")
    body: EnvelopingElement = {}
    for word, coeff in x.body.items():
        if any(b == n for _, b in word):
            continue
        if any(a == n for a, _ in word):
            raise ValueError("monomial with a lone row index n: input is not in the centralizer")
        body[word] = coeff
    return CentralElement(body, n - 1, f"project({x.provenance})")


def _polynomial_body(coeffs: dict, n: int, generator) -> EnvelopingElement:
    """PBW form of the polynomial coeffs (multisets of k to coefficients) in
    the elements generator(k, n)."""
    body: EnvelopingElement = {}
    for key, c in coeffs.items():
        term = one()
        for k in key:
            term = elem_mul(term, generator(k, n).body)
        add_into(body, term, c)
    return pbw_normal_form(body)


def embed(x: CentralElement) -> CentralElement:
    """The stable embedding of centers one dimension up: express x as a
    polynomial in H_1..H_n through its Harish-Chandra image and rebuild the
    same polynomial in H_1..H_n at n+1."""
    coeffs = express_in_estar_basis(harish_chandra(x))
    return CentralElement(
        _polynomial_body(coeffs, x.n + 1, capelli_H), x.n + 1, f"embed({x.provenance})"
    )


def duality_W(x: CentralElement) -> CentralElement:
    """The duality automorphism: substitute H_k -> I_k through the e*-basis
    expression of the Harish-Chandra image."""
    coeffs = express_in_estar_basis(harish_chandra(x))
    return CentralElement(
        _polynomial_body(coeffs, x.n, nazarov_umeda_I), x.n, f"W({x.provenance})"
    )
