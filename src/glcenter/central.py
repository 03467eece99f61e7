"""Named elements of the center of U(gl(n)) and the maps between centers.

Constructions route through virtual symbols: a Capelli bitableau [S|T] is the
devirtualized image of e_{S,C*} e_{C*,T}, where the Coderuyts tableau C* has
the positive symbol alpha_r on row r; `_left_block` and `_right_block` write
the words of every constructor. The image does not depend on which virtual
symbols are chosen, so no constructor takes an offset for them. A
Young-Capelli bitableau [S|box T] is built as its expansion, the column
symmetrization of Capelli words, and a double Young-Capelli bitableau
[box S|T] as the signed row symmetrization of Young-Capelli expansions; each
constructor devirtualizes one combination of words. The paper's direct
virtual words, with the virtual-Deruyts exchange blocks e_{C*,D*} and
e_{D*,C*}, are the reference the tests compare against. Schur elements are
normalized sums of double Young-Capelli bitableaux [box S|S] and specialize
to the determinantal generators H_k(n) (column shapes) and the permanental
generators I_k(n) (row shapes). H_k(n) and I_k(n) are one row construction,
made on a positive and on a negative virtual symbol. `schur_element_hc`
builds the same element as the Harish-Chandra preimage of s*_lam, the route
the CLI takes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product
from math import factorial, prod

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
    check_letters,
    devirtualize,
    elem_mul,
    gen_key,
    one,
    pbw_normal_form,
)
from .lincomb import add_into, add_term, prefix_product, scale
from .shifted import _harish_chandra_peeled, express_in_estar_basis, s_star
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


def _left_block(S: Tableau, virtual=alpha) -> tuple:
    """e_{S,C*}, where row r of C* repeats the virtual symbol virtual(r)."""
    return tuple((x, virtual(r + 1)) for r, row in enumerate(S) for x in row)


def _right_block(T: Tableau, virtual=alpha) -> tuple:
    """e_{C*,T}."""
    return tuple((virtual(r + 1), x) for r, row in enumerate(T) for x in row)


def capelli_bitableau(S, T) -> EnvelopingElement:
    """[S|T]: image of e_{S,C*} e_{C*,T}; central only in aggregate sums."""
    S, T = _check_bitableau(S, T)
    return devirtualize({_left_block(S) + _right_block(T): 1})


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


def _sorted_odd(factors: tuple):
    """(sign, factors sorted by key) for pairwise-anticommuting odd
    generators; None when a factor repeats (an odd element squares to zero)."""
    keys = [gen_key(g) for g in factors]
    if len(set(keys)) < len(keys):
        return None
    return permutation_sign(keys), tuple(g for _, g in sorted(zip(keys, factors)))


def _yc_expansion(S: Tableau, T: Tableau) -> EnvelopingElement:
    """Column-symmetrized sum of Capelli words, not yet devirtualized; the
    blocks e_{S,C*} and e_{C*,T'} of each word sort independently."""
    acc: EnvelopingElement = {}
    left = _sorted_odd(_left_block(S))
    if left is None:
        return acc
    for Tbar in _column_permuted(T):
        right = _sorted_odd(_right_block(Tbar))
        if right is not None:
            add_term(acc, left[1] + right[1], left[0] * right[0])
    return acc


def young_capelli(S, T) -> EnvelopingElement:
    """[S|box T]: column symmetrization of [S|T], the sum of the Capelli
    bitableaux [S|T'] over the column permutations T' of T."""
    S, T = _check_bitableau(S, T)
    return devirtualize(_yc_expansion(S, T))


def double_young_capelli(S, T) -> EnvelopingElement:
    """[box S|T]: signed row symmetrization of Young-Capelli bitableaux, the
    sum of sign(pi) [S|box T'] over the row permutations T' = pi(T), times
    (-1)^(h(h-1)/2) for h = |shape|."""
    S, T = _check_bitableau(S, T)
    h = size(shape_of(S))
    global_sign = -1 if (h * (h - 1) // 2) % 2 else 1
    acc: EnvelopingElement = {}
    for sign, Ts in _row_permuted(T):
        add_into(acc, _yc_expansion(S, Ts), global_sign * sign)
    return devirtualize(acc)


def _schur_shape(lam: Partition, n: int) -> tuple:
    """(lam, lam~) after checking that lam is a partition and that lam~ has
    at most n rows, the condition for S_lam(n) to be defined."""
    lam = check_partition(lam)
    lam_t = conjugate(lam)
    if lam_t and lam_t[0] > n:
        raise ValueError(f"schur element needs at most n rows in the conjugate, got {lam_t[0]} > {n}")
    return lam, lam_t


def schur_element(lam: Partition, n: int) -> CentralElement:
    """S_lam(n) = (1/H(lam~)) sum of [box S|S] over row-increasing tableaux S
    of shape lam~ with entries in 1..n. This is the definition, which
    `verify` and the tests build S by."""
    lam, lam_t = _schur_shape(lam, n)
    body: EnvelopingElement = {}
    for S in enumerate_row_increasing(lam_t, n):
        add_into(body, double_young_capelli(S, S))
    body = scale(body, Fraction(1, hook_number(lam_t)))
    return CentralElement(body, n, f"S:{format_partition(lam)}@n={n}")


def schur_element_hc(lam: Partition, n: int) -> CentralElement:
    """S_lam(n) as the Harish-Chandra preimage of s*_lam(n), the paper's main
    theorem: s*_lam as a polynomial in e*_1..e*_n, evaluated in H_1..H_n. It
    equals `schur_element` and is far cheaper, but a check of that theorem
    must build S by `schur_element`, or it holds by construction."""
    lam, _ = _schur_shape(lam, n)
    body = _polynomial_body(express_in_estar_basis(s_star(lam, n)), n, capelli_H)
    return CentralElement(body, n, f"S:{format_partition(lam)}@n={n}")


def _one_row(tuples, virtual, weight) -> EnvelopingElement:
    """Image of the sum of weight(idx) [idx reversed|idx] over idx in tuples,
    one row on the single virtual symbol virtual(1)."""
    words = {_left_block((i[::-1],), virtual) + _right_block((i,), virtual): weight(i) for i in tuples}
    return devirtualize(words)


def capelli_H(k: int, n: int) -> CentralElement:
    """H_k(n): sum over increasing k-tuples of [i_k...i_1|i_1...i_k], all rows
    built on a single positive virtual symbol."""
    if not 1 <= k <= n:
        raise ValueError(f"H_k needs 1 <= k <= n, got k={k}, n={n}")
    body = _one_row(combinations(range(1, n + 1), k), alpha, lambda idx: 1)
    return CentralElement(body, n, f"H:{k}@n={n}")


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
    out: EnvelopingElement = {((i, j),): 1}
    if shift:
        out[()] = shift
    return out


def _multiplicity_weight(idx: tuple) -> Fraction:
    """1/(h_1! ... h_n!), where h_j counts the entries of idx equal to j."""
    return Fraction(1, prod(map(factorial, Counter(idx).values())))


def nazarov_umeda_I(k: int, n: int) -> CentralElement:
    """I_k(n): multinomially weighted sum of the symmetric row elements
    [n^{h_n}...1^{h_1}|1^{h_1}...n^{h_n}]* built on one negative virtual
    symbol, one per weakly increasing k-tuple with h_j entries equal to j."""
    if k < 1:
        raise ValueError(f"I_k needs k >= 1, got k={k}")
    body = _one_row(combinations_with_replacement(range(1, n + 1), k), beta, _multiplicity_weight)
    return CentralElement(body, n, f"I:{k}@n={n}")


def nazarov_umeda_I_cper(k: int, n: int) -> CentralElement:
    """I_k(n) as the weighted sum of column permanents of the matrices
    [e_{i_r,i_s} - delta_{i_r,i_s}(k-s)] over weakly increasing k-tuples."""
    if k < 1:
        raise ValueError(f"I_k needs k >= 1, got k={k}")
    body: EnvelopingElement = {}
    for idx in combinations_with_replacement(range(1, n + 1), k):
        coeff = _multiplicity_weight(idx)
        _add_column_expansion(
            body,
            idx,
            lambda r, c: -(k - 1 - c) if idx[r] == idx[c] else 0,
            lambda perm: coeff,
        )
    return CentralElement(pbw_normal_form(body), n, f"I:{k}@n={n}")


def capelli_immanant(mu: Partition, left, right) -> EnvelopingElement:
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
    right_block = _right_block([(x,) for x in right])
    for perm in permutations(range(h)):
        chi = sym_character(mu, permutation_cycle_type(perm))
        if chi:
            add_term(words, _left_block([(left[r],) for r in perm]) + right_block, chi)
    return devirtualize(words)


def eigenvalue(x: CentralElement, mu: Partition) -> Fraction:
    """Scalar by which x acts on the canonical highest weight vector of
    weight mu (the Deruyts-pair bitableau of the conjugate shape)."""
    mu = check_partition(mu)
    if len(mu) > x.n:
        raise ValueError(f"weight needs at most n={x.n} rows, got {len(mu)}")
    v = highest_weight_vector(conjugate(mu), x.n)
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
    monomial containing a generator whose column index is n. Every central
    element has weight zero, so a monomial whose row indices differ from its
    column indices as multisets signals non-central input; the check is
    necessary, not sufficient (e12 e21 passes)."""
    n = x.n
    if n < 1:
        raise ValueError("nothing to project")
    check_letters(x.body, n)
    body: EnvelopingElement = {}
    for word, coeff in x.body.items():
        cols = [b for _, b in word]
        if sorted(a for a, _ in word) != sorted(cols):
            raise ValueError("monomial of nonzero weight: input is not central")
        if n not in cols:
            body[word] = coeff
    return CentralElement(body, n - 1, f"project({x.provenance})")


def _polynomial_body(coeffs: dict, n: int, generator) -> EnvelopingElement:
    """PBW form of the polynomial coeffs (multisets of k to coefficients) in
    the elements generator(k, n), each built once. The product of a key is
    built stepwise, as the PBW form of its prefix key[:-1] times generator
    key[-1], normalized at once. The prefix products are kept for the call,
    so keys that share a prefix share its product."""
    gens = {k: generator(k, n).body for k in set().union(*coeffs)}
    products = {(): one()}
    body: EnvelopingElement = {}
    for key, c in coeffs.items():
        term = prefix_product(products, key, gens, lambda x, y: pbw_normal_form(elem_mul(x, y)))
        add_into(body, term, c)
    return body


def embed(x: CentralElement) -> CentralElement:
    """The stable embedding of centers one dimension up: express x as a
    polynomial in H_1..H_n through its Harish-Chandra image and rebuild the
    same polynomial in H_1..H_n at n+1."""
    coeffs = _harish_chandra_peeled(x)[1]
    return CentralElement(
        _polynomial_body(coeffs, x.n + 1, capelli_H), x.n + 1, f"embed({x.provenance})"
    )


def duality_W(x: CentralElement) -> CentralElement:
    """The duality automorphism: substitute H_k -> I_k through the e*-basis
    expression of the Harish-Chandra image."""
    coeffs = _harish_chandra_peeled(x)[1]
    return CentralElement(
        _polynomial_body(coeffs, x.n, nazarov_umeda_I), x.n, f"W({x.provenance})"
    )
