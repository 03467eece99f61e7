"""Named elements of the center of U(gl(n)) and the maps between centers.

Constructions route through virtual symbols: a Capelli bitableau [S|T] is the
devirtualized image of e_{S,C*} e_{C*,T}, where the Coderuyts tableau C* has
the positive symbol alpha_r on row r; `_left_block` and `_right_block` write
the words of every constructor. The image does not depend on which virtual
symbols are chosen, so no constructor takes an offset for them. A
Young-Capelli bitableau [S|box T] is the column symmetrization of Capelli
words, and a double Young-Capelli bitableau [box S|T] the signed row
symmetrization of Young-Capelli bitableaux. `_symmetrizer` runs the group
once per shape into a table of the cells each row of C* reads and their
summed signs, and the words for one (S, T) are read off that table;
each piece of `schur_element` builds one table for all its S. Each
bitableau constructor devirtualizes one combination of words. The tests
compare with two references: the full group enumeration, one sorted word
per group element, and the paper's direct virtual words, with the
virtual-Deruyts exchange blocks e_{C*,D*} and e_{D*,C*}.

Schur elements are normalized sums of double Young-Capelli bitableaux
[box S|S] and specialize to the determinantal generators H_k(n) (column
shapes) and the permanental generators I_k(n) (row shapes). H_k(n) and
I_k(n) are one row construction, made on a positive and on a negative
virtual symbol. `schur_element` sums the definition by letter set: an
order-preserving relabeling of the proper letters commutes with
devirtualization and the PBW sort, so the S whose letters are exactly
{1..m} give one piece B_m(lam), independent of n, and every m-subset of
{1..n} is a relabeled copy of it. A piece takes one S per orbit of swaps
of equal-length rows, times the orbit size. `verify` shares the pieces.
H_k(n) and I_k(n) are summed by letter set too, over their index tuples,
and `_relabeled_sum` is the one relabeling route of all three. All three
stay in int: each piece is divided exactly by H(lam~), or by k!; the I_k
reference `nazarov_umeda_I_cper` weights by `_multinomial` and divides once.
`schur_element_hc` builds the same element as the Harish-Chandra preimage
of s*_lam, the route the CLI takes.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, groupby, permutations, product
from math import factorial, prod
from typing import NamedTuple

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


class CentralElement(NamedTuple):
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


def _sorted_odd(factors: tuple):
    """(sign, factors sorted by key) for pairwise-anticommuting odd
    generators; None when a factor repeats (an odd element squares to zero)."""
    keys = [gen_key(g) for g in factors]
    if len(set(keys)) < len(keys):
        return None
    return permutation_sign(keys), tuple(g for _, g in sorted(zip(keys, factors)))


def _symmetrizer(shape: Partition, rows: bool) -> list:
    """The column symmetrizer of a shape, after the signed row symmetrizer
    times (-1)^(h(h-1)/2), h = |shape|, when rows is set, as a table of
    (cells, coefficient). A group element pi sends T to T' = pi(T); cells
    lists, for each row of T', the sorted positions (i, j) of T whose entries
    fill that row. The coefficient sums sign(pi) times the sign that sorts
    each row's positions from column order, over the pi that give these
    cells; an entry whose sum is 0 is dropped."""
    h = size(shape)
    global_sign = -1 if rows and h * (h - 1) // 2 % 2 else 1
    row_perms = (permutations(range(length)) for length in shape)
    row_group = product(*row_perms) if rows else [tuple(map(range, shape))]
    table: dict = {}
    for rhos in row_group:
        sign = global_sign * prod(map(permutation_sign, rhos))
        for sigmas in product(*(permutations(range(height)) for height in conjugate(shape))):
            key, s = [], sign
            for r, length in enumerate(shape):
                # T'[r][c] = T[i][rho_i(c)] with i = sigma_c(r)
                cells = [(sigmas[c][r], rhos[sigmas[c][r]][c]) for c in range(length)]
                s *= permutation_sign(cells)
                key.append(tuple(sorted(cells)))
            add_term(table, tuple(key), s)
    return list(table.items())


def _symmetrized_words(table: list, S: Tableau, T: Tableau) -> EnvelopingElement:
    """The words of [S|T] symmetrized by a `_symmetrizer` table: e_{S,C*}
    sorted, then row r of C* against the entries of T at the cells of row r,
    sorted. A row that repeats a letter makes its word zero."""
    words: EnvelopingElement = {}
    left = _sorted_odd(_left_block(S))
    if left is None:
        return words
    for cells, coeff in table:
        sign, sorted_rows = left[0] * coeff, []
        for row in cells:
            letters = [T[i][j] for i, j in row]
            if len(set(letters)) < len(letters):
                break
            sign *= permutation_sign(letters)
            sorted_rows.append(sorted(letters))
        else:
            add_term(words, left[1] + _right_block(sorted_rows), sign)
    return words


def young_capelli(S, T) -> EnvelopingElement:
    """[S|box T]: column symmetrization of [S|T], the sum of the Capelli
    bitableaux [S|T'] over the column permutations T' of T."""
    S, T = _check_bitableau(S, T)
    return devirtualize(_symmetrized_words(_symmetrizer(shape_of(T), rows=False), S, T))


def double_young_capelli(S, T) -> EnvelopingElement:
    """[box S|T]: signed row symmetrization of Young-Capelli bitableaux, the
    sum of sign(pi) [S|box T'] over the row permutations T' = pi(T), times
    (-1)^(h(h-1)/2) for h = |shape|."""
    S, T = _check_bitableau(S, T)
    return devirtualize(_symmetrized_words(_symmetrizer(shape_of(T), rows=True), S, T))


def _schur_shape(lam: Partition, n: int) -> tuple:
    """(lam, lam~) after checking that lam is a partition with at most n
    rows, the condition for S_lam(n) to be defined."""
    lam = check_partition(lam)
    if len(lam) > n:
        raise ValueError(f"schur element needs at most n rows in lambda, got {len(lam)} > {n}")
    return lam, conjugate(lam)


def schur_element(lam: Partition, n: int, pieces: dict | None = None) -> CentralElement:
    """S_lam(n) = (1/H(lam~)) sum of [box S|S] over row-increasing tableaux S
    of shape lam~ with entries in 1..n. This is the definition, which
    `verify` and the tests build S by, summed by letter set:

        S_lam(n) = sum over A in {1..n} of f_A(B_|A|(lam) / H(lam~)),

    where the piece B_m(lam) is the image of the [box S|S] whose letter set
    is exactly {1..m}, and f_A relabels letter i as the i-th smallest element
    of A. f_A preserves the order of letters, so it maps those S onto the S
    with letter set A, and it commutes with devirtualization and the PBW
    sort: brackets only test letters for equality, `pbw_key` only compares
    them, and the signs depend on symbol classes and sort parities alone.
    So f_A of a PBW-normal word is PBW-normal, and relabeling needs no
    normalization. B_m does not depend on n, and it is zero unless
    l(lam) <= m <= |lam|. A caller that builds S at several n passes one
    dict as pieces, keyed by (lam, m); it is read and filled, and no piece
    is handed out."""
    lam, lam_t = _schur_shape(lam, n)
    if pieces is None:
        pieces = {}
    ms = range(len(lam), min(size(lam), n) + 1)
    for m in ms:
        if (lam, m) not in pieces:
            pieces[lam, m] = _schur_piece(lam_t, m)
    body = _relabeled_sum([(m, pieces[lam, m]) for m in ms], n)
    return CentralElement(body, n, f"S:{format_partition(lam)}@n={n}")


def _relabeled_sum(pieces: list, n: int) -> EnvelopingElement:
    """The sum over (m, piece) in pieces and over the m-subsets A of {1..n}
    of f_A(piece), where the piece has letters 1..m and f_A relabels letter
    i as the i-th smallest element of A. The result is a new combination."""
    body: EnvelopingElement = {}
    for m, piece in pieces:
        for A in combinations(range(1, n + 1), m):
            f = (0,) + A
            add_into(body, {tuple((f[a], f[b]) for a, b in word): c for word, c in piece.items()})
    return body


def _schur_piece(lam_t: Partition, m: int) -> EnvelopingElement:
    """B_m / H(lam~), where B_m is the sum of the images of [box S|S] over
    the row-increasing S of shape lam~ whose letter set is exactly {1..m},
    summed over `_row_orbits` in one devirtualization. H(lam~) divides B_m
    exactly, so S_lam(n) stays in int. Swapping rows r, r' of S of equal
    length L, in both blocks, only swaps the names of alpha_r and alpha_r':
    the two groups of L odd factors trade places with the same sign in the
    left and the right block, which cancels; the row symmetrizer of lam~
    is invariant under the swap, as the rows have equal length; and the
    image does not depend on the virtual symbols chosen. So [box S|S] is
    constant on an orbit."""
    table = _symmetrizer(lam_t, rows=True)
    words: EnvelopingElement = {}
    for S, weight in _row_orbits(lam_t, m):
        add_into(words, _symmetrized_words(table, S, S), weight)
    return _divide_exact(devirtualize(words), hook_number(lam_t))


def _row_orbits(lam_t: Partition, m: int):
    """(S, orbit size) for the row-increasing S of shape lam~ with letter
    set exactly {1..m} whose rows are sorted within each block of
    equal-length rows; the orbit permutes the rows of each block, and
    its size is the product over blocks of their `_multinomial`."""
    for S in enumerate_row_increasing(lam_t, m):
        blocks = [list(b) for _, b in groupby(S, len)]
        if len({x for row in S for x in row}) == m and all(b == sorted(b) for b in blocks):
            yield S, prod(map(_multinomial, blocks))


def _divide_exact(piece: EnvelopingElement, d: int) -> EnvelopingElement:
    """piece / d for int coefficients; one that d does not divide raises."""
    if any(c % d for c in piece.values()):
        raise ValueError(f"a piece coefficient is not divisible by {d}")
    return {word: c // d for word, c in piece.items()}


def schur_element_hc(lam: Partition, n: int) -> CentralElement:
    """S_lam(n) as the Harish-Chandra preimage of s*_lam(n), the paper's main
    theorem: s*_lam as a polynomial in e*_1..e*_n, evaluated in H_1..H_n. It
    equals `schur_element` and is far cheaper, but a check of that theorem
    must build S by `schur_element`, or it holds by construction."""
    lam, _ = _schur_shape(lam, n)
    body = _polynomial_body(express_in_estar_basis(s_star(lam, n)), n, capelli_H)
    return CentralElement(body, n, f"S:{format_partition(lam)}@n={n}")


def _one_row(tuples, k: int, n: int, virtual) -> EnvelopingElement:
    """Image of the sum of [idx reversed|idx] / (h_1! ... h_n!) over idx in
    tuples(range(1, n + 1), k), h_j the number of entries equal to j, one
    row on the single virtual symbol virtual(1), summed by letter set as in
    `schur_element`: the idx whose letter set is exactly {1..m} give one
    piece, relabeled onto every m-subset of {1..n}. A piece weights each
    word by the int `_multinomial` k!/(h_1! ... h_n!), which relabeling
    keeps, and is divided by k! exactly once devirtualized, so the result
    stays in int."""
    pieces = []
    for m in range(1, min(k, n) + 1):
        words = {
            _left_block((i[::-1],), virtual) + _right_block((i,), virtual): _multinomial(i)
            for i in tuples(range(1, m + 1), k)
            if len(set(i)) == m
        }
        if words:
            pieces.append((m, _divide_exact(devirtualize(words), factorial(k))))
    return _relabeled_sum(pieces, n)


def capelli_H(k: int, n: int) -> CentralElement:
    """H_k(n): sum over increasing k-tuples of [i_k...i_1|i_1...i_k], all rows
    built on a single positive virtual symbol."""
    if not 1 <= k <= n:
        raise ValueError(f"H_k needs 1 <= k <= n, got k={k}, n={n}")
    body = _one_row(combinations, k, n, alpha)
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


def _multinomial(idx: tuple) -> int:
    """The number of distinct rearrangements of idx, k!/(h_1! ... h_n!)."""
    return factorial(len(idx)) // prod(map(factorial, Counter(idx).values()))


def nazarov_umeda_I(k: int, n: int) -> CentralElement:
    """I_k(n): multinomially weighted sum of the symmetric row elements
    [n^{h_n}...1^{h_1}|1^{h_1}...n^{h_n}]* built on one negative virtual
    symbol, one per weakly increasing k-tuple with h_j entries equal to j."""
    if k < 1:
        raise ValueError(f"I_k needs k >= 1, got k={k}")
    body = _one_row(combinations_with_replacement, k, n, beta)
    return CentralElement(body, n, f"I:{k}@n={n}")


def nazarov_umeda_I_cper(k: int, n: int) -> CentralElement:
    """I_k(n) as the sum of column permanents of the matrices
    [e_{i_r,i_s} - delta_{i_r,i_s}(k-s)] over weakly increasing k-tuples,
    each weighted by the int `_multinomial`; the normalized sum is divided
    by k! once, as in `_one_row`. It never devirtualizes or relabels."""
    if k < 1:
        raise ValueError(f"I_k needs k >= 1, got k={k}")
    body: EnvelopingElement = {}
    for idx in combinations_with_replacement(range(1, n + 1), k):
        coeff = _multinomial(idx)
        _add_column_expansion(
            body,
            idx,
            lambda r, c: -(k - 1 - c) if idx[r] == idx[c] else 0,
            lambda perm: coeff,
        )
    return CentralElement(_divide_exact(pbw_normal_form(body), factorial(k)), n, f"I:{k}@n={n}")


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
