"""Exact linear algebra over the rationals (dense, desk scale).

Entries are ints or Fractions (any exact rational that `Fraction` accepts);
floats are rejected, because `Fraction(0.1)` is not one tenth. Results are
lists of Fractions, and inputs are never mutated.

`rank`, `solve_many` and `solve` first work modulo the prime P = 2**61 - 1
and return an answer only when exact integer arithmetic certifies it; the
rest goes to the Fraction Gauss-Jordan `_rref`, the only exact fallback.

- Each row of [A | b...] is scaled by the lcm of its denominators, which
  keeps the rank and the solution set.
- The rank over Q is at least the rank mod P, so a rank mod P of min(m, n)
  is the rank over Q.
- When A has rank n mod P, every system has at most one solution. Each
  right-hand side is solved mod P, lifted to Q by rational reconstruction
  and kept only if A x = b holds exactly over the integers; any other goes,
  with the other failures, through one exact `_rref`.

The method is that of Dixon (1982, p-adic solving) with one prime and an
exact check in place of lifting.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm

P = (1 << 61) - 1
# Rational reconstruction bound: x = r/s with |r|, s <= _BOUND is unique mod P.
_BOUND = isqrt(P // 2)


def _rref(rows, ncols):
    """In-place reduced row echelon form; returns pivot column list."""
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def _exact(x):
    if type(x) is int or type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError(f"float entry {x!r}: linalg needs exact rationals")
    return Fraction(x)


def _augmented(a, bs):
    """A copy of [A | b...] as rows of ints and Fractions, and the column
    count of A; rejects ragged rows and right-hand sides of the wrong length."""
    n = len(a[0]) if a else 0
    rows = []
    for row in a:
        if len(row) != n:
            raise ValueError(f"row of length {len(row)} in a matrix with {n} columns")
        rows.append([_exact(x) for x in row])
    for b in bs:
        if len(b) != len(a):
            raise ValueError(f"right-hand side of length {len(b)} for {len(a)} equations")
        for row, x in zip(rows, b):
            row.append(_exact(x))
    return rows, n


def _integer_rows(rows):
    """Each row times the lcm of its denominators: the same row space."""
    out = []
    for row in rows:
        d = lcm(*(x.denominator for x in row))
        out.append([x.numerator * (d // x.denominator) for x in row])
    return out


def _eliminate_mod(rows, ncols):
    """In-place Gauss-Jordan mod P over the first ncols columns, pivots
    scaled to 1; returns the pivot column list."""
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], -1, P)
        # columns left of c are zero in the pivot row, so only its tail works
        tail = [x * inv % P for x in rows[r][c:]]
        rows[r][c:] = tail
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                row[c:] = [(x - f * y) % P for x, y in zip(row[c:], tail)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def _reconstruct(x):
    """The Fraction r/s with r = s*x mod P and |r|, s <= _BOUND, or None."""
    r0, r1, s0, s1 = P, x, 0, 1
    while r1 > _BOUND:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if s1 < 0:
        r1, s1 = -r1, -s1
    return Fraction(r1, s1) if s1 <= _BOUND else None


def _checked_solution(reduced, ints, columns, col):
    """The solution for right-hand side column col of a rank-n system, lifted
    from the reduced rows mod P and checked over the integers, or None.

    columns[j] lists the nonzero (row, entry) of column j of the integer
    rows ints, which reduced is the Gauss-Jordan form of mod P."""
    n = len(columns)
    if any(row[col] for row in reduced[n:]):
        return None
    x = []
    for row in reduced[:n]:
        v = _reconstruct(row[col])
        if v is None:
            return None
        x.append(v)
    d = lcm(*(v.denominator for v in x))
    image = [0] * len(ints)
    for j, v in enumerate(x):
        if v:
            scaled = v.numerator * (d // v.denominator)
            for i, entry in columns[j]:
                image[i] += entry * scaled
    if any(image[i] != d * row[col] for i, row in enumerate(ints)):
        return None
    return x


def _solve_exact(rows, n, k):
    """Solutions of the k right-hand sides after column n, by `_rref`."""
    m = len(rows)
    rows = [[Fraction(x) for x in row] for row in rows]
    pivots = _rref(rows, n)
    sols = []
    for t in range(k):
        col = n + t
        if any(rows[i][col] for i in range(len(pivots), m)):
            sols.append(None)
            continue
        x = [Fraction(0)] * n
        for r, c in enumerate(pivots):
            x[c] = rows[r][col]
        sols.append(x)
    return sols


def rank(a) -> int:
    """The rank of a over Q."""
    rows, n = _augmented(a, ())
    reduced = [[x % P for x in row] for row in _integer_rows(rows)]
    r = len(_eliminate_mod(reduced, n))
    if r == min(len(rows), n):
        return r
    return len(_rref([[Fraction(x) for x in row] for row in rows], n))


def solve_many(a, bs):
    """Solve a x = b for each column b in bs, sharing one elimination.

    Returns a list with one solution (list of Fractions, free variables 0)
    per right-hand side, or None in place of any inconsistent system.
    """
    rows, n = _augmented(a, bs)
    ints = _integer_rows(rows)
    reduced = [[x % P for x in row] for row in ints]
    if len(_eliminate_mod(reduced, n)) < n:
        return _solve_exact(rows, n, len(bs))
    # rank n: a solution is unique, so a checked one is the RREF answer
    columns = [[(i, row[j]) for i, row in enumerate(ints) if row[j]] for j in range(n)]
    sols = [_checked_solution(reduced, ints, columns, n + t) for t in range(len(bs))]
    failed = [t for t, x in enumerate(sols) if x is None]
    if failed:
        rest = [row[:n] + [row[n + t] for t in failed] for row in rows]
        for t, x in zip(failed, _solve_exact(rest, n, len(failed))):
            sols[t] = x
    return sols


def solve(a, b):
    """Solve a x = b exactly; None when inconsistent."""
    if not a:
        return None if any([_exact(x) for x in b]) else []
    return solve_many(a, [b])[0]
