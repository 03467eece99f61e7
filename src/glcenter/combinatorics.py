"""Partitions, tableaux, hooks, strips, and symmetric group characters.

Conventions used throughout the package:

- a partition is a tuple of weakly decreasing positive integers, () is empty
- a cell is a pair (row, col), 1-based
- a tableau is a tuple of row tuples; entries are proper letters (positive
  integers) or virtual symbols (see glcenter.superspace)
- a horizontal strip is any set of cells with no two in the same column
  (cells need not be contiguous); its components are the maximal groups of
  cells lying on one row; vertical strips are the transpose notion
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache
from math import factorial
from typing import Iterable, NamedTuple

Partition = tuple[int, ...]
Cell = tuple[int, int]
Tableau = tuple[tuple, ...]


class Strip(NamedTuple):
    cells: tuple[Cell, ...]
    orientation: str  # "horizontal" or "vertical"


def is_partition(parts: Iterable[int]) -> bool:
    p = tuple(parts)
    return all(isinstance(x, int) and x > 0 for x in p) and all(
        p[i] >= p[i + 1] for i in range(len(p) - 1)
    )


def check_partition(lam: Partition) -> Partition:
    lam = tuple(lam)
    if not is_partition(lam):
        raise ValueError(f"not a partition: {lam!r}")
    return lam


def parse_partition(s: str) -> Partition:
    """Parse "2,1" into (2, 1); the empty string is the empty partition."""
    s = s.strip()
    if not s:
        return ()
    try:
        return check_partition(int(x) for x in s.split(","))
    except ValueError:
        raise ValueError(f"not a partition: {s!r}") from None


def format_partition(lam: Partition) -> str:
    return ",".join(str(x) for x in lam)


def size(lam: Partition) -> int:
    return sum(lam)


def conjugate(lam: Partition) -> Partition:
    lam = tuple(lam)
    if not lam:
        return ()
    return tuple(sum(1 for part in lam if part >= j) for j in range(1, lam[0] + 1))


def partitions_of(total: int, cap: int | None = None) -> list[Partition]:
    """All partitions of total with parts at most cap, largest part first."""
    cap = total if cap is None else cap
    if total == 0:
        return [()]
    out = []
    for first in range(min(total, cap), 0, -1):
        out.extend((first,) + rest for rest in partitions_of(total - first, first))
    return out


def partitions_upto(m: int, include_empty: bool = True) -> list[Partition]:
    """All partitions of size 0..m (1..m without the empty one), by size and
    largest part first within a size."""
    out = [()] if include_empty else []
    for total in range(1, m + 1):
        out.extend(partitions_of(total))
    return out


def contains(lam: Partition, mu: Partition) -> bool:
    """True iff the diagram of lam fits inside the diagram of mu."""
    return len(lam) <= len(mu) and all(l <= m for l, m in zip(lam, mu))


def cells(lam: Partition) -> list[Cell]:
    return [(i, j) for i, part in enumerate(lam, 1) for j in range(1, part + 1)]


def hook_number(lam: Partition) -> int:
    """Product of hook lengths over all cells; equal for conjugate shapes."""
    lam = tuple(lam)
    conj = conjugate(lam)
    h = 1
    for i, j in cells(lam):
        h *= lam[i - 1] - j + conj[j - 1] - i + 1
    return h


def shape_of(t: Tableau) -> Partition:
    return tuple(len(row) for row in t)


def _fillings(shape: Partition, rows, below) -> list[Tableau]:
    """Sorted list of the tableaux of the given shape whose rows of length m
    are the tuples of rows(m) and whose vertically adjacent cells a over b
    satisfy below(a, b)."""
    out: list[Tableau] = [()]
    for length in shape:
        choices = list(rows(length))
        out = [t + (row,) for t in out for row in choices if not t or all(map(below, t[-1], row))]
    return sorted(out)


def enumerate_row_increasing(shape: Partition, n: int) -> list[Tableau]:
    """All tableaux of the given shape over {1..n} with each row strictly
    increasing; rows are unconstrained against each other."""
    return _fillings(shape, lambda m: itertools.combinations(range(1, n + 1), m), lambda a, b: True)


def _strips(lam: Partition, k: int, orientation: str) -> list[Strip]:
    # group cells by the axis no two strip cells may share
    axis = 1 if orientation == "horizontal" else 0
    groups: dict[int, list[Cell]] = {}
    for c in cells(lam):
        groups.setdefault(c[axis], []).append(c)
    keys = sorted(groups)
    out = []
    for chosen in itertools.combinations(keys, k):
        for picks in itertools.product(*(groups[key] for key in chosen)):
            out.append(Strip(tuple(sorted(picks)), orientation))
    out.sort(key=lambda s: s.cells)
    return out


def enumerate_horizontal_strips(mu: Partition, k: int) -> list[Strip]:
    return _strips(mu, k, "horizontal")


def enumerate_vertical_strips(mu: Partition, k: int) -> list[Strip]:
    return _strips(mu, k, "vertical")


def strip_factorial(strip: Strip) -> int:
    axis = 0 if strip.orientation == "horizontal" else 1
    sizes: dict[int, int] = {}
    for c in strip.cells:
        sizes[c[axis]] = sizes.get(c[axis], 0) + 1
    out = 1
    for m in sizes.values():
        out *= factorial(m)
    return out


def enumerate_rssyt(lam: Partition, n: int) -> list[Tableau]:
    """Reverse semistandard tableaux over {1..n}: rows weakly decreasing,
    columns strictly decreasing."""
    letters = range(n, 0, -1)
    return _fillings(lam, lambda m: itertools.combinations_with_replacement(letters, m), operator.gt)


def enumerate_standard_proper(lam: Partition, n: int) -> list[Tableau]:
    """Tableaux over {1..n} with rows strictly increasing and columns weakly
    increasing; these index the standard basis of the Schur module."""
    return _fillings(lam, lambda m: itertools.combinations(range(1, n + 1), m), operator.le)


@lru_cache(maxsize=None)
def _mn_character(mu: Partition, rho: Partition) -> int:
    if not rho:
        return 1
    t, rest = rho[0], rho[1:]
    # beta-set of mu, padded to its own length
    length = len(mu)
    beta = [mu[j] + length - 1 - j for j in range(length)]
    total = 0
    for j, b in enumerate(beta):
        nb = b - t
        if nb < 0 or nb in beta:
            continue
        height = sum(1 for x in beta if nb < x < b)
        new_beta = sorted([x for x in beta if x != b] + [nb], reverse=True)
        parts = tuple(x - (length - 1 - idx) for idx, x in enumerate(new_beta))
        nu = tuple(p for p in parts if p > 0)
        total += (-1) ** height * _mn_character(nu, rest)
    return total


def sym_character(mu: Partition, cycle_type: Partition) -> int:
    """Irreducible symmetric group character chi^mu on a conjugacy class."""
    mu = check_partition(tuple(mu)) if mu else ()
    cycle_type = check_partition(tuple(cycle_type)) if cycle_type else ()
    if size(mu) != size(cycle_type):
        raise ValueError("character table is square: |mu| must equal |cycle_type|")
    return _mn_character(mu, cycle_type)


def deruyts(lam: Partition) -> Tableau:
    """Deruyts tableau of shape lam: row r is 1..lam_r, as letters or as
    places."""
    return tuple(tuple(range(1, part + 1)) for part in lam)


def parse_tableau(s: str) -> Tableau:
    """Parse "1 2;3" into ((1, 2), (3,)); rows of proper letters only."""
    rows = []
    for row in s.split(";"):
        row = row.strip()
        if not row:
            raise ValueError(f"empty row in tableau {s!r}")
        try:
            rows.append(tuple(int(x) for x in row.split()))
        except ValueError:
            raise ValueError(f"non-integer letter in tableau {s!r}") from None
    t = tuple(rows)
    if not is_partition(shape_of(t)):
        raise ValueError(f"rows do not form a partition shape: {s!r}")
    return t


def permutation_sign(perm) -> int:
    """Signature via inversion parity; perm is any sequence of distinct
    comparable values."""
    inv = 0
    for i, x in enumerate(perm):
        for y in perm[i + 1 :]:
            if x > y:
                inv += 1
    return -1 if inv % 2 else 1


def permutation_cycle_type(perm) -> Partition:
    """Cycle type of a permutation of 0..k-1 as a partition."""
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))
