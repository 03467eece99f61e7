"""Sparse linear combinations: the one kernel under all three algebras.

A combination is a dict mapping basis keys to nonzero exact coefficients,
each an int or a Fraction; a key whose coefficient sums to zero is removed,
so two combinations are equal exactly when their dicts are. A key that is
new to a combination is stored with its coefficient as given, without the
sum 0 + q, and a scale by the int 1 is skipped; neither changes a
coefficient's type. Superspace monomials, enveloping words and shifted
exponent tuples are all keys here; each algebra keeps its own product,
because the three multiply keys differently (Koszul-signed sorting,
concatenation, exponent addition). The JSON readers of enveloping elements,
shifted polynomials and superpolynomials read each coefficient through
`parse_coeff`, so an integral value comes back an int.
"""

from __future__ import annotations

from fractions import Fraction


def exact(x):
    """x as an int or a Fraction; anything else that `Fraction` accepts
    exactly, such as the string '1/3', becomes a Fraction. A float raises,
    because `Fraction(0.1)` is not one tenth."""
    if type(x) is int or type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError(f"float {x!r}: coefficients and values must be exact rationals")
    return Fraction(x)


def parse_coeff(text):
    """A coefficient as the JSON writers store it (its `str`, such as '3' or
    '-1/3'): an int when it is integral, a Fraction otherwise."""
    q = Fraction(text)
    return q.numerator if q.denominator == 1 else q


def add_term(x: dict, key, coeff) -> None:
    """x += coeff * key, in place."""
    v = x.get(key)
    v = coeff if v is None else v + coeff
    if v:
        x[key] = v
    else:
        x.pop(key, None)


def add_into(x: dict, y: dict, c=1) -> None:
    """x += c * y, in place."""
    if not c:
        return
    unit = type(c) is int and c == 1
    for key, q in y.items():
        if not unit:
            q = q * c
        v = x.get(key)
        v = q if v is None else v + q
        if v:
            x[key] = v
        else:
            x.pop(key, None)


def add(x: dict, y: dict) -> dict:
    out = dict(x)
    add_into(out, y)
    return out


def sub(x: dict, y: dict) -> dict:
    out = dict(x)
    add_into(out, y, -1)
    return out


def scale(x: dict, c) -> dict:
    return {key: q * c for key, q in x.items()} if c else {}


def prefix_product(table: dict, key: tuple, gens, mul):
    """gens[key[0]] * ... * gens[key[-1]], built as the product of key[:-1]
    times gens[key[-1]] and kept in table. The caller seeds table with
    {(): unit} and keeps it for one call, so keys that share a prefix build
    its product once."""
    out = table.get(key)
    if out is None:
        out = table[key] = mul(prefix_product(table, key[:-1], gens, mul), gens[key[-1]])
    return out


def format_terms(terms) -> str:
    """Join (body, coeff) pairs as "a + b - c", in the order given. An empty
    body is the unit and prints as its coefficient; a coefficient of 1 or -1
    on any other body prints as its sign alone."""
    parts = []
    for body, c in terms:
        if not body:
            parts.append(str(c))
        elif c == 1:
            parts.append(body)
        elif c == -1:
            parts.append(f"-{body}")
        else:
            parts.append(f"{c}*{body}")
    if not parts:
        return "0"
    out = parts[0]
    for t in parts[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out
