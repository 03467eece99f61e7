"""Words in the enveloping superalgebra, PBW normal forms, the polarization
representation, and the devirtualization map onto U(gl(n)).

A generator e_{a,b} is a pair of symbols (a, b); a word is a tuple of
generators written left to right, and the rightmost factor acts first. An
element is a dict mapping words to nonzero Fractions; the empty word is 1.

Devirtualization sends a balanced virtual word to its proper image: the
leftmost factor whose column symbol is virtual is pushed rightward with
supercommutator swaps, contraction terms shorten the word, and a word whose
tracked factor reaches the right end (annihilating a symbol that was never
created) is dropped. The result for a balanced input is free of virtual
symbols; a surviving virtual symbol means the input was not balanced.
"""

from __future__ import annotations

from fractions import Fraction

from .superspace import (
    SuperPolynomial,
    _sym_from_json,
    _sym_to_json,
    alpha,
    beta,
    format_symbol,
    is_proper,
    superpolarize,
    symbol_degree,
    symbol_key,
)

Gen = tuple
Word = tuple
EnvelopingElement = dict


def gen_degree(g: Gen) -> int:
    return (symbol_degree(g[0]) + symbol_degree(g[1])) % 2


def gen_key(g: Gen) -> tuple:
    return symbol_key(g[0]) + symbol_key(g[1])


def one() -> EnvelopingElement:
    return {(): Fraction(1)}


def elem_add_into(x: EnvelopingElement, y: EnvelopingElement, c=1) -> None:
    for w, q in y.items():
        v = x.get(w, 0) + q * c
        if v:
            x[w] = v
        else:
            x.pop(w, None)


def elem_scale(x: EnvelopingElement, c) -> EnvelopingElement:
    c = Fraction(c)
    if not c:
        return {}
    return {w: q * c for w, q in x.items()}


def elem_sub(x: EnvelopingElement, y: EnvelopingElement) -> EnvelopingElement:
    out = dict(x)
    elem_add_into(out, y, -1)
    return out


def elem_mul(x: EnvelopingElement, y: EnvelopingElement) -> EnvelopingElement:
    out: EnvelopingElement = {}
    for w1, c1 in x.items():
        for w2, c2 in y.items():
            v = out.get(w1 + w2, 0) + c1 * c2
            if v:
                out[w1 + w2] = v
            else:
                out.pop(w1 + w2, None)
    return out


def filtration_degree(x: EnvelopingElement) -> int:
    return max((len(w) for w in x), default=0)


def supercommutator(g: Gen, h: Gen) -> EnvelopingElement:
    """[e_{a,b}, e_{c,d}] = d_{bc} e_{a,d} - (-1)^{|g||h|} d_{ad} e_{c,b}."""
    a, b = g
    c, d = h
    out: EnvelopingElement = {}
    if b == c:
        elem_add_into(out, {((a, d),): Fraction(1)})
    if a == d:
        sign = -1 if gen_degree(g) and gen_degree(h) else 1
        elem_add_into(out, {((c, b),): Fraction(-sign)})
    return out


def act(x: EnvelopingElement, p: SuperPolynomial) -> SuperPolynomial:
    """Apply the polarization representation, rightmost factor first."""
    out: SuperPolynomial = {}
    for word, coeff in x.items():
        q = p
        for a, b in reversed(word):
            if not q:
                break
            q = superpolarize(a, b, q)
        for mono, c in q.items():
            v = out.get(mono, 0) + c * coeff
            if v:
                out[mono] = v
            else:
                out.pop(mono, None)
    return out


def pbw_key(g: Gen) -> tuple:
    i, j = g
    block = 0 if i > j else (1 if i == j else 2)
    return (block, i, j)


_pbw_cache: dict = {}


def pbw_word(word: Word) -> EnvelopingElement:
    """Normal form of one proper word: lowering, Cartan, raising blocks left
    to right, weakly increasing lexicographically inside each block."""
    cached = _pbw_cache.get(word)
    if cached is not None:
        return cached
    result = None
    for k in range(len(word) - 1):
        if pbw_key(word[k]) > pbw_key(word[k + 1]):
            g, h = word[k], word[k + 1]
            out: EnvelopingElement = {}
            elem_add_into(out, pbw_word(word[:k] + (h, g) + word[k + 2 :]))
            for (gen,), c in supercommutator(g, h).items():
                elem_add_into(out, pbw_word(word[:k] + (gen,) + word[k + 2 :]), c)
            result = out
            break
    if result is None:
        result = {word: Fraction(1)}
    _pbw_cache[word] = result
    return result


def pbw_normal_form(x: EnvelopingElement) -> EnvelopingElement:
    out: EnvelopingElement = {}
    for word, coeff in x.items():
        for g in word:
            if not (is_proper(g[0]) and is_proper(g[1])):
                raise ValueError(f"non-proper generator in PBW input: {g}")
        elem_add_into(out, pbw_word(word), coeff)
    return out


def is_irregular(word: Word) -> bool:
    """Some right subword annihilates a virtual symbol more often than it
    was created strictly before."""
    created: dict = {}
    annihilated: dict = {}
    for a, b in reversed(word):
        if not is_proper(b):
            annihilated[b] = annihilated.get(b, 0) + 1
            if annihilated[b] > created.get(b, 0):
                return True
        if not is_proper(a):
            created[a] = created.get(a, 0) + 1
    return False


def random_balanced_word(rng, n: int, max_len: int = 6, alphas: int = 2, betas: int = 2) -> Word:
    """Random word in the virtual algebra over proper letters 1..n: every
    virtual symbol is created before annihilated and fully consumed, and at
    least one factor touches a virtual symbol."""
    pool = (
        list(range(1, n + 1))
        + [alpha(t + 1) for t in range(alphas)]
        + [beta(t + 1) for t in range(betas)]
    )
    weights = [2] * n + [1] * (alphas + betas)
    while True:
        length = rng.randint(2, max_len)
        word = tuple(
            (rng.choices(pool, weights)[0], rng.choices(pool, weights)[0])
            for _ in range(length)
        )
        created: dict = {}
        annihilated: dict = {}
        for a, b in word:
            if not is_proper(a):
                created[a] = created.get(a, 0) + 1
            if not is_proper(b):
                annihilated[b] = annihilated.get(b, 0) + 1
        if not created or created != annihilated or is_irregular(word):
            continue
        return word


_devirt_cache: dict = {}
_push_cache: dict = {}


def _push(word: Word, k: int) -> EnvelopingElement:
    """Move the virtual-annihilating factor at position k to the right until
    it contracts or falls off the end."""
    key = (word, k)
    cached = _push_cache.get(key)
    if cached is not None:
        return cached
    if k == len(word) - 1:
        result: EnvelopingElement = {}
    else:
        g, h = word[k], word[k + 1]
        sign = -1 if gen_degree(g) and gen_degree(h) else 1
        result = {}
        elem_add_into(result, _push(word[:k] + (h, g) + word[k + 2 :], k + 1), sign)
        for (gen,), c in supercommutator(g, h).items():
            elem_add_into(result, _devirt_word(word[:k] + (gen,) + word[k + 2 :]), c)
    _push_cache[key] = result
    return result


def _devirt_word(word: Word) -> EnvelopingElement:
    cached = _devirt_cache.get(word)
    if cached is not None:
        return cached
    pos = next((k for k, g in enumerate(word) if not is_proper(g[1])), None)
    if pos is None:
        result = {word: Fraction(1)}
    else:
        result = _push(word, pos)
    _devirt_cache[word] = result
    return result


def devirtualize(x: EnvelopingElement) -> EnvelopingElement:
    """Image of a combination of balanced monomials in U(gl(n)), in PBW
    normal form. Raises when a virtual symbol survives."""
    acc: EnvelopingElement = {}
    for word, coeff in x.items():
        elem_add_into(acc, _devirt_word(word), coeff)
    for word in acc:
        for a, b in word:
            if not (is_proper(a) and is_proper(b)):
                raise ValueError(
                    f"input is not balanced: virtual generator {(a, b)} survives"
                )
    return pbw_normal_form(acc)


def adjoint(g: Gen, x: EnvelopingElement) -> EnvelopingElement:
    """ad(e_{i,j}) acting by derivations on words; e_{i,j} must be proper
    (hence even, so no Koszul signs arise)."""
    if not (is_proper(g[0]) and is_proper(g[1])):
        raise ValueError("adjoint generator must be proper")
    out: EnvelopingElement = {}
    for word, coeff in x.items():
        for k in range(len(word)):
            for (gen,), c in supercommutator(g, word[k]).items():
                w = word[:k] + (gen,) + word[k + 1 :]
                elem_add_into(out, {w: coeff * c})
    return out


def is_central(x: EnvelopingElement, n: int) -> bool:
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if pbw_normal_form(adjoint((i, j), x)):
                return False
    return True


def word_sort_key(word: Word) -> tuple:
    return (len(word), tuple(gen_key(g) for g in word))


def format_element(x: EnvelopingElement) -> str:
    if not x:
        return "0"
    parts = []
    for word in sorted(x, key=word_sort_key):
        c = x[word]
        body = "*".join(
            f"e[{format_symbol(a)},{format_symbol(b)}]" for a, b in word
        ) or "1"
        if c == 1 and word:
            parts.append(body)
        elif c == -1 and word:
            parts.append(f"-{body}")
        elif not word:
            parts.append(str(c))
        else:
            parts.append(f"{c}*{body}")
    out = parts[0]
    for t in parts[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


def element_to_json_obj(x: EnvelopingElement, pbw_canonical: bool) -> dict:
    terms = []
    for word in sorted(x, key=word_sort_key):
        terms.append(
            {
                "word": [[_sym_to_json(a), _sym_to_json(b)] for a, b in word],
                "coeff": str(x[word]),
            }
        )
    return {"terms": terms, "pbw_canonical": pbw_canonical}


def element_from_json_obj(obj: dict) -> EnvelopingElement:
    out: EnvelopingElement = {}
    for item in obj["terms"]:
        word = tuple(
            (_sym_from_json(a), _sym_from_json(b)) for a, b in item["word"]
        )
        elem_add_into(out, {word: Fraction(item["coeff"])})
    return out
