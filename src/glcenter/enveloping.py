"""Words in the enveloping superalgebra, PBW normal forms, the polarization
representation, and the devirtualization map onto U(gl(n)).

A generator e_{a,b} is a pair of symbols (a, b); a word is a tuple of
generators written left to right, and the rightmost factor acts first. An
element is a sparse linear combination (see `lincomb`) mapping words to
nonzero coefficients, each an int or a Fraction; the empty word is 1.
Devirtualization and PBW rewriting only ever produce integer coefficients,
so they stay plain ints until a caller scales by a non-integer. The
polarization action `act` applies each distinct right factor of its input
once per call, so words that end alike share that work.

Devirtualization sends a balanced virtual word to its proper image in PBW
normal form, in one rewriting pass: the leftmost factor whose column symbol
is virtual is pushed rightward with supercommutator swaps, contraction terms
shorten the word, and a word whose tracked factor reaches the right end
(annihilating a symbol that was never created) is dropped. The push is a
loop over the factors to the right of the tracked one; only the shorter
contraction words recurse. A word with no virtual column symbol left is
replaced by its PBW normal form, unless a virtual row symbol is left in it:
then the input was not balanced, and devirtualization raises.
"""

from __future__ import annotations

from fractions import Fraction

from .lincomb import add_into, add_term, format_terms
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
    return {(): 1}


def elem_mul(x: EnvelopingElement, y: EnvelopingElement) -> EnvelopingElement:
    out: EnvelopingElement = {}
    for w1, c1 in x.items():
        # concatenation is injective in w2, so each row has distinct words
        add_into(out, {w1 + w2: c2 for w2, c2 in y.items()}, c1)
    return out


def filtration_degree(x: EnvelopingElement) -> int:
    return max((len(w) for w in x), default=0)


def supercommutator(g: Gen, h: Gen) -> EnvelopingElement:
    """[e_{a,b}, e_{c,d}] = d_{bc} e_{a,d} - (-1)^{|g||h|} d_{ad} e_{c,b}."""
    a, b = g
    c, d = h
    out: EnvelopingElement = {}
    if b == c:
        add_term(out, ((a, d),), 1)
    if a == d:
        sign = -1 if gen_degree(g) and gen_degree(h) else 1
        add_term(out, ((c, b),), -sign)
    return out


def act(x: EnvelopingElement, p: SuperPolynomial) -> SuperPolynomial:
    """Apply the polarization representation, rightmost factor first. Words
    with a common right factor share its image: they form a trie from the
    right, grown one level at a time by grouping the words of a node on
    their next factor to the left. Each node's factor acts once per call,
    and a node whose image is zero grows no further."""
    out: SuperPolynomial = {}
    # k, words that share their last k factors, and the image of those factors
    stack = [(0, x.items(), p)]
    while stack:
        k, words, q = stack.pop()
        groups: dict = {}
        for word, coeff in words:
            if len(word) == k:
                add_into(out, q, coeff)
            else:
                groups.setdefault(word[-1 - k], []).append((word, coeff))
        for (a, b), group in groups.items():
            image = superpolarize(a, b, q)
            if image:
                stack.append((k + 1, group, image))
    return out


def pbw_key(g: Gen) -> tuple:
    i, j = g
    block = 0 if i > j else (1 if i == j else 2)
    return (block, i, j)


_pbw_cache: dict = {}


def _pbw_word(word: Word) -> EnvelopingElement:
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
            add_into(out, _pbw_word(word[:k] + (h, g) + word[k + 2 :]))
            for (gen,), c in supercommutator(g, h).items():
                add_into(out, _pbw_word(word[:k] + (gen,) + word[k + 2 :]), c)
            result = out
            break
    if result is None:
        result = {word: 1}
    _pbw_cache[word] = result
    return result


def pbw_normal_form(x: EnvelopingElement) -> EnvelopingElement:
    for word in x:
        for g in word:
            if not (is_proper(g[0]) and is_proper(g[1])):
                raise ValueError(f"non-proper generator in PBW input: {g}")
    out: EnvelopingElement = {}
    for word, coeff in x.items():
        add_into(out, _pbw_word(word), coeff)
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


def random_balanced_word(rng, n: int, max_len: int = 6) -> Word:
    """Random word over proper letters 1..n and alpha_1, alpha_2, beta_1,
    beta_2: every virtual symbol is created before annihilated and fully
    consumed, and at least one factor touches a virtual symbol."""
    pool = list(range(1, n + 1)) + [alpha(1), alpha(2), beta(1), beta(2)]
    weights = [2] * n + [1] * 4
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


def _devirt_word(word: Word) -> EnvelopingElement:
    """Image of one word, in PBW normal form. The first factor g = e_{a,v}
    with a virtual column symbol v moves right past each later factor h,
    collecting the Koszul sign of the swaps made so far; each step adds the
    contraction terms sign * [g, h] in place of the pair, and g contributes
    nothing once it falls off the right end. A word with no virtual column
    symbol is normalized, unless a virtual row symbol is left: that raises."""
    cached = _devirt_cache.get(word)
    if cached is not None:
        return cached
    k = next((k for k, g in enumerate(word) if not is_proper(g[1])), None)
    if k is None:
        for a, b in word:
            if not is_proper(a):
                raise ValueError(f"input is not balanced: virtual generator {(a, b)} survives")
        result = _pbw_word(word)
    else:
        g = word[k]
        a, v = g
        g_odd = gen_degree(g)
        result = {}
        sign = 1
        for j in range(k + 1, len(word)):
            h = word[j]
            if v == h[0] or a == h[1]:  # otherwise [g, h] = 0
                head = word[:k] + word[k + 1 : j]
                for (gen,), c in supercommutator(g, h).items():
                    add_into(result, _devirt_word(head + (gen,) + word[j + 1 :]), sign * c)
            if g_odd and gen_degree(h):
                sign = -sign
    _devirt_cache[word] = result
    return result


def devirtualize(x: EnvelopingElement) -> EnvelopingElement:
    """Image of a combination of balanced monomials in U(gl(n)), in PBW
    normal form: the sum of the images of its words. Raises when a word
    leaves a virtual row symbol that nothing annihilates (not balanced)."""
    out: EnvelopingElement = {}
    for word, coeff in x.items():
        add_into(out, _devirt_word(word), coeff)
    return out


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
                add_term(out, w, coeff * c)
    return out


def check_letters(x: EnvelopingElement, n: int) -> None:
    """Raise unless every letter of x lies in 1..n, i.e. x is in U(gl(n))."""
    if not {s for word in x for g in word for s in g} <= set(range(1, n + 1)):
        raise ValueError(f"input needs to be an element of U(gl({n}))")


def is_central(x: EnvelopingElement, n: int) -> bool:
    """Whether x in U(gl(n)) commutes with all of gl(n). The Chevalley
    generators e_{i,i+1} and e_{i+1,i} generate sl(n), and the identity
    matrix is central in U(gl(n)), so commuting with those 2(n-1)
    generators is enough. Raises for a letter outside 1..n, where that
    argument does not hold."""
    check_letters(x, n)
    for i in range(1, n):
        for g in ((i, i + 1), (i + 1, i)):
            if pbw_normal_form(adjoint(g, x)):
                return False
    return True


def word_sort_key(word: Word) -> tuple:
    return (len(word), tuple(gen_key(g) for g in word))


def format_element(x: EnvelopingElement) -> str:
    return format_terms(
        ("*".join(f"e[{format_symbol(a)},{format_symbol(b)}]" for a, b in word), x[word])
        for word in sorted(x, key=word_sort_key)
    )


def element_to_json_obj(x: EnvelopingElement) -> dict:
    terms = []
    for word in sorted(x, key=word_sort_key):
        terms.append(
            {
                "word": [[_sym_to_json(a), _sym_to_json(b)] for a, b in word],
                "coeff": str(x[word]),
            }
        )
    return {"terms": terms, "pbw_canonical": True}


def element_from_json_obj(obj: dict) -> EnvelopingElement:
    out: EnvelopingElement = {}
    for item in obj["terms"]:
        word = tuple(
            (_sym_from_json(a), _sym_from_json(b)) for a, b in item["word"]
        )
        add_term(out, word, Fraction(item["coeff"]))
    return out
