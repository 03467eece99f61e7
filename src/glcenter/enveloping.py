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
normal form, in one rewriting pass: the rightmost factor whose column
symbol is virtual is pushed rightward, each swap adding the contraction
terms of a supercommutator, which shorten the word, and a word whose
tracked factor reaches the right end (annihilating a symbol that was never
created) is dropped. Any factor with a virtual column may be pushed, since
the image is unique; the rightmost one passes only factors with proper
columns, so its push is the shortest, and the recursion meets far fewer
distinct subwords than a push of the leftmost one. The push is a loop over
the factors to the right of the tracked one; only the shorter contraction
words recurse. A word with no virtual column symbol left is replaced by its
PBW normal form, unless a virtual row symbol is left in it: then the input
was not balanced, and devirtualization raises. Both rewriting loops, the
push and the PBW sort, write the one or two bracket terms in place, and so
do the commutators of `is_central`; the push tests symbol classes inline,
with no helper call per step. `supercommutator` serves the tests.
"""

from __future__ import annotations

from itertools import accumulate

from .lincomb import add_into, add_term, format_terms, parse_coeff
from .superspace import (
    SuperPolynomial,
    _sym_from_json,
    _sym_to_json,
    alpha,
    beta,
    format_symbol,
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
    to right, weakly increasing lexicographically inside each block. The
    first descent g h is rewritten as h g + [g, h], with the even bracket
    [e_{a,b}, e_{c,d}] = d_{bc} e_{a,d} - d_{ad} e_{c,b}."""
    cached = _pbw_cache.get(word)
    if cached is not None:
        return cached
    keys = list(map(pbw_key, word))
    result = None
    for k in range(len(word) - 1):
        if keys[k] > keys[k + 1]:
            (a, b), (c, d) = g, h = word[k], word[k + 1]
            head, tail = word[:k], word[k + 2 :]
            result = {}
            add_into(result, _pbw_word(head + (h, g) + tail))
            if b == c:
                add_into(result, _pbw_word(head + ((a, d),) + tail))
            if a == d:
                add_into(result, _pbw_word(head + ((c, b),) + tail), -1)
            break
    if result is None:
        result = {word: 1}
    _pbw_cache[word] = result
    return result


def pbw_normal_form(x: EnvelopingElement) -> EnvelopingElement:
    for word in x:
        for a, b in word:
            if type(a) is not int or type(b) is not int:
                raise ValueError(f"non-proper generator in PBW input: {(a, b)}")
    out: EnvelopingElement = {}
    for word, coeff in x.items():
        add_into(out, _pbw_word(word), coeff)
    return out


def is_irregular(word: Word) -> bool:
    """Some right subword annihilates a virtual symbol more often than it
    was created strictly before."""
    return _open_symbols(word) is None


def _open_symbols(word: Word) -> dict | None:
    """Each virtual symbol's creations less annihilations, read from the
    right; None as soon as an annihilation has no creation to its right."""
    balance: dict = {}
    for a, b in reversed(word):
        if type(b) is not int:
            if not balance.get(b):
                return None
            balance[b] -= 1
        if type(a) is not int:
            balance[a] = balance.get(a, 0) + 1
    return balance


def random_balanced_word(rng, n: int, max_len: int = 6) -> Word:
    """Random word over proper letters 1..n and alpha_1, alpha_2, beta_1,
    beta_2: every virtual symbol is created before annihilated and fully
    consumed, and at least one factor touches a virtual symbol."""
    pool = list(range(1, n + 1)) + [alpha(1), alpha(2), beta(1), beta(2)]
    cum_weights = list(accumulate([2] * n + [1] * 4))
    while True:
        length = rng.randint(2, max_len)
        symbols = rng.choices(pool, cum_weights=cum_weights, k=2 * length)
        word = tuple(zip(symbols[::2], symbols[1::2]))
        balance = _open_symbols(word)
        if balance and not any(balance.values()):
            return word


_devirt_cache: dict = {}


def _devirt_word(word: Word) -> EnvelopingElement:
    """Image of one word, in PBW normal form. The last factor g = e_{a,v}
    with a virtual column symbol v moves right past each later factor
    h = e_{c,d}, collecting the Koszul sign of the swaps made so far; each
    step adds sign * [g, h] = sign * (d_{vc} e_{a,d} - (-1)^{|g||h|} d_{ad}
    e_{c,v}) in place of the pair, and g contributes nothing once it falls
    off the right end: there it would act first, on a polynomial in proper
    variables only. Every later factor has a proper column, and each bracket
    keeps the count of creations and annihilations of each virtual symbol,
    so a balanced word ends in proper words. A word with no virtual column
    symbol is normalized, unless a virtual row symbol is left: that raises.
    A symbol is odd when it is a proper letter or a negative virtual symbol
    ("b"), so h, whose column is proper, is odd when c is positive virtual."""
    cached = _devirt_cache.get(word)
    if cached is not None:
        return cached
    k = next((k for k in range(len(word) - 1, -1, -1) if type(word[k][1]) is not int), None)
    if k is None:
        for a, b in word:
            if type(a) is not int:
                raise ValueError(f"input is not balanced: virtual generator {(a, b)} survives")
        result = _pbw_word(word)
    else:
        a, v = g = word[k]
        g_odd = (type(a) is int or a[0] == "b") != (v[0] == "b")
        result = {}
        sign = 1
        for j in range(k + 1, len(word)):
            c, d = word[j]
            both_odd = g_odd and type(c) is not int and c[0] != "b"
            # [g, h] = 0 unless v = c or a = d
            if v == c or a == d:
                head, tail = word[:k] + word[k + 1 : j], word[j + 1 :]
                if v == c:
                    add_into(result, _devirt_word(head + ((a, d),) + tail), sign)
                if a == d:
                    add_into(result, _devirt_word(head + ((c, v),) + tail), sign if both_odd else -sign)
            if both_odd:
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


def check_letters(x: EnvelopingElement, n: int) -> None:
    """Raise unless every letter of x lies in 1..n, i.e. x is in U(gl(n))."""
    if not {s for word in x for g in word for s in g} <= set(range(1, n + 1)):
        raise ValueError(f"input needs to be an element of U(gl({n}))")


def is_central(x: EnvelopingElement, n: int) -> bool:
    """Whether x in U(gl(n)) commutes with all of gl(n). Each word is a
    weight vector of the Cartan generators e_{i,i}, so the words whose row
    and column letters differ as multisets must cancel in PBW form; that is
    checked before any commutator, and what is left has weight zero, so it
    commutes with the Cartan subalgebra. Under the adjoint action each
    filtration piece of U(gl(n)) is a finite-dimensional module, and so a
    sum of irreducible ones; the weight-zero part is a sum of weight-zero
    vectors, one in each summand. If the raising generators e_{1,2}, ...,
    e_{n-1,n} kill it, they kill each of those vectors, which is then a
    highest-weight vector of weight 0 and spans a trivial summand: it
    commutes with all of gl(n). So n - 1 commutators are enough. Raises for
    a letter outside 1..n, where that argument does not hold."""
    check_letters(x, n)
    level, charged = {}, {}
    for word, coeff in x.items():
        weight_zero = sorted(a for a, _ in word) == sorted(b for _, b in word)
        (level if weight_zero else charged)[word] = coeff
    if pbw_normal_form(charged):
        return False
    for i in range(1, n):
        # [e_{i,i+1}, e_{c,d}] = d_{i+1,c} e_{i,d} - d_{d,i} e_{c,i+1}; all even
        bracket: EnvelopingElement = {}
        for word, coeff in level.items():
            for k, (c, d) in enumerate(word):
                if c == i + 1:
                    add_term(bracket, word[:k] + ((i, d),) + word[k + 1 :], coeff)
                if d == i:
                    add_term(bracket, word[:k] + ((c, i + 1),) + word[k + 1 :], -coeff)
        if pbw_normal_form(bracket):
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
        add_term(out, word, parse_coeff(item["coeff"]))
    return out
