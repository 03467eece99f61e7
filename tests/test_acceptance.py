"""End-to-end acceptance checks, one test per numbered criterion.

Every equality is exact rational arithmetic (tolerance zero). Each test
prints one CRITERION line so the gate can be read off the -s output.
"""

import random
from fractions import Fraction
from itertools import combinations_with_replacement, permutations
from math import factorial

from glcenter import linalg
from glcenter.central import (
    capelli_H,
    capelli_H_cdet,
    capelli_immanant,
    duality_W,
    eigenvalue,
    embed,
    nazarov_umeda_I,
    nazarov_umeda_I_cper,
    olshanski_project,
    schur_element,
)
from glcenter.combinatorics import (
    conjugate,
    contains,
    enumerate_horizontal_strips,
    enumerate_vertical_strips,
    hook_number,
    partitions_upto,
    size,
    strip_factorial,
)
from glcenter.enveloping import (
    act,
    devirtualize,
    elem_mul,
    filtration_degree,
    is_central,
    one,
    pbw_key,
    pbw_normal_form,
    random_balanced_word,
)
from glcenter.shifted import (
    e_star,
    eval_at_partition,
    h_star,
    harish_chandra,
    s_star,
    s_star_determinant,
)
from glcenter.lincomb import add_into as elem_add_into
from glcenter.superspace import poly_mul


def report(k, ok):
    print(f"CRITERION {k}: {'PASS' if ok else 'FAIL'}")
    assert ok


def shapes_with_rows_at_most(m, n):
    return [lam for lam in partitions_upto(m) if len(lam) <= n]


def test_criterion_01_schur_action_triangular():
    checks = 0
    ok = True
    for n in (2, 3):
        lams = shapes_with_rows_at_most(4, n)
        for lam in lams:
            s = schur_element(lam, n)
            for mu in lams:
                if size(mu) > size(lam):
                    continue
                if size(mu) < size(lam):
                    value = 0
                else:
                    value = hook_number(lam) if mu == lam else 0
                ok = ok and eigenvalue(s, mu) == value
                checks += 1
    assert checks > 0
    report(1, ok)


def test_criterion_02_vanishing_outside_containment():
    n = 3
    checks = 0
    ok = True
    lams = shapes_with_rows_at_most(4, n)
    mus = [mu for mu in partitions_upto(5) if len(mu) <= n]
    for lam in lams:
        if not lam:
            continue
        s = schur_element(lam, n)
        for mu in mus:
            if contains(lam, mu):
                continue
            ok = ok and eigenvalue(s, mu) == 0
            checks += 1
    assert checks > 0
    report(2, ok)


def test_criterion_03_determinantal_presentation():
    ok = True
    for n in range(1, 5):
        for k in range(1, n + 1):
            ok = ok and capelli_H(k, n).body == capelli_H_cdet(k, n).body
    report(3, ok)


def test_criterion_04_permanental_example():
    # the ten-term column-permanent expression for I_3(3), hardcoded: one
    # matrix per weakly increasing triple, entry (r, c) equal to
    # e_{i_r, i_c} minus (3 - c) on the diagonal letters, c = 1..3
    terms = [
        ((1, 1, 1), 6),
        ((1, 1, 2), 2),
        ((1, 1, 3), 2),
        ((1, 2, 2), 2),
        ((1, 2, 3), 1),
        ((1, 3, 3), 2),
        ((2, 2, 2), 6),
        ((2, 2, 3), 2),
        ((2, 3, 3), 2),
        ((3, 3, 3), 6),
    ]
    body = {}
    for idx, denom in terms:
        entries = []
        for r in range(3):
            row = []
            for c in range(3):
                ent = {((idx[r], idx[c]),): Fraction(1)}
                if idx[r] == idx[c] and c < 2:
                    ent[()] = Fraction(-(2 - c))
                row.append(ent)
            entries.append(row)
        for perm in permutations(range(3)):
            prod = one()
            for c in range(3):
                prod = elem_mul(prod, entries[perm[c]][c])
            elem_add_into(body, prod, Fraction(1, denom))
    report(4, pbw_normal_form(body) == nazarov_umeda_I(3, 3).body)


def test_criterion_05_immanant_combination():
    n = 3
    ok = True
    for lam in partitions_upto(3):
        h = size(lam)
        sign = -1 if (h * (h - 1) // 2) % 2 else 1
        body = {}
        for tup in combinations_with_replacement(range(1, n + 1), h):
            coeff = Fraction(sign)
            for j in range(1, n + 1):
                coeff /= factorial(sum(1 for i in tup if i == j))
            elem_add_into(body, capelli_immanant(lam, tup, tup), coeff)
        ok = ok and body == schur_element(lam, n).body
    report(5, ok)


def test_criterion_06_harish_chandra_images():
    ok = True
    for n in (2, 3):
        for lam in shapes_with_rows_at_most(4, n):
            img = harish_chandra(schur_element(lam, n))
            ok = ok and img == s_star_determinant(lam, n)
            ok = ok and img == s_star(lam, n)
        for k in range(1, n + 1):
            ok = ok and harish_chandra(capelli_H(k, n)) == e_star(k, n)
        for k in range(1, 5):
            ok = ok and harish_chandra(nazarov_umeda_I(k, n)) == h_star(k, n)
    report(6, ok)


def test_criterion_07_strip_sums_and_duality():
    n = 3
    box = [mu for mu in partitions_upto(9) if len(mu) <= 3 and (not mu or mu[0] <= 3)]
    ok = True
    for mu in box:
        mu_t = conjugate(mu)
        for k in range(1, 4):
            hsum = sum(
                (strip_factorial(s) for s in enumerate_horizontal_strips(mu_t, k)),
                Fraction(0),
            )
            vsum = sum(
                (strip_factorial(s) for s in enumerate_vertical_strips(mu_t, k)),
                Fraction(0),
            )
            ok = ok and eigenvalue(capelli_H(k, n), mu) == hsum
            ok = ok and eigenvalue(nazarov_umeda_I(k, n), mu) == vsum
            nv = max(k, len(mu), mu[0] if mu else 0, 1)
            ok = ok and eval_at_partition(e_star(k, nv), mu_t) == eval_at_partition(
                h_star(k, nv), mu
            )
    assert len(box) == 20
    report(7, ok)


def test_criterion_08_duality_involution():
    n = 3
    ok = True
    for lam in [(2, 1), (2,), (1, 1), (3,)]:
        s = schur_element(lam, n)
        w = duality_W(s)
        ok = ok and w.body == schur_element(conjugate(lam), n).body
        ok = ok and duality_W(w).body == s.body
    report(8, ok)


def test_criterion_09_projection_and_section():
    ok = True
    for n in (2, 3):
        for k in range(1, n + 2):
            proj = olshanski_project(capelli_H(k, n + 1))
            ok = ok and proj.body == (capelli_H(k, n).body if k <= n else {})
        for k in range(1, 4):
            ok = ok and olshanski_project(nazarov_umeda_I(k, n + 1)).body == nazarov_umeda_I(k, n).body
        for lam in shapes_with_rows_at_most(3, n):
            s = schur_element(lam, n)
            ok = ok and olshanski_project(schur_element(lam, n + 1)).body == s.body
            ok = ok and olshanski_project(embed(s)).body == s.body
        for k in range(1, min(3, n) + 1):
            ok = ok and olshanski_project(embed(capelli_H(k, n))).body == capelli_H(k, n).body
        for k in range(1, 4):
            ok = ok and olshanski_project(embed(nazarov_umeda_I(k, n))).body == nazarov_umeda_I(k, n).body
    report(9, ok)


def monomials_of_degree(degs):
    out, seen = [], set()
    for deg in degs:
        if deg == 0:
            out.append(())
            seen.add(())
            continue
        singles = [(i, j) for i in range(1, 4) for j in range(1, 4)]
        for combo in combinations_with_replacement(singles, deg):
            q = {(): Fraction(1)}
            for v in combo:
                q = poly_mul(q, {(v,): Fraction(1)})
            for mono in q:
                if mono not in seen:
                    seen.add(mono)
                    out.append(mono)
    return out


def test_criterion_10_devirtualization_oracle():
    # PBW basis of filtration degree <= 3 over gl(3): 220 words, matching
    # the 220 monomials of the degree <= 3 polynomial functions on 3x3
    # matrices; the representation is faithful there up to one spurious
    # kernel direction of a single random vector, removed by adjoining
    # twelve degree-4 coordinate rows.
    gens = sorted(((i, j) for i in range(1, 4) for j in range(1, 4)), key=pbw_key)
    pbw_words = [()]
    for length in (1, 2, 3):
        pbw_words.extend(combinations_with_replacement(gens, length))
    assert len(pbw_words) == 220
    monos3 = monomials_of_degree((0, 1, 2, 3))
    assert len(monos3) == 220
    monos4 = monomials_of_degree((4,))

    rng_vec = random.Random(42)
    P = {m: Fraction(rng_vec.randint(1, 9)) for m in monos3}
    rng_rows = random.Random(5)
    extra_rows = rng_rows.sample(monos4, 12)
    for m in rng_rows.sample(monos4, 25):
        P[m] = Fraction(rng_rows.randint(1, 9))
    coords = monos3 + extra_rows

    acts = [act({w: Fraction(1)}, P) for w in pbw_words]
    matrix = [[Fraction(acts[j].get(m, 0)) for j in range(220)] for m in coords]
    assert linalg.rank([row[:] for row in matrix]) == 220

    rng_words = random.Random(7)
    words = []
    while len(words) < 200:
        w = random_balanced_word(rng_words, 3, 6)
        virtual = sum(
            (0 if a in (1, 2, 3) else 1) + (0 if b in (1, 2, 3) else 1) for a, b in w
        )
        if len(w) - (virtual + 1) // 2 <= 3:
            words.append(w)
    images = [devirtualize({w: Fraction(1)}) for w in words]
    assert all(filtration_degree(img) <= 3 for img in images)

    # direct route: the virtual word and its image act identically on the
    # full spanning set of monomials
    ok_span = True
    for w, img in zip(words, images):
        x = {w: Fraction(1)}
        for m in monos3:
            if act(x, {m: Fraction(1)}) != act(img, {m: Fraction(1)}):
                ok_span = False
                break
        if not ok_span:
            break

    # inverse route: reconstruct each image from its action on P alone by
    # solving the linear system, and compare coefficient vectors exactly
    rhs = []
    for w in words:
        img = act({w: Fraction(1)}, P)
        rhs.append([Fraction(img.get(m, 0)) for m in coords])
    solutions = linalg.solve_many(matrix, rhs)
    ok_solve = solutions is not None
    if ok_solve:
        for sol, img in zip(solutions, images):
            want = [Fraction(img.get(pw, 0)) for pw in pbw_words]
            if sol is None or sol != want:
                ok_solve = False
                break
    report(10, ok_span and ok_solve)


def test_criterion_11_centrality_and_basis():
    elements = []
    for n in (2, 3):
        for lam in shapes_with_rows_at_most(4, n):
            elements.append(schur_element(lam, n))
    for n in range(1, 5):
        for k in range(1, n + 1):
            elements.append(capelli_H(k, n))
            elements.append(capelli_H_cdet(k, n))
    for n in (2, 3):
        for k in range(1, 4):
            elements.append(nazarov_umeda_I(k, n))
            elements.append(nazarov_umeda_I_cper(k, n))
    for lam in [(2, 1), (2,), (1, 1), (3,)]:
        elements.append(duality_W(schur_element(lam, 3)))
    for lam in shapes_with_rows_at_most(3, 2):
        elements.append(embed(schur_element(lam, 2)))
        elements.append(olshanski_project(schur_element(lam, 3)))
    ok = all(is_central(x.body, x.n) for x in elements)

    for n in (2, 3):
        lams = shapes_with_rows_at_most(3, n)
        mus = shapes_with_rows_at_most(3, n)
        matrix = []
        for lam in lams:
            p = harish_chandra(schur_element(lam, n))
            matrix.append([eval_at_partition(p, mu) for mu in mus])
        ok = ok and linalg.rank(matrix) == len(lams)
    report(11, ok)
