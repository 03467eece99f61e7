from fractions import Fraction

import pytest

from glcenter.central import (
    CentralElement,
    capelli_H,
    capelli_H_cdet,
    capelli_bitableau,
    capelli_immanant,
    double_young_capelli,
    duality_W,
    eigenvalue,
    embed,
    nazarov_umeda_I,
    nazarov_umeda_I_cper,
    olshanski_project,
    schur_element,
    young_capelli,
)
from glcenter.combinatorics import conjugate, hook_number, size
from glcenter.enveloping import is_central, one
from glcenter.lincomb import scale as elem_scale


def test_capelli_bitableau_fixtures():
    # [S|T] of a single cell is just a generator
    assert capelli_bitableau(((2,),), ((1,),)) == {((2, 1),): Fraction(1)}
    # reordering a row of either side multiplies by the signature
    b12 = capelli_bitableau(((1, 2),), ((1, 2),))
    assert capelli_bitableau(((2, 1),), ((1, 2),)) == elem_scale(b12, -1)
    assert capelli_bitableau(((1, 2),), ((2, 1),)) == elem_scale(b12, -1)
    b123 = capelli_bitableau(((1, 2, 3),), ((1, 2, 3),))
    assert capelli_bitableau(((3, 2, 1),), ((1, 2, 3),)) == elem_scale(b123, -1)
    # repeated letter in a row kills the bitableau
    assert capelli_bitableau(((1, 1),), ((1, 2),)) == {}


def test_capelli_bitableau_shape_mismatch():
    with pytest.raises(ValueError):
        capelli_bitableau(((1, 2),), ((1,), (2,)))
    with pytest.raises(ValueError):
        capelli_bitableau(((0,),), ((1,),))


def test_pool_independence():
    s, t = ((1, 2), (2,)), ((1, 2), (1,))
    assert capelli_bitableau(s, t) == capelli_bitableau(s, t, pool=5)
    assert young_capelli(s, t) == young_capelli(s, t, pool=5)
    assert double_young_capelli(s, t) == double_young_capelli(s, t, pool=5)
    assert capelli_H(2, 2).body == capelli_H(2, 2, pool=3).body
    assert nazarov_umeda_I(2, 2).body == nazarov_umeda_I(2, 2, pool=3).body
    assert schur_element((2,), 2).body == schur_element((2,), 2, pool=3).body
    assert capelli_immanant((2,), (1, 2), (1, 2)) == capelli_immanant(
        (2,), (1, 2), (1, 2), pool=4
    )


def test_young_capelli_internal_routes_agree():
    # construction compares the direct virtual image against the expansion
    # into column-permuted Capelli bitableaux and raises on mismatch
    for s, t in [
        (((1, 2),), ((1, 2),)),
        (((1, 2), (2,)), ((1, 2), (1,))),
        (((1,), (2,)), ((2,), (1,))),
    ]:
        young_capelli(s, t)
        double_young_capelli(s, t)


def test_capelli_H_closed_form():
    assert capelli_H(2, 2).body == {
        ((1, 1), (2, 2)): Fraction(1),
        ((2, 1), (1, 2)): Fraction(-1),
        ((2, 2),): Fraction(1),
    }
    assert capelli_H(1, 2).body == {((1, 1),): Fraction(1), ((2, 2),): Fraction(1)}


def test_capelli_H_routes_agree():
    for n in (2, 3):
        for k in range(1, n + 1):
            assert capelli_H(k, n).body == capelli_H_cdet(k, n).body


def test_nazarov_umeda_routes_agree():
    for n, k in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]:
        assert nazarov_umeda_I(k, n).body == nazarov_umeda_I_cper(k, n).body


def test_schur_element_specializations():
    # column shapes give the determinantal family, row shapes the permanental
    for n in (2, 3):
        for k in range(1, n + 1):
            assert capelli_H(k, n).body == schur_element((1,) * k, n).body
            assert nazarov_umeda_I(k, n).body == schur_element((k,), n).body


def test_schur_element_basics():
    assert schur_element((), 2).body == one()
    assert schur_element((2, 1), 3).provenance == "S:2,1@n=3"
    assert capelli_H(2, 3).provenance == "H:2@n=3"
    with pytest.raises(ValueError):
        schur_element((1, 1, 1), 2)  # more rows than n


def test_constructor_argument_errors():
    with pytest.raises(ValueError):
        capelli_H(0, 2)
    with pytest.raises(ValueError):
        capelli_H(3, 2)
    with pytest.raises(ValueError):
        nazarov_umeda_I(0, 2)
    with pytest.raises(ValueError):
        capelli_immanant((2,), (1,), (1, 2))
    with pytest.raises(ValueError):
        capelli_immanant((2,), (1, 0), (1, 2))


def test_capelli_immanant_fixtures():
    assert capelli_immanant((1,), (1,), (2,)) == {((1, 2),): Fraction(1)}
    # both permuted forms are computed and compared internally
    capelli_immanant((2, 1), (1, 2, 3), (1, 2, 3))
    capelli_immanant((1, 1), (1, 2), (2, 1))


def test_named_elements_are_central():
    assert is_central(capelli_H(2, 2).body, 2)
    assert is_central(nazarov_umeda_I(2, 2).body, 2)
    assert is_central(schur_element((2, 1), 2).body, 2)
    assert not is_central({((1, 2),): Fraction(1)}, 2)


def test_eigenvalue_fixtures():
    assert eigenvalue(capelli_H(1, 2), (2, 1)) == 3
    assert eigenvalue(capelli_H(1, 3), ()) == 0
    assert eigenvalue(schur_element((2, 1), 2), (2, 1)) == hook_number((2, 1))
    assert eigenvalue(schur_element((2, 1), 2), (3,)) == 0
    assert eigenvalue(CentralElement(one(), 2, "1"), (2,)) == 1


def test_eigenvalue_errors():
    with pytest.raises(ValueError):
        eigenvalue(capelli_H(1, 2), (1, 1, 1))
    x = CentralElement(capelli_bitableau(((2,),), ((1,),)), 2, "CB:2|1@n=2")
    with pytest.raises(ValueError):
        eigenvalue(x, (1,))


def test_olshanski_projection():
    assert olshanski_project(capelli_H(2, 3)).body == capelli_H(2, 2).body
    assert olshanski_project(capelli_H(3, 3)).body == {}
    assert olshanski_project(nazarov_umeda_I(2, 3)).body == nazarov_umeda_I(2, 2).body
    proj = olshanski_project(schur_element((2, 1), 3))
    assert proj.body == schur_element((2, 1), 2).body
    assert proj.n == 2
    with pytest.raises(ValueError):
        olshanski_project(CentralElement({((3, 1),): Fraction(1)}, 3, "user"))


def test_embedding_section():
    assert embed(capelli_H(2, 2)).body == capelli_H(2, 3).body
    assert embed(nazarov_umeda_I(2, 2)).body == nazarov_umeda_I(2, 3).body
    for lam in [(2, 1), (2,), (1, 1)]:
        s = schur_element(lam, 2)
        lifted = embed(s)
        assert lifted.n == 3
        assert olshanski_project(lifted).body == s.body


def test_duality_exchanges_families():
    for n in (2, 3):
        for k in range(1, n + 1):
            assert duality_W(capelli_H(k, n)).body == nazarov_umeda_I(k, n).body
            assert duality_W(nazarov_umeda_I(k, n)).body == capelli_H(k, n).body


def test_duality_on_schur_elements_small():
    # W sends S_lam to S_{lam~} whenever |lam| <= n
    for n, lam in [(2, (2,)), (2, (1, 1)), (3, (2, 1)), (3, (3,)), (3, (1, 1, 1))]:
        assert size(lam) <= n
        assert duality_W(schur_element(lam, n)).body == schur_element(conjugate(lam), n).body


def test_duality_involution():
    for x in [schur_element((2, 1), 2), capelli_H(2, 3), nazarov_umeda_I(2, 2)]:
        assert duality_W(duality_W(x)).body == x.body


def test_duality_needs_small_shapes():
    # for |lam| > n the conjugation rule fails: pinned counterexample
    s = schur_element((2, 1), 2)
    w = duality_W(s)
    assert w.body != s.body  # (2,1) is self-conjugate, yet W moves it
    assert eigenvalue(s, (3,)) == 0
    assert eigenvalue(w, (3,)) == 6
    # the two agree on weights with at most two columns and two rows
    for mu in [(1,), (2,), (1, 1), (2, 1), (2, 2)]:
        assert eigenvalue(s, mu) == eigenvalue(w, mu)


def test_constructor_coefficients_are_exact():
    # the virtual constructors build integer bodies; normalized elements
    # may carry Fractions; nothing is ever a float
    integral = [
        capelli_bitableau(((1, 2),), ((2, 1),)),
        young_capelli(((1, 2),), ((1, 2),)),
        double_young_capelli(((1, 2),), ((1, 2),)),
        capelli_immanant((2, 1), (1, 2, 3), (1, 2, 3)),
        capelli_H(2, 3).body,
    ]
    for body in integral:
        assert body and {type(c) for c in body.values()} == {int}
    exact = [
        schur_element((2, 1), 2).body,
        nazarov_umeda_I(2, 2).body,
        nazarov_umeda_I_cper(2, 2).body,
        capelli_H_cdet(2, 2).body,
        duality_W(capelli_H(2, 2)).body,
        embed(capelli_H(1, 2)).body,
    ]
    for body in exact:
        assert body and {type(c) for c in body.values()} <= {int, Fraction}
    value = eigenvalue(capelli_H(2, 2), (1, 1))
    assert type(value) is Fraction and value == 2


def test_provenance_records_maps():
    assert duality_W(capelli_H(2, 2)).provenance == "W(H:2@n=2)"
    assert embed(capelli_H(1, 2)).provenance == "embed(H:1@n=2)"
    projected = olshanski_project(duality_W(capelli_H(2, 3)))
    assert projected.provenance == "project(W(H:2@n=3))"
    assert projected.body == nazarov_umeda_I(2, 2).body
