"""The level as a parameter.

Each family's exact tables (radial systems, order-0 pole coefficients, data
blocks, weights and charges) are built once with the level variable
x = k(k+2) formal and evaluated at the level of every full sector.
Evaluation is a ring homomorphism, so the result must be exactly what the
sector's own construction gives (``routes.per_level_*``), to the type and,
for the systems, to the term order the float matrices are summed in.  The
sectors built on their own are the six low ones.
"""

from fractions import Fraction

import numpy as np
import pytest

import routes
from dsvac import cauchy as cy
from dsvac import radial
from dsvac.radial import build_system
from dsvac.report import _at_every_level
from dsvac.sectors import (
    SCALAR1,
    X,
    Family,
    SectorLabel,
    XPoly,
    at_level,
    enumerate_sectors,
    generic_family,
    reduced_levels,
    space,
)
from dsvac.warped import EUCLIDEAN, LORENTZIAN, data_weight

Q = Fraction

SYSTEMS = (("D0", False), ("D1", False), ("D2", False), ("D0", True), ("D1", True))


def _identical(got, ref):
    """Equal exact arrays, shape and entry types included."""
    return got.shape == ref.shape and all(type(a) is type(b) and a == b
                                          for a, b in zip(got.flat, ref.flat))


def _in_order(mat):
    return [[list(entry.items()) for entry in row] for row in mat]


def _family_matches_per_level(k_max):
    systems = blocks = 0
    for sec in enumerate_sectors(k_max):
        if not space(sec).full:
            continue
        for signature in (EUCLIDEAN, LORENTZIAN):
            for op, mx in SYSTEMS:
                where = (sec, signature, op, mx)
                system = build_system(op, sec, signature, maxwell=mx)
                ref = routes.per_level_system(op, sec, signature, maxwell=mx)
                assert system.family is not None, where
                assert system.slot_ranks == ref.slot_ranks, where
                assert _in_order(system.m1) == _in_order(ref.m1), where
                assert _in_order(system.m0) == _in_order(ref.m0), where
                if signature == EUCLIDEAN and system.n:
                    got = radial.pole_leading_terms(system)
                    exact = radial.pole_leading_terms(ref)  # its own pole series
                    assert got == exact, where
                    assert all(type(c) is Fraction for m in got for row in m for c in row)
                systems += 1
        for name in cy.BLOCK_JETS:
            for mx in (False, True) if name in ("grad", "div") else (False,):
                assert _identical(cy.data_block(sec, name, mx),
                                  routes.per_level_data_block(sec, name, mx)), (sec, name, mx)
                blocks += 1
        for rank in (0, 1, 2):
            for signs in (False, True):
                assert _identical(data_weight(sec, rank, signs),
                                  routes.per_level_data_weight(sec, rank, signs)), (sec, rank)
            assert _identical(cy._exact_charge(sec, rank),
                              routes.per_level_exact_charge(sec, rank)), (sec, rank)
        assert _identical(cy._exact_physical_charge(sec),
                          routes.per_level_physical_charge(sec)), sec
    full = 3 * (k_max - 2)  # every level from 3 on, in each family
    assert (systems, blocks) == (10 * full, 9 * full)


def test_family_tables_evaluate_to_the_per_level_construction():
    _family_matches_per_level(48)


@pytest.mark.slow
def test_family_tables_evaluate_to_the_per_level_construction_to_k96():
    _family_matches_per_level(96)


def test_the_sectors_built_on_their_own_are_the_six_low_ones():
    # the reduced levels are the roots of the families' Gram determinants,
    # and exactly the sectors whose own reduction drops a generator
    assert {f: reduced_levels(f) for f in Family} == {
        Family.SCALAR: (0, 1, 2), Family.VECTOR: (1, 2), Family.TENSOR: (2,)}
    for sec in enumerate_sectors(96):
        reduced = sec.k in reduced_levels(sec.family)
        assert space(sec).full is not reduced, sec
        assert generic_family(sec) is (None if reduced else sec.family), sec
        assert (build_system("D2", sec, EUCLIDEAN).family is None) is reduced, sec
    assert all(space(f).full and generic_family(f) is None for f in Family)


def test_level_polynomials_evaluate_as_a_ring_homomorphism():
    p = (3 * X - 16) * X / 2 + Q(1, 3)
    q = X ** 2 - Q(4, 3) * X + 7
    for k in (0, 1, 3, 8, 48, 1000):
        x = k * (k + 2)
        for expr, value in ((p + q, p(x) + q(x)), (p * q, p(x) * q(x)),
                            (p - 2 * q, p(x) - 2 * q(x)), (q / 5 - p, q(x) / 5 - p(x))):
            assert at_level(expr, x) == value and type(at_level(expr, x)) is Fraction
    # a result of degree 0 is a Fraction, so a zero is never an XPoly
    assert type(X - X) is Fraction and X - X == 0
    assert (X + 1) * (X - 1) - X ** 2 == -1
    assert isinstance(p, XPoly) and p and p != p(8)
    arr = np.array([[p, Q(2)], [0, q]], dtype=object)
    got = at_level(arr, 8)
    assert got.tolist() == [[p(8), Q(2)], [0, q(8)]] and arr[0, 0] is p


def test_every_level_needs_the_families_and_the_reduced_levels():
    block = cy.data_block
    assert _at_every_level(lambda sec: block(sec, "sym_div") @ block(sec, "sym_grad"))
    # a polynomial that vanishes at some levels only, and a defect at one
    # reduced level only, are each caught
    assert not _at_every_level(lambda sec: np.array(
        [X - 24 if isinstance(sec, Family) else Q(0)], dtype=object))
    assert not _at_every_level(lambda sec: np.array([Q(sec == SCALAR1)], dtype=object))


def test_a_full_sector_reads_its_family_once(monkeypatch):
    # the family's system, pole coefficients and blocks are built once; a
    # new level evaluates them and builds nothing
    sec = SectorLabel(Family.TENSOR, 61)  # built by no other test
    build_system("D2", Family.TENSOR, EUCLIDEAN)
    radial.regular_basis(build_system("D2", SectorLabel(Family.TENSOR, 60), EUCLIDEAN))
    cy.data_block(Family.TENSOR, "sym_div")
    calls = []
    for module, name in ((radial.WarpedSector, "radial_matrices"),
                         (radial.WarpedSector, "cauchy_block"),
                         (radial, "pole_series_matrices")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, _real=real, _name=name, **k: calls.append(_name)
                            or _real(*a, **k))
    system = build_system("D2", sec, EUCLIDEAN)
    radial.regular_basis(system)
    cy.data_block(sec, "sym_div")
    assert calls == []
