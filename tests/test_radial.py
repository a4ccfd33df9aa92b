"""Radial machinery: exponents, regular bases, collocation agreement,
Lorentzian evolution with charge conservation and gauge intertwining."""

from fractions import Fraction
import warnings
from math import pi, sqrt

import numpy as np
import pytest

from dsvac import collocation
from dsvac.collocation import collocation_regular_basis
from dsvac.calderon import principal_angle
from dsvac.maxwell import maxwell_sectors
import dsvac.radial as radial
from dsvac.cauchy import charge_raw
from dsvac.radial import build_system, evolve_raw, regular_basis
from dsvac.sectors import Family, SectorLabel, enumerate_sectors
from dsvac.warped import EUCLIDEAN, LORENTZIAN, WarpedSector
from routes import (
    block_dims,
    collocation_matrix_loop,
    det_exact,
    evolve_lorentzian,
    evolve_raw_direct,
    frobenius_series,
    indicial_exponents,
    indicial_floats,
    indicial_matrix,
    series_float,
)

Q = Fraction


def test_indicial_exponents_examples():
    # TT sector: graded exponents (-k-2+2, ...) physical pair (-k, k+2):
    # exactly one nonnegative branch
    sysm = build_system("D2", SectorLabel(Family.TENSOR, 2), EUCLIDEAN)
    assert indicial_exponents(sysm, graded=False) == [Q(-2), Q(4)]
    # Vector(1) rank-1: the cos^2 solution has physical exponent 2
    sysm = build_system("D1", SectorLabel(Family.VECTOR, 1), EUCLIDEAN)
    assert indicial_exponents(sysm, graded=False) == [Q(-2), Q(2)]
    # symmetric poles: reflection symmetry makes the south set equal
    # (structural: the system matrices satisfy the parity relations, tested
    # in test_warped; here we just assert integrality and pairing)
    sysm = build_system("D2", SectorLabel(Family.SCALAR, 3), EUCLIDEAN)
    exps = indicial_exponents(sysm)
    assert all(e.denominator == 1 for e in exps)
    assert sorted(e + f for e, f in zip(exps, reversed(exps)))[0] == -2


@pytest.mark.parametrize("maxwell", [False, True], ids=["gravity", "maxwell"])
def test_integer_indicial_values_equal_exact_ones(maxwell):
    # L(rho + m) as one int64 expression: its floats equal those of the exact
    # Fraction evaluation bit for bit, at the first orders and at the last
    # ones, where the entries are largest
    checked = 0
    orders = [*range(41), *range(radial.ORDER_CAP - 40, radial.ORDER_CAP + 1)]
    for op in ("D1",) if maxwell else ("D2", "D1"):
        for sec in enumerate_sectors(12):
            sysm = build_system(op, sec, EUCLIDEAN, maxwell=maxwell)
            if not sysm.n:
                continue
            data, (p0, q0) = radial.indicial_data(sysm)
            exact = radial.pole_leading_terms(sysm)
            for rho, _, _ in data:
                got = radial._indicial_at_shifts(p0, q0, rho)[orders]
                ref = indicial_floats(*exact, rho, orders)
                assert got.tobytes() == ref.tobytes(), (op, sec, rho)
            checked += 1
    assert checked == (25 if maxwell else 61)


def _euclidean_systems(k_max):
    """Every Euclidean system with k <= ``k_max`` and a slot: gravity D2 and
    D1, Maxwell D1."""
    out = []
    for op, mx, secs in (("D2", False, enumerate_sectors(k_max)),
                         ("D1", False, enumerate_sectors(k_max)),
                         ("D1", True, maxwell_sectors(k_max))):
        for sec in secs:
            sysm = build_system(op, sec, EUCLIDEAN, maxwell=mx)
            if sysm.n:
                out.append(sysm)
    return out


def test_leading_terms_equal_those_of_the_full_order_series():
    # P0 and Q0 fix the indicial roots: the order-0 call gives the same
    # Fractions as the exact series at order 40, on every system k <= 24
    systems = _euclidean_systems(24)
    assert len(systems) == 170
    for sysm in systems:
        p_mats, q_mats = radial.pole_series_matrices(sysm, 40)
        n = sysm.n
        p0, q0 = radial.pole_leading_terms(sysm)
        assert p0 == [[p_mats[i][j].coeff(0) for j in range(n)] for i in range(n)]
        assert q0 == [[q_mats[i][j].coeff(0) for j in range(n)] for i in range(n)]


def _made_up_system(m1, m0):
    """A one-slot Euclidean system with the given coefficient dicts."""
    return radial.RadialSystem(SectorLabel(Family.SCALAR, 0), "D0", EUCLIDEAN,
                               False, 0, [0], [[m1]], [[m0]])


@pytest.mark.parametrize("m1, m0, match", [
    ({(-2, 0): Q(1)}, {}, "worse than first order"),  # P ~ x^-3
    ({}, {(-2, 0): Q(1)}, "worse than second order"),  # Q ~ x^-2
], ids=["first", "second"])
def test_pole_order_guards_fire_on_the_leading_terms(m1, m0, match):
    sysm = _made_up_system(m1, m0)
    with pytest.raises(RuntimeError, match=match):
        radial.pole_leading_terms(sysm)
    with pytest.raises(RuntimeError, match=match):
        radial.frobenius_solutions(sysm, radial.MATCH_RADIUS)


def test_indicial_exponents_are_every_root_of_the_indicial_determinant():
    # both sides are polynomials of degree 2n, so agreeing exactly at 2n + 1
    # integers makes them equal: the exponents are every root of det L, each
    # with its multiplicity, on every Euclidean system with k <= 24
    checked = 0
    for op, mx, secs in (("D2", False, enumerate_sectors(24)),
                         ("D1", False, enumerate_sectors(24)),
                         ("D0", False, enumerate_sectors(24)),
                         ("D1", True, maxwell_sectors(24)),
                         ("D0", True, maxwell_sectors(24))):
        for sec in secs:
            sysm = build_system(op, sec, EUCLIDEAN, maxwell=mx)
            if not sysm.n:
                continue
            data, _ = radial.indicial_data(sysm)
            p0, q0 = radial.pole_leading_terms(sysm)
            assert all(isinstance(rho, int) and seeds for rho, _, seeds in data)
            for x in range(-sysm.n, sysm.n + 1):
                prod = 1
                for rho, mult, _ in data:
                    prod *= (x - rho) ** mult
                assert prod == det_exact(indicial_matrix(p0, q0, x)), (op, mx, sec, x)
            checked += 1
    assert checked == 220


@pytest.mark.parametrize("p0, q0, match", [
    (0, 1, r"exponent (-0\.618034|1\.61803) of D0 Scalar\(0\) is not an integer"),
    (9999999, -1,  # rho^2 - 10^7 rho + 1: roots 1e-7 and 10^7 - 1e-7
     r"indicial matrix of D0 Scalar\(0\) is regular at rho = 0"),
], ids=["irrational", "near-integer"])
def test_an_exponent_that_is_not_an_integer_names_its_system(p0, q0, match, monkeypatch):
    # a root that does not round to an integer raises, and so does one within
    # the rounding tolerance of an integer that L does not vanish at
    monkeypatch.setattr(radial, "pole_leading_terms",
                        lambda system: ([[Q(p0)]], [[Q(q0)]]))
    sysm = _made_up_system({}, {})
    with pytest.raises(RuntimeError, match=match):
        radial.indicial_data(sysm)
    with pytest.raises(RuntimeError, match=match):
        radial.frobenius_solutions(sysm, radial.MATCH_RADIUS)


def test_pole_coefficients_that_are_not_integers_name_their_system(monkeypatch):
    # P0 = [[0, 1/2], [0, 0]], Q0 = 0: det L = (rho (rho - 1))^2 has the
    # integer roots 0 and 1, but P0 is not an integer matrix
    half = [[Q(0), Q(1, 2)], [Q(0), Q(0)]]
    monkeypatch.setattr(radial, "pole_leading_terms",
                        lambda system: (half, [[Q(0)] * 2 for _ in range(2)]))
    sysm = radial.RadialSystem(SectorLabel(Family.SCALAR, 0), "D0", EUCLIDEAN, False,
                               0, [0, 0], [[{}] * 2] * 2, [[{}] * 2] * 2)
    match = r"P0, Q0 of D0 Scalar\(0\) are not integer matrices"
    with pytest.raises(RuntimeError, match=match):
        radial.indicial_data(sysm)
    with pytest.raises(RuntimeError, match=match):
        radial.frobenius_solutions(sysm, radial.MATCH_RADIUS)


@pytest.mark.parametrize("name", ["M1", "M0"])
def test_a_broken_reflection_parity_names_operator_and_sector(name):
    # a diagonal entry of M1 must be odd in adot and one of M0 even: give
    # it a term of the wrong parity
    sec = SectorLabel(Family.SCALAR, 2)
    sysm = build_system("D1", sec, EUCLIDEAN)
    m1, m0 = ([[dict(entry) for entry in row] for row in m] for m in (sysm.m1, sysm.m0))
    (m1 if name == "M1" else m0)[0][0][(0, 0 if name == "M1" else 1)] = Q(1)
    with pytest.raises(RuntimeError,
                       match=rf"D1 Scalar\(2\): reflection parity broken in {name}"):
        radial._check_reflection_parity("D1", sec, 1, sysm.slot_ranks, m1, m0)


def test_a_system_without_slots_has_no_regular_basis():
    sysm = build_system("D1", SectorLabel(Family.TENSOR, 2), EUCLIDEAN)
    assert sysm.n == 0
    for basis in (regular_basis, radial.solution_profile, collocation_regular_basis):
        with pytest.raises(ValueError, match=r"D1 TensorTT\(2\) has no slots"):
            basis(sysm)


def test_pole_tables_name_an_untabulated_monomial():
    sysm = _made_up_system({}, {(1, 0): Q(1), (0, 0): Q(2)})
    with pytest.raises(ValueError, match=r"a\^1 adot\^0"):
        radial.pole_tables(sysm)


def _float_tables_vs_exact(k_max, monkeypatch):
    # each float table against the exact series, under a cap of 120 (the
    # tables hold every order to the cap), relative to its largest entry:
    # measured worst 8.5e-17 over k <= 24, at VectorTransverse(12) D1, Q table
    order = 120
    monkeypatch.setattr(radial, "ORDER_CAP", order)
    for sysm in _euclidean_systems(k_max):
        exact = radial.pole_series_matrices(sysm, order)
        tables = radial.pole_tables(sysm)
        for name, got, mats in zip("PQ", tables, exact):
            ref = series_float(mats, sysm.n, order)
            assert got.shape == ref.shape
            err = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
            assert err <= 4 * EPS, (sysm.operator_id, sysm.sector, name, err)


def test_float_pole_tables_match_the_exact_series(monkeypatch):
    _float_tables_vs_exact(8, monkeypatch)


@pytest.mark.slow
def test_float_pole_tables_match_the_exact_series_to_k24(monkeypatch):
    _float_tables_vs_exact(24, monkeypatch)


def test_batched_recursion_matches_the_per_seed_one():
    # all seeds of an exponent in one block against one seed at a time, on
    # the same tables to the order the block picked at the equator: the
    # einsum and the solves sum in another order, so the coefficients agree
    # to rounding relative to the largest term of the series at the equator
    # (measured worst 8.6e-16 over k <= 8)
    blocks = 0
    for sysm in _euclidean_systems(8):
        reg, _ = radial.regular_exponents(sysm)
        p0, q0 = radial.pole_leading_terms(sysm)
        p_f, q_f = radial.pole_tables(sysm)
        *_, series = radial.frobenius_solutions(sysm, pi / 2)
        columns = iter(series)
        for rho, seeds in reg:
            blocks += len(seeds) > 1
            others = {r - rho for r, _ in reg if r > rho}
            for seed in seeds:
                coeffs = next(columns)[2]
                order = len(coeffs) - 1
                l_shift = indicial_floats(p0, q0, rho, range(order + 1))
                ref = frobenius_series(rho, seed, l_shift, p_f, q_f, sysm.n,
                                       order, others)
                xp = (pi / 2) ** np.arange(order + 1)[:, None]
                dev = np.max(np.abs(coeffs - ref) * xp)
                assert dev <= 16 * EPS * np.max(np.abs(ref) * xp), (sysm.sector, rho)
    assert blocks == 8  # exponents with more than one seed


def _tail_test_holds(block, rho, shifts, x0, order):
    """The tail test of ``radial._frobenius_block`` on the columns of one
    exponent's coefficients truncated at ``order``."""
    terms = np.abs(block[:order + 1]) * x0 ** (rho + np.arange(order + 1)[:, None, None]
                                              + shifts[:, None])
    mags = terms.max(axis=1)  # (order + 1, seeds)
    return np.all(mags[order - 2:].max(axis=0) <= radial.TAIL_TOL * mags.max(axis=0))


def test_each_regular_basis_runs_its_recursion_once(monkeypatch):
    # no coefficient, pole table or L(rho + m) is computed twice: the tables
    # are built once per system and L(rho + m) once per exponent, each
    # exponent recurs once on those, and the order it stops at is the first
    # at which the tail test holds at MATCH_RADIUS for every seed (k <= 8
    # has 8 exponents with two seeds)
    blocks, tables, shifts = [], [], []
    for name, log in (("_frobenius_block", blocks), ("pole_tables", tables),
                      ("_indicial_at_shifts", shifts)):
        def spy(*args, _real=getattr(radial, name), _log=log, **kwargs):
            out = _real(*args, **kwargs)
            _log.append((args, out))
            return out
        monkeypatch.setattr(radial, name, spy)
    x0 = radial.MATCH_RADIUS
    for sysm in _euclidean_systems(8):
        del blocks[:], tables[:], shifts[:]
        radial._regular_basis.__wrapped__(sysm, radial.INTEGRATOR_TOL)
        reg, _ = radial.regular_exponents(sysm)
        assert len(tables) == 1
        (_, (p_f, q_f)), = tables
        assert [args[2] for args, _ in shifts] == [rho for rho, _ in reg]
        assert [args[0] for args, _ in blocks] == [rho for rho, _ in reg]
        for (rho, _), (args, (block, ratio)), (_, lms) in zip(reg, blocks, shifts):
            assert args[2] is lms and args[3] is p_f and args[4] is q_f
            order = len(block) - 1
            assert ratio <= radial.TAIL_TOL
            sh = np.array(sysm.slot_ranks, dtype=float)
            assert _tail_test_holds(block, float(rho), sh, x0, order)
            assert not _tail_test_holds(block, float(rho), sh, x0, order - 1), \
                (sysm.sector, rho, order)


def test_vector1_regular_datum():
    sysm = build_system("D1", SectorLabel(Family.VECTOR, 1), EUCLIDEAN)
    b = regular_basis(sysm)
    v = b.data_matrix[:, 0]
    assert abs(abs(v[0]) - 1) < 1e-9 and abs(v[1]) < 1e-9


@pytest.mark.parametrize("spec", [
    (Family.TENSOR, 3, "D2", False), (Family.SCALAR, 2, "D2", False),
    (Family.VECTOR, 2, "D2", False), (Family.SCALAR, 3, "D1", False),
    (Family.SCALAR, 2, "D1", True), (Family.SCALAR, 1, "D0", True),
])
def test_collocation_agreement(spec):
    fam, k, op, mx = spec
    sysm = build_system(op, SectorLabel(fam, k), EUCLIDEAN, maxwell=mx)
    frob = regular_basis(sysm).data_matrix
    coll, gap = collocation_regular_basis(sysm)
    assert principal_angle(frob, coll) < 1e-9
    assert gap > 1e4


def test_collocation_matrix_matches_loop_assembly():
    # the vectorised assembly against the node-by-node loop, to rounding
    # relative to each row's norm (the scale the oracle normalises by)
    checked = 0
    for mx, op in ((False, "D2"), (True, "D1")):
        for sec in enumerate_sectors(8):
            sysm = build_system(op, sec, EUCLIDEAN, maxwell=mx)
            if not sysm.n:
                continue
            s_nodes = np.linspace(0.01, pi / 2, 40)
            cheb = collocation._cheb_basis(24, s_nodes, pi / 2)
            got = collocation._collocation_matrix(sysm, s_nodes, cheb)
            ref = collocation_matrix_loop(sysm, s_nodes, cheb)
            assert got.shape == ref.shape == (40 * sysm.n, 24 * sysm.n)
            scale = np.linalg.norm(ref, axis=1, keepdims=True)
            assert np.all(np.abs(got - ref) <= 16 * EPS * scale), (op, sec)
            checked += 1
    assert checked > 30


def test_regular_basis_is_built_once_and_read_only():
    sysm = build_system("D2", SectorLabel(Family.SCALAR, 3), EUCLIDEAN)
    basis = regular_basis(sysm)
    assert regular_basis(sysm, tol=radial.INTEGRATOR_TOL) is basis
    assert regular_basis(sysm, tol=1e-10) is not basis
    with pytest.raises(ValueError):
        basis.data_matrix[0, 0] = 1.0
    with pytest.raises(AttributeError):
        basis.data_matrix = None


def _regular_systems(k_max):
    """The systems of the method-independence candidates: gravity D2 and
    Maxwell D1 in every sector up to ``k_max``."""
    out = []
    for op, mx, secs in (("D2", False, enumerate_sectors(k_max)),
                         ("D1", True, maxwell_sectors(k_max))):
        for sec in secs:
            sysm = build_system(op, sec, EUCLIDEAN, maxwell=mx)
            if sysm.n:
                out.append(sysm)
    return out


def _series_vs_march(systems):
    for sysm in systems:
        val, der, _ = radial.frobenius_solutions(sysm, pi / 2)
        series = np.vstack([val, -der])  # (value, -d/ds value) at s = 0
        ang = principal_angle(series, regular_basis(sysm).data_matrix)
        assert ang <= 1e-11, (sysm.operator_id, sysm.sector, ang)


def test_series_at_equator_matches_marched_basis():
    # two routes to the regular subspace: the Frobenius series summed to the
    # equator, and the series summed to MATCH_RADIUS marched there
    _series_vs_march(_regular_systems(8))


@pytest.mark.slow
def test_series_at_equator_matches_marched_basis_to_k48():
    # every Euclidean system with k <= 48; measured worst 1.4e-12, at
    # Scalar(44) D2 (the march from 0.15 was 2.8e-8 off at TensorTT(47))
    systems = _euclidean_systems(48)
    assert len(systems) == 338
    _series_vs_march(systems)


@pytest.mark.slow
def test_marched_basis_matches_collocation_to_k48():
    # every method-independence candidate with k <= 48; measured worst
    # 1.0e-12, at Scalar(44) D2
    systems = _regular_systems(48)
    assert len(systems) == 241
    for sysm in systems:
        coll, _ = collocation_regular_basis(sysm)
        ang = principal_angle(regular_basis(sysm).data_matrix, coll)
        assert ang <= 1e-11, (sysm.operator_id, sysm.sector, ang)


@pytest.mark.parametrize("sec", [SectorLabel(Family.SCALAR, 5),
                                 SectorLabel(Family.TENSOR, 2)])
def test_equator_series_obeys_the_full_order_recursion(sec):
    # every coefficient to the order picked at the equator satisfies
    # L(rho+m) c_m = sum_j<m (P_(m-j) (rho+j) + Q_(m-j)) c_j with the exact
    # pole tables at that order; tables cut off at a lower order leave the
    # high coefficients off by the dropped terms
    sysm = build_system("D2", sec, EUCLIDEAN)
    *_, series = radial.frobenius_solutions(sysm, pi / 2)
    order = max(len(c) for *_, c in series) - 1
    p_mats, q_mats = radial.pole_series_matrices(sysm, order)
    p_f = series_float(p_mats, sysm.n, order)
    q_f = series_float(q_mats, sysm.n, order)
    p0, q0 = radial.pole_leading_terms(sysm)
    for rho, _, c in series:
        l_shift = indicial_floats(p0, q0, int(rho), range(len(c)))
        for m in range(1, len(c)):
            lm = l_shift[m]
            terms = [(p_f[m - j] * (rho + j) + q_f[m - j]) @ c[j] for j in range(m)]
            scale = np.abs(lm) @ np.abs(c[m]) + sum(np.abs(t) for t in terms)
            resid = np.abs(lm @ c[m] - sum(terms))
            assert np.all(resid <= 1e-10 * scale), (sec, m)


def test_series_tail_guard_fires_at_the_equator(monkeypatch):
    # the TT(2) series needs more than 40 orders at x = pi/2 (tail/peak
    # about 1e-11 there); under a cap of 40 the guard says so, and where
    sysm = build_system("D2", SectorLabel(Family.TENSOR, 2), EUCLIDEAN)
    *_, series = radial.frobenius_solutions(sysm, pi / 2)
    assert len(series[0][2]) - 1 > 40
    monkeypatch.setattr(radial, "ORDER_CAP", 40)
    with pytest.raises(RuntimeError, match=r"tail not converged for D2 TensorTT\(2\) "
                                           r"at x0=1\.5708 within the order cap 40"):
        radial.frobenius_solutions(sysm, pi / 2)


CHARGE_CASES = [
    (Family.SCALAR, 2, "D2", False), (Family.SCALAR, 1, "D2", False),
    (Family.VECTOR, 1, "D2", False), (Family.TENSOR, 2, "D2", False),
    (Family.SCALAR, 3, "D1", False), (Family.VECTOR, 2, "D1", True),
    (Family.SCALAR, 2, "D0", True), (Family.SCALAR, 0, "D0", False),
]


@pytest.mark.parametrize("spec", CHARGE_CASES)
def test_charge_conservation(spec):
    fam, k, op, mx = spec
    sysm = build_system(op, SectorLabel(fam, k), LORENTZIAN, maxwell=mx)
    if sysm.n == 0:
        return
    rng = np.random.default_rng(3)
    u0 = rng.normal(size=sysm.n) + 1j * rng.normal(size=sysm.n)
    du0 = rng.normal(size=sysm.n) + 1j * rng.normal(size=sysm.n)
    t_grid = np.linspace(-2.0, 2.0, 9)
    (us, dus), = evolve_raw([(sysm, u0, du0)], t_grid)
    q0 = charge_raw(sysm, u0, du0, u0, du0, 0.0)
    # conservation relative to the trajectory size (some sectors grow
    # exponentially, so absolute drift scales with the solution)
    scale = max(float(np.max(np.abs(us)) ** 2 + np.max(np.abs(dus)) ** 2), 1.0)
    for i, t in enumerate(t_grid):
        qt = charge_raw(sysm, us[i], dus[i], us[i], dus[i], t)
        assert abs(qt - q0) / scale < 1e-8, (spec, t)


def _m_num_reference(system, s):
    """M1(s), M0(s) by the nested loop over the exact coefficient dicts,
    with the sums of the absolute values of their terms."""
    a, adot = system._ab(s)
    n = system.n
    m1, m0, abs1, abs0 = (np.zeros((n, n)) for _ in range(4))
    for i in range(n):
        for j in range(n):
            for mat, out, mag in ((system.m1, m1, abs1), (system.m0, m0, abs0)):
                for (ia, jd), v in mat[i][j].items():
                    term = float(v) * a ** ia * (adot if jd else 1.0)
                    out[i, j] += term
                    mag[i, j] += abs(term)
    return m1, m0, abs1, abs0


M_NUM_SPECS = [
    (Family.SCALAR, 2, "D2", False), (Family.VECTOR, 2, "D2", False),
    (Family.TENSOR, 3, "D2", False), (Family.SCALAR, 3, "D1", False),
    (Family.VECTOR, 2, "D1", True), (Family.SCALAR, 1, "D0", True),
]
EPS = np.finfo(float).eps


@pytest.mark.parametrize("signature", [EUCLIDEAN, LORENTZIAN])
@pytest.mark.parametrize("spec", M_NUM_SPECS, ids=str)
def test_m_num_matches_nested_loop(spec, signature):
    # one contraction sums the terms in another order than the nested loop,
    # so the entries agree to the rounding bound of the sum, not bitwise;
    # the [0, I] rows hold no sum and stay exact
    fam, k, op, mx = spec
    sysm = build_system(op, SectorLabel(fam, k), signature, maxwell=mx)
    n = sysm.n
    if spec[:3] == (Family.SCALAR, 2, "D2"):
        assert n == 4
    for s in np.linspace(-1.5, 1.5, 41):
        for arg in (s, float(s)):
            got = sysm.m_num(arg)
            m1, m0, abs1, abs0 = _m_num_reference(sysm, arg)
            assert got.shape == (2 * n, 2 * n)
            assert np.array_equal(got[:n], np.hstack([np.zeros((n, n)), np.eye(n)]))
            assert np.all(np.abs(got[n:, n:] - m1) <= 4 * EPS * abs1), (spec, s)
            assert np.all(np.abs(got[n:, :n] - m0) <= 4 * EPS * abs0), (spec, s)


@pytest.mark.parametrize("signature", [EUCLIDEAN, LORENTZIAN])
@pytest.mark.parametrize("spec", M_NUM_SPECS[:3], ids=str)
def test_rhs_applies_the_first_order_matrix(spec, signature):
    # rhs is A(s) Y for 1 to 4 stacked solution columns: the u rows are the
    # u' rows exactly, the u' rows M1 u' + M0 u to the rounding bounds of
    # m_num and of the 2n-term dot products on both sides
    fam, k, op, mx = spec
    sysm = build_system(op, SectorLabel(fam, k), signature, maxwell=mx)
    n = sysm.n
    rng = np.random.default_rng(5)
    for s in (-1.2, 0.0, 0.4, 1.3):
        m1, m0, abs1, abs0 = _m_num_reference(sysm, s)
        for ncol in range(1, 5):
            y = rng.normal(size=(2 * n, ncol))
            out = sysm.rhs(s, y.ravel())
            assert out.shape == (2 * n * ncol,)
            out = out.reshape(2 * n, ncol)
            mat = sysm.m_num(s)
            assert np.all(np.abs(out - mat @ y) <= 2 * n * EPS * (np.abs(mat) @ np.abs(y)))
            assert np.array_equal(out[:n], y[n:])
            bound = (6 * n + 4) * EPS * (abs1 @ np.abs(y[n:]) + abs0 @ np.abs(y[:n]))
            assert np.all(np.abs(out[n:] - (m1 @ y[n:] + m0 @ y[:n])) <= bound), (s, ncol)


def _count_solves(monkeypatch, sizes=None):
    """The rtol of every ``solve_ivp`` call (which must equal its atol),
    and with ``sizes`` the length of its initial state."""
    calls = []
    real_solve = radial.solve_ivp

    def counting(fun, t_span, y0, **kwargs):
        assert kwargs["atol"] == kwargs["rtol"]
        calls.append(kwargs["rtol"])
        if sizes is not None:
            sizes.append(len(y0))
        return real_solve(fun, t_span, y0, **kwargs)

    monkeypatch.setattr(radial, "solve_ivp", counting)
    return calls


def test_zero_data_evolves_to_zero(monkeypatch):
    sysm = build_system("D2", SectorLabel(Family.TENSOR, 2), LORENTZIAN)
    calls = _count_solves(monkeypatch)
    traj = evolve_lorentzian(sysm, np.zeros(2, complex), [-1.0, 0.5])
    assert np.max(np.abs(traj)) == 0
    assert calls == []


def _deviation(got, ref):
    """Largest entry of got - ref over u and u-dot, relative to the largest
    entry of the reference trajectory."""
    dev = max(np.max(np.abs(g - r)) for g, r in zip(got, ref))
    return dev / max(np.max(np.abs(r)) for r in ref)


@pytest.mark.parametrize("part", ["real", "imag"])
def test_single_part_data_matches_reference(part, monkeypatch):
    # a part with all-zero data is not integrated; the trajectory is the
    # one obtained by integrating both parts
    sysm = build_system("D2", SectorLabel(Family.SCALAR, 2), LORENTZIAN)
    rng = np.random.default_rng(11)
    fac = 1.0 if part == "real" else 1j
    u0 = fac * rng.normal(size=sysm.n)
    du0 = fac * rng.normal(size=sysm.n)
    t_grid = np.array([-1.5, -0.2, 0.0, 0.7, 2.0])
    ref = evolve_raw_direct(sysm, u0, du0, t_grid)
    calls = _count_solves(monkeypatch)
    got, = evolve_raw([(sysm, u0, du0)], t_grid)
    assert len(calls) == 1  # one part, both time signs in one solve
    assert _deviation(got, ref) <= 1e-9


def test_evolve_raw_tolerance(monkeypatch):
    sysm = build_system("D1", SectorLabel(Family.SCALAR, 0), LORENTZIAN,
                        maxwell=True)
    calls = _count_solves(monkeypatch)
    evolve_raw([(sysm, np.array([1.0 + 1j]), np.array([0.0]))], [-1.0, 1.0],
               tol=1e-10)
    assert calls == [1e-10]  # a batch of one is solved at tol itself


T_GRID = np.array([-2.0, -0.7, -0.3, 0.0, 0.3, 0.7, 0.7, 1.1, 2.0])  # a repeated time


@pytest.fixture(scope="module")
def lorentzian_cases():
    """(maxwell, system, u0, du0, direct trajectory on ``T_GRID``) for every
    Lorentzian system with k <= 8: gravity D0/D1/D2, Maxwell D0/D1, random
    complex data."""
    rng = np.random.default_rng(2026)
    cases = []
    for maxwell in (False, True):
        for op in ("D0", "D1") if maxwell else ("D0", "D1", "D2"):
            for sec in enumerate_sectors(8):
                sysm = build_system(op, sec, LORENTZIAN, maxwell=maxwell)
                if not sysm.n:
                    continue
                u0, du0 = (rng.normal(size=sysm.n) + 1j * rng.normal(size=sysm.n)
                           for _ in range(2))
                cases.append((maxwell, sysm, u0, du0,
                              evolve_raw_direct(sysm, u0, du0, T_GRID)))
    return cases


@pytest.mark.parametrize("maxwell", [False, True], ids=["gravity", "maxwell"])
def test_reflected_evolution_matches_direct_integration(maxwell, lorentzian_cases,
                                                        monkeypatch):
    # u(-t) = kappa v(t) for the reflected data: one forward solve agrees
    # with integrating backward, on every Lorentzian system with k <= 8
    calls = _count_solves(monkeypatch)
    cases = [case for case in lorentzian_cases if case[0] == maxwell]
    for _, sysm, u0, du0, ref in cases:
        before = len(calls)
        got, = evolve_raw([(sysm, u0, du0)], T_GRID)
        assert calls[before:] == [radial.INTEGRATOR_TOL], sysm.sector
        assert _deviation(got, ref) <= 1e-9, sysm.sector
        assert np.array_equal(got[0][5], got[0][6])  # the repeated time
    assert len(cases) == (26 if maxwell else 50)


def _chunked(sizes, dims):
    """``dims`` cut into consecutive runs whose sums are ``sizes``."""
    runs, start = [], 0
    for size in sizes:
        end = start
        while sum(dims[start:end]) < size:
            end += 1
        assert sum(dims[start:end]) == size
        runs.append(dims[start:end])
        start = end
    assert start == len(dims)
    return runs


@pytest.mark.parametrize("tol", [radial.INTEGRATOR_TOL, 1e-13], ids=["default", "1e-13"])
def test_one_batch_of_every_lorentzian_system_matches_direct_integration(
        tol, lorentzian_cases, monkeypatch):
    # the 76 systems as one block-diagonal solve, each block held to its own
    # tolerance: a chunk of blocks with d_i real components runs at
    # tol * sqrt(d_min / D), and a chunk ends where one more block would take
    # that below scipy's rtol floor (at 1e-13 the batch needs several)
    sizes = []
    calls = _count_solves(monkeypatch, sizes)
    batch = [(sysm, u0, du0) for _, sysm, u0, du0, _ in lorentzian_cases]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = evolve_raw(batch, T_GRID, tol=tol)
    dims = block_dims(batch, T_GRID)
    assert dims == [8 * sysm.n for sysm, *_ in batch]  # complex data, both signs
    runs = _chunked(sizes, dims)
    assert calls == [tol * sqrt(min(run) / sum(run)) for run in runs]
    assert min(calls) >= radial.RTOL_FLOOR
    assert (len(runs) == 1) == (tol == radial.INTEGRATOR_TOL)
    for run, following in zip(runs, runs[1:]):  # each run as long as the floor allows
        grown = run + following[:1]
        assert tol * sqrt(min(grown) / sum(grown)) < radial.RTOL_FLOOR
    for (_, sysm, _, _, ref), traj in zip(lorentzian_cases, got):
        assert _deviation(traj, ref) <= 1e-9, (sysm.operator_id, sysm.sector)
        assert np.array_equal(traj[0][5], traj[0][6])


def test_evolve_raw_rejects_a_tolerance_below_the_floor():
    sysm = build_system("D1", SectorLabel(Family.SCALAR, 0), LORENTZIAN, maxwell=True)
    with pytest.raises(ValueError, match="floor"):
        evolve_raw([(sysm, np.array([1.0]), np.array([0.0]))], [1.0],
                   tol=radial.RTOL_FLOOR / 2)


@pytest.mark.parametrize("sector", [SectorLabel(Family.SCALAR, 2),
                                    SectorLabel(Family.SCALAR, 1),
                                    SectorLabel(Family.VECTOR, 2)], ids=str)
def test_gauge_intertwining_along_evolution(sector):
    # evolving rank-1 data then applying the gauge block at time t equals
    # applying at time 0 then evolving the rank-2 data (raw components)
    sys1 = build_system("D1", sector, LORENTZIAN)
    sys2 = build_system("D2", sector, LORENTZIAN)
    ws = WarpedSector(sector, LORENTZIAN)

    def k21_raw(t):
        a, adot = np.cosh(t) ** 2, np.sinh(2 * t)
        return np.array(ws.cauchy_block(
            lambda z: ws.trace_reversal(ws.d(z, 1)), 1, 2,
            elim=lambda: ws.radial_matrices(1), at=(a, adot)), dtype=float)

    rng = np.random.default_rng(5)
    w0 = rng.normal(size=sys1.n)
    dw0 = rng.normal(size=sys1.n)
    t_grid = np.array([-1.5, -0.5, 0.8, 2.0])
    raw2_0 = k21_raw(0.0) @ np.concatenate([w0, dw0])
    (u1, du1), (u2, du2) = evolve_raw([(sys1, w0, dw0),
                                       (sys2, raw2_0[:sys2.n], raw2_0[sys2.n:])], t_grid)
    for i, t in enumerate(t_grid):
        lhs = k21_raw(t) @ np.concatenate([u1[i].real, du1[i].real])
        rhs = np.concatenate([u2[i].real, du2[i].real])
        assert np.max(np.abs(lhs - rhs)) < 1e-8, (sector, t)


def test_adjoint_intertwining_along_evolution():
    # same for the adjoint block on rank-2 solutions
    sector = SectorLabel(Family.SCALAR, 2)
    sys2 = build_system("D2", sector, LORENTZIAN)
    sys1 = build_system("D1", sector, LORENTZIAN)
    ws = WarpedSector(sector, LORENTZIAN)

    def kdag_raw(t):
        a, adot = np.cosh(t) ** 2, np.sinh(2 * t)
        return np.array(ws.cauchy_block(
            lambda z: ws.delta(z, 2), 2, 1, elim=lambda: ws.radial_matrices(2),
            at=(a, adot)), dtype=float)

    rng = np.random.default_rng(8)
    g0 = rng.normal(size=sys2.n)
    dg0 = rng.normal(size=sys2.n)
    t_grid = np.array([-1.0, 1.3])
    raw1_0 = kdag_raw(0.0) @ np.concatenate([g0, dg0])
    (u2, du2), (u1, du1) = evolve_raw([(sys2, g0, dg0),
                                       (sys1, raw1_0[:sys1.n], raw1_0[sys1.n:])], t_grid)
    for i, t in enumerate(t_grid):
        lhs = kdag_raw(t) @ np.concatenate([u2[i].real, du2[i].real])
        rhs = np.concatenate([u1[i].real, du1[i].real])
        assert np.max(np.abs(lhs - rhs)) < 1e-8, t


def test_maxwell_level_zero_profile():
    # the level-zero Maxwell solution is alpha / cosh^3(t) dt
    sysm = build_system("D1", SectorLabel(Family.SCALAR, 0), LORENTZIAN,
                        maxwell=True)
    t_grid = np.linspace(-2, 2, 17)
    (us, dus), = evolve_raw([(sysm, np.array([1.0]), np.array([0.0]))], t_grid)
    expect = 1.0 / np.cosh(t_grid) ** 3
    assert np.max(np.abs(us[:, 0].real - expect)) < 1e-8


def test_lorentzian_data_convention():
    # evolve_lorentzian converts (f0, f1) with f1 = (1/i) du/dt
    sysm = build_system("D2", SectorLabel(Family.TENSOR, 2), LORENTZIAN)
    f = np.array([0.7, 0.3j])
    traj = evolve_lorentzian(sysm, f, [0.0])
    assert np.max(np.abs(traj[0] - f)) < 1e-12
