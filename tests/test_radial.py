"""Radial machinery: exponents, regular bases, collocation agreement,
Lorentzian evolution with charge conservation and gauge intertwining."""

from fractions import Fraction
from math import pi

import numpy as np
import pytest

from dsvac.collocation import collocation_regular_basis
from dsvac.calderon import principal_angle
import dsvac.radial as radial
from dsvac.radial import (
    INTEGRATOR_TOL,
    build_system,
    charge_raw,
    evolve_lorentzian,
    evolve_raw,
    indicial_exponents,
    regular_basis,
)
from dsvac.sectors import Family, SectorLabel, enumerate_sectors
from dsvac.warped import EUCLIDEAN, LORENTZIAN, WarpedSector

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
    us, dus = evolve_raw(sysm, u0, du0, t_grid)
    q0 = charge_raw(sysm, u0, du0, u0, du0, 0.0)
    # conservation relative to the trajectory size (some sectors grow
    # exponentially, so absolute drift scales with the solution)
    scale = max(float(np.max(np.abs(us)) ** 2 + np.max(np.abs(dus)) ** 2), 1.0)
    for i, t in enumerate(t_grid):
        qt = charge_raw(sysm, us[i], dus[i], us[i], dus[i], t)
        assert abs(qt - q0) / scale < 1e-8, (spec, t)


def _m_num_reference(system, s):
    """M1(s), M0(s) by the nested loop over the exact coefficient dicts."""
    a, adot = system._ab(s)
    n = system.n
    m1 = np.zeros((n, n))
    m0 = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            for (ia, jd), v in system.m1[i][j].items():
                m1[i, j] += float(v) * a ** ia * (adot if jd else 1.0)
            for (ia, jd), v in system.m0[i][j].items():
                m0[i, j] += float(v) * a ** ia * (adot if jd else 1.0)
    return m1, m0


@pytest.mark.parametrize("signature", [EUCLIDEAN, LORENTZIAN])
@pytest.mark.parametrize("spec", [
    (Family.SCALAR, 2, "D2", False), (Family.VECTOR, 2, "D2", False),
    (Family.TENSOR, 3, "D2", False), (Family.SCALAR, 3, "D1", False),
    (Family.VECTOR, 2, "D1", True), (Family.SCALAR, 1, "D0", True),
], ids=str)
def test_m_num_matches_nested_loop(spec, signature):
    fam, k, op, mx = spec
    sysm = build_system(op, SectorLabel(fam, k), signature, maxwell=mx)
    if spec[:3] == (Family.SCALAR, 2, "D2"):
        assert sysm.n == 4
    for s in np.linspace(-1.5, 1.5, 41):
        for arg in (s, float(s)):
            got = sysm.m_num(arg)
            ref = _m_num_reference(sysm, arg)
            assert np.array_equal(got[0], ref[0]), (spec, s)
            assert np.array_equal(got[1], ref[1]), (spec, s)


def _evolve_raw_reference(system, u0, du0, t_grid):
    """evolve_raw integrating both parts of the data, zero or not."""
    n = system.n
    u0 = np.asarray(u0, dtype=complex)
    du0 = np.asarray(du0, dtype=complex)
    t_grid = np.asarray(t_grid, dtype=float)
    out_u = np.zeros((len(t_grid), n), dtype=complex)
    out_du = np.zeros((len(t_grid), n), dtype=complex)
    for p in np.nonzero(t_grid == 0.0)[0]:
        out_u[p] = u0
        out_du[p] = du0
    for part_is_real, pu, pdu in ((True, u0.real, du0.real),
                                  (False, u0.imag, du0.imag)):
        for sign in (+1, -1):
            mask = (t_grid > 0) if sign > 0 else (t_grid < 0)
            ts = t_grid[mask]
            if ts.size == 0:
                continue
            ts_sorted = np.sort(ts) if sign > 0 else np.sort(ts)[::-1]
            y0 = np.concatenate([pu, pdu])
            sol = radial.solve_ivp(system.rhs, (0.0, ts_sorted[-1]), y0,
                                   method="DOP853", rtol=INTEGRATOR_TOL,
                                   atol=INTEGRATOR_TOL, t_eval=ts_sorted)
            fac = 1.0 if part_is_real else 1j
            for idx_t, tv in enumerate(ts_sorted):
                for p in np.nonzero(t_grid == tv)[0]:
                    out_u[p] += fac * sol.y[:n, idx_t]
                    out_du[p] += fac * sol.y[n:, idx_t]
    return out_u, out_du


def _count_solves(monkeypatch):
    calls = []
    real_solve = radial.solve_ivp

    def counting(*args, **kwargs):
        calls.append(kwargs["rtol"])
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(radial, "solve_ivp", counting)
    return calls


def test_zero_data_evolves_to_zero(monkeypatch):
    sysm = build_system("D2", SectorLabel(Family.TENSOR, 2), LORENTZIAN)
    calls = _count_solves(monkeypatch)
    traj = evolve_lorentzian(sysm, np.zeros(2, complex), [-1.0, 0.5])
    assert np.max(np.abs(traj)) == 0
    assert calls == []


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
    ref_u, ref_du = _evolve_raw_reference(sysm, u0, du0, t_grid)
    calls = _count_solves(monkeypatch)
    us, dus = evolve_raw(sysm, u0, du0, t_grid)
    assert len(calls) == 2  # one part, both time directions
    assert np.array_equal(us, ref_u) and np.array_equal(dus, ref_du)


def test_evolve_raw_tolerance(monkeypatch):
    sysm = build_system("D1", SectorLabel(Family.SCALAR, 0), LORENTZIAN,
                        maxwell=True)
    calls = _count_solves(monkeypatch)
    evolve_raw(sysm, np.array([1.0 + 1j]), np.array([0.0]), [-1.0, 1.0],
               tol=1e-10)
    assert calls == [1e-10] * 4


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
            at=(a, adot)), dtype=float)

    rng = np.random.default_rng(5)
    w0 = rng.normal(size=sys1.n)
    dw0 = rng.normal(size=sys1.n)
    t_grid = np.array([-1.5, -0.5, 0.8, 2.0])
    u1, du1 = evolve_raw(sys1, w0, dw0, t_grid)
    raw2_0 = k21_raw(0.0) @ np.concatenate([w0, dw0])
    u2, du2 = evolve_raw(sys2, raw2_0[:sys2.n], raw2_0[sys2.n:], t_grid)
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
            lambda z: ws.delta(z, 2), 2, 1, at=(a, adot)), dtype=float)

    rng = np.random.default_rng(8)
    g0 = rng.normal(size=sys2.n)
    dg0 = rng.normal(size=sys2.n)
    t_grid = np.array([-1.0, 1.3])
    u2, du2 = evolve_raw(sys2, g0, dg0, t_grid)
    raw1_0 = kdag_raw(0.0) @ np.concatenate([g0, dg0])
    u1, du1 = evolve_raw(sys1, raw1_0[:sys1.n], raw1_0[sys1.n:], t_grid)
    for i, t in enumerate(t_grid):
        lhs = kdag_raw(t) @ np.concatenate([u2[i].real, du2[i].real])
        rhs = np.concatenate([u1[i].real, du1[i].real])
        assert np.max(np.abs(lhs - rhs)) < 1e-8, t


def test_maxwell_level_zero_profile():
    # the level-zero Maxwell solution is alpha / cosh^3(t) dt
    sysm = build_system("D1", SectorLabel(Family.SCALAR, 0), LORENTZIAN,
                        maxwell=True)
    t_grid = np.linspace(-2, 2, 17)
    us, dus = evolve_raw(sysm, np.array([1.0]), np.array([0.0]), t_grid)
    expect = 1.0 / np.cosh(t_grid) ** 3
    assert np.max(np.abs(us[:, 0].real - expect)) < 1e-8


def test_lorentzian_data_convention():
    # evolve_lorentzian converts (f0, f1) with f1 = (1/i) du/dt
    sysm = build_system("D2", SectorLabel(Family.TENSOR, 2), LORENTZIAN)
    f = np.array([0.7, 0.3j])
    traj = evolve_lorentzian(sysm, f, [0.0])
    assert np.max(np.abs(traj[0] - f)) < 1e-12
