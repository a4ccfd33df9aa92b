"""Radial machinery: exponents, regular bases, collocation agreement,
Lorentzian evolution with charge conservation and gauge intertwining."""

from fractions import Fraction
from math import pi

import numpy as np
import pytest

from dsvac.collocation import collocation_regular_basis
from dsvac.calderon import principal_angle
import dsvac.radial as radial
from dsvac.radial import build_system, charge_raw, evolve_raw, regular_basis
from dsvac.sectors import Family, SectorLabel, enumerate_sectors
from dsvac.warped import EUCLIDEAN, LORENTZIAN, WarpedSector
from routes import evolve_lorentzian, evolve_raw_direct, indicial_exponents

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


def test_rational_roots_with_large_coprime_denominators():
    # the lcm of the denominators, (2**33 + 1) * (2**33 - 1), does not fit in
    # 64 bits; a wrapped lcm would give a wrong integer polynomial
    d1, d2 = 2**33 + 1, 2**33 - 1
    assert radial._rational_roots([Q(-1, d1), Q(1, d2)]) == [Q(d2, d1)]
    assert radial._rational_roots([Q(0), Q(-1, d1), Q(1, d2)]) == [Q(0), Q(d2, d1)]


def _divisors_by_trial_division(n):
    """Divisors as ``radial._divisors`` found them before it factorised n:
    every d with d * d <= n tried."""
    n = abs(n)
    if n == 0:
        return [1]
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


def test_divisors_match_trial_division():
    rng = np.random.default_rng(2026)
    values = (list(range(3001)) + [int(v) for v in rng.integers(1, 10**9, 50)]
              + [2**33 - 1, 2**33 + 1, -360])
    for v in values:
        assert radial._divisors(v) == _divisors_by_trial_division(v), v


def test_integer_indicial_values_at_a_fractional_exponent():
    # the dsvac exponents are integers; a rational one exercises the
    # q^(deg - k) weights of the integer evaluation
    rng = np.random.default_rng(7)
    lmat = [[[Q(int(a), int(b)) for a, b in rng.integers(1, 10**6, (3, 2))]
             for _ in range(3)] for _ in range(3)]
    for rho in (Q(-3, 7), Q(5, 2), Q(-11, 3)):
        got = radial._indicial_at_shifts(radial._integer_entries(lmat), rho, 40)
        ref = [[[float(radial._poly_eval(e, rho + m)) for e in row]
                for row in lmat] for m in range(1, 41)]
        assert got[1:].tobytes() == np.array(ref).tobytes(), rho


@pytest.mark.parametrize("maxwell", [False, True], ids=["gravity", "maxwell"])
def test_integer_indicial_values_equal_exact_ones(maxwell):
    # one correctly rounded int/int division per entry: the floats of
    # L(rho + m) equal those of the exact Fraction evaluation bit for bit
    checked = 0
    for op in ("D1",) if maxwell else ("D2", "D1"):
        for sec in enumerate_sectors(12):
            sysm = build_system(op, sec, EUCLIDEAN, maxwell=maxwell)
            if not sysm.n:
                continue
            data, _, lmat = radial.indicial_data(sysm)
            entries = radial._integer_entries(lmat)
            for rho, _, _ in data:
                got = radial._indicial_at_shifts(entries, rho, 40)[1:]
                ref = np.array([[[float(radial._poly_eval(e, rho + m))
                                  for e in row] for row in lmat]
                                for m in range(1, 41)])
                assert got.tobytes() == ref.tobytes(), (op, sec, rho)
            checked += 1
    assert checked == (25 if maxwell else 61)


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
    got = evolve_raw(sysm, u0, du0, t_grid)
    assert len(calls) == 1  # one part, both time signs in one solve
    assert _deviation(got, ref) <= 1e-9


def test_evolve_raw_tolerance(monkeypatch):
    sysm = build_system("D1", SectorLabel(Family.SCALAR, 0), LORENTZIAN,
                        maxwell=True)
    calls = _count_solves(monkeypatch)
    evolve_raw(sysm, np.array([1.0 + 1j]), np.array([0.0]), [-1.0, 1.0],
               tol=1e-10)
    assert calls == [1e-10]


@pytest.mark.parametrize("maxwell", [False, True], ids=["gravity", "maxwell"])
def test_reflected_evolution_matches_direct_integration(maxwell, monkeypatch):
    # u(-t) = kappa v(t) for the reflected data: one forward solve agrees
    # with integrating backward, on every Lorentzian system with k <= 8
    rng = np.random.default_rng(2026)
    t_grid = np.array([-2.0, -0.7, -0.3, 0.0, 0.3, 0.7, 0.7, 1.1, 2.0])
    calls = _count_solves(monkeypatch)
    checked = 0
    for op in ("D0", "D1") if maxwell else ("D0", "D1", "D2"):
        for sec in enumerate_sectors(8):
            sysm = build_system(op, sec, LORENTZIAN, maxwell=maxwell)
            if not sysm.n:
                continue
            u0, du0 = (rng.normal(size=sysm.n) + 1j * rng.normal(size=sysm.n)
                       for _ in range(2))
            ref = evolve_raw_direct(sysm, u0, du0, t_grid)
            before = len(calls)
            got = evolve_raw(sysm, u0, du0, t_grid)
            assert len(calls) == before + 1, (op, sec)
            assert _deviation(got, ref) <= 1e-9, (op, sec)
            assert np.array_equal(got[0][5], got[0][6])  # the repeated time
            checked += 1
    assert checked == (26 if maxwell else 50)


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
