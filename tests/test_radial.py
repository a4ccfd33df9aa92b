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
from dsvac.radial import build_system, charge_raw, evolve_raw, regular_basis
from dsvac.sectors import Family, SectorLabel, enumerate_sectors
from dsvac.warped import EUCLIDEAN, LORENTZIAN, WarpedSector
from routes import (
    block_dims,
    collocation_matrix_loop,
    evolve_lorentzian,
    evolve_raw_direct,
    indicial_exponents,
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


def _series_vs_march(k_max):
    for sysm in _regular_systems(k_max):
        val, der, _ = radial.frobenius_solutions(sysm, radial.EQUATOR_ORDER, pi / 2)
        series = np.vstack([val, -der])  # (value, -d/ds value) at s = 0
        ang = principal_angle(series, regular_basis(sysm).data_matrix)
        assert ang <= 1e-11, (sysm.operator_id, sysm.sector, ang)


def test_series_at_equator_matches_marched_basis():
    # two routes to the regular subspace: the Frobenius series summed to the
    # equator, and the seeds at MATCH_RADIUS marched there
    _series_vs_march(8)


@pytest.mark.slow
def test_series_at_equator_matches_marched_basis_to_k24():
    _series_vs_march(24)


@pytest.mark.parametrize("sec", [SectorLabel(Family.SCALAR, 5),
                                 SectorLabel(Family.TENSOR, 2)])
def test_equator_series_obeys_the_full_order_recursion(sec):
    # every coefficient to EQUATOR_ORDER satisfies L(rho+m) c_m =
    # sum_j<m (P_(m-j) (rho+j) + Q_(m-j)) c_j with the exact pole tables at
    # that order; tables cut off at a lower order leave the high
    # coefficients off by the dropped terms
    sysm = build_system("D2", sec, EUCLIDEAN)
    order = radial.EQUATOR_ORDER
    p_mats, q_mats = radial.pole_series_matrices(sysm, order)
    p_f = radial._series_float(p_mats, sysm.n, order)
    q_f = radial._series_float(q_mats, sysm.n, order)
    _, _, lmat = radial.indicial_data(sysm)
    *_, series = radial.frobenius_solutions(sysm, order, pi / 2)
    for rho, _, c in series:
        for m in range(1, order + 1):
            lm = np.array([[float(radial._poly_eval(e, Q(rho) + m))
                            for e in row] for row in lmat])
            terms = [(p_f[m - j] * (rho + j) + q_f[m - j]) @ c[j] for j in range(m)]
            scale = np.abs(lm) @ np.abs(c[m]) + sum(np.abs(t) for t in terms)
            resid = np.abs(lm @ c[m] - sum(terms))
            assert np.all(resid <= 1e-10 * scale), (sec, m)


def test_series_tail_guard_fires_at_the_equator():
    # at the march's SERIES_ORDER the TT(2) series has not converged at
    # x = pi/2 (tail/peak about 1e-11), and the guard says so
    sysm = build_system("D2", SectorLabel(Family.TENSOR, 2), EUCLIDEAN)
    with pytest.raises(RuntimeError, match="tail not converged"):
        radial.frobenius_solutions(sysm, radial.SERIES_ORDER, pi / 2)


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
            at=(a, adot)), dtype=float)

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
            lambda z: ws.delta(z, 2), 2, 1, at=(a, adot)), dtype=float)

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
