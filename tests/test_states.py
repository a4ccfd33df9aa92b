"""State-level checks: Hermiticity, sum rules, sign dichotomies, gauge
invariance (with the level-three anomaly made explicit), symmetries and the
independent energy oracle."""

import numpy as np
import pytest

from dsvac import cauchy as cy
from dsvac.calderon import calderon_invertible, lorentzify
from dsvac.phase_space import phase_space_sector
from dsvac.report import (
    ROUNDOFF_BOUND,
    CheckRecord,
    RunConfig,
    _add_gauge_positivity,
    _add_negativity,
    _Collector,
)
from dsvac.sectors import VECTOR1, Family, SectorLabel, enumerate_sectors
from dsvac.states import (
    CovariancePair,
    alpha_unitarity_residual,
    build_covariances,
    compressed_extrema,
    euclidean_vacuum_pair,
    extrema,
    full_gauge_residual,
    gauge_pairing_residual,
    hermiticity_residual,
    norm_squared,
    racah_antiunitarity_residual,
    sum_rule_residual,
    time_reversal_residual,
    tt_energy_quadrature,
    wigner_involution_residual,
)
from routes import pi_projection

K_CHECK = 5
SECTORS = enumerate_sectors(K_CHECK)


@pytest.fixture(scope="module")
def setup():
    pairs = {sec: lorentzify(calderon_invertible(sec, "D2")) for sec in SECTORS}
    spaces = {sec: phase_space_sector(sec) for sec in SECTORS}
    covs = {sec: euclidean_vacuum_pair(sec, pairs[sec]) for sec in SECTORS}
    return pairs, spaces, covs


def test_hermiticity_and_sum_rule(setup):
    _, spaces, covs = setup
    for sec, cov in covs.items():
        assert hermiticity_residual(cov) < 1e-12, sec
        assert sum_rule_residual(cov) < 1e-10, sec


def test_positivity_on_gauge_sector(setup):
    _, spaces, covs = setup
    for sec in SECTORS:
        if sec.family is not Family.TENSOR:
            continue
        ext_p = compressed_extrema(covs[sec], spaces[sec].e_gauge, +1)
        ext_m = compressed_extrema(covs[sec], spaces[sec].e_gauge, -1)
        assert ext_p[0] > -1e-9, sec
        assert ext_m[0] > -1e-9, sec


def test_negativity_on_level_four(setup):
    _, spaces, covs = setup
    sec = SectorLabel(Family.VECTOR, 1)
    ps = spaces[sec]
    cov = covs[sec]
    ext_p = compressed_extrema(cov, ps.e_bad, +1)
    ext_m = compressed_extrema(cov, ps.e_bad, -1)
    assert ext_p[1] < 1e-9 and ext_m[1] < 1e-9
    # lambda+ + lambda- negative definite there
    f = ps.e_bad[:, 0]
    total = np.real(f.conj() @ (cov.lambda_plus + cov.lambda_minus) @ f)
    assert total / norm_squared(sec, f) < -1e-6
    # vanishing only at c+- f = 0: here the value is strictly negative
    assert np.real(f.conj() @ cov.lambda_plus @ f) < -1e-6 * norm_squared(sec, f)


def test_weak_gauge_invariance_strict(setup):
    _, spaces, covs = setup
    for sec in SECTORS:
        ps = spaces[sec]
        resid = gauge_pairing_residual(covs[sec], ps.e_space, ps.f_gauge_strict)
        assert resid < 1e-9, sec


def test_level_three_anomaly(setup):
    # the level-three (Scalar(1)) trace line pairs NONtrivially: strong
    # gauge invariance fails there too, not only on the level-four space
    _, spaces, covs = setup
    sec = SectorLabel(Family.SCALAR, 1)
    ps = spaces[sec]
    f = ps.e_trace[:, 0]
    val = abs(np.real(f.conj() @ covs[sec].lambda_plus @ f))
    assert val > 1e-3 * norm_squared(sec, f)


def test_strong_invariance_witness(setup):
    _, spaces, covs = setup
    sec = SectorLabel(Family.VECTOR, 1)
    f = spaces[sec].e_bad[:, 0]
    val = abs(np.real(f.conj() @ covs[sec].lambda_plus @ f))
    assert val >= 1e-3 * norm_squared(sec, f)


def test_modified_state(setup):
    pairs, spaces, covs = setup
    for sec in SECTORS:
        ps = spaces[sec]
        # each modified pair is the vacuum compressed by the projection matrix
        for variant, levels in (("modified", (3, 4)), ("modified4", (4,))):
            cov = build_covariances(sec, variant, projector_pair=pairs[sec])
            pim = pi_projection(sec, levels)
            for lam, base in ((cov.lambda_plus, covs[sec].lambda_plus),
                              (cov.lambda_minus, covs[sec].lambda_minus)):
                assert np.array_equal(lam, pim.T @ base @ pim), (sec, variant)
        cov = build_covariances(sec, "modified", projector_pair=pairs[sec])
        # sum rule persists on E_TT
        assert sum_rule_residual(cov, on=ps.e_space) < 1e-10, sec
        # positivity on all of E_TT
        if ps.e_space.shape[1]:
            for sign in (+1, -1):
                ext = compressed_extrema(cov, ps.e_space, sign)
                assert ext[0] > -1e-9, (sec, sign)
        # full gauge invariance, all rank-1 directions
        assert full_gauge_residual(cov, ps) < 1e-9, sec


def test_modified4_variant_fails_full_invariance(setup):
    # the variant removing only the level-four subspace keeps the
    # level-three pairing: document the residual rather than hide it
    pairs, spaces, _ = setup
    sec = SectorLabel(Family.SCALAR, 1)
    cov4 = build_covariances(sec, "modified4", projector_pair=pairs[sec])
    resid = full_gauge_residual(cov4, spaces[sec])
    assert resid > 1e-3
    # but it is still positive on E_TT and satisfies the sum rule
    assert sum_rule_residual(cov4, on=spaces[sec].e_space) < 1e-10
    ext = compressed_extrema(cov4, spaces[sec].e_space, +1)
    assert ext[0] > -1e-9
    # and in Vector(1) it does restore positivity
    secv = SectorLabel(Family.VECTOR, 1)
    cov4v = build_covariances(secv, "modified4", projector_pair=pairs[secv])
    extv = compressed_extrema(cov4v, spaces[secv].e_space, +1)
    assert extv[0] > -1e-9


def test_alpha_vacua(setup):
    pairs, spaces, _ = setup
    for sec in (SectorLabel(Family.TENSOR, 2), SectorLabel(Family.VECTOR, 1),
                SectorLabel(Family.SCALAR, 2)):
        for alpha in (0.3, 1.0):
            assert alpha_unitarity_residual(sec, alpha) < 1e-12
            cov = build_covariances(sec, "alpha", alpha=alpha,
                                    projector_pair=pairs[sec])
            # conjugation amplifies the base noise by |U_alpha|^2 = e^(2a)
            assert hermiticity_residual(cov) < 1e-12 * np.exp(2 * alpha)
            assert sum_rule_residual(cov) < 1e-10
            if sec.family is Family.TENSOR:
                ext = compressed_extrema(cov, spaces[sec].e_gauge, +1)
                assert ext[0] > -1e-9
        cov0 = build_covariances(sec, "alpha", alpha=0.0,
                                 projector_pair=pairs[sec])
        base = euclidean_vacuum_pair(sec, pairs[sec])
        assert np.max(np.abs(cov0.lambda_plus - base.lambda_plus)) < 1e-12


@pytest.mark.parametrize("sign", [+1, -1])
def test_alpha_unitarity_sees_a_form_that_pairs_equal_signs(sign, monkeypatch):
    # q_{I,2} pairs only opposite signs of S, which u q u leaves alone; an
    # entry between two data of one sign, scaled by e^(+-2 alpha), must fail
    sec = SectorLabel(Family.SCALAR, 2)
    i = int(np.flatnonzero(cy.reflection(sec, 2) == sign)[0])
    broken = cy.physical_charge_form(sec).copy()
    broken[i, i] += np.max(np.abs(broken))
    monkeypatch.setattr("dsvac.states.physical_charge_form", lambda sector: broken)
    for alpha in (0.3, 1.0, 8.0):
        assert alpha_unitarity_residual(sec, alpha) > RunConfig().tol_linear_algebra


def test_racah_and_time_reversal(setup):
    pairs, _, covs = setup
    rng = np.random.default_rng(11)
    for sec in (SectorLabel(Family.TENSOR, 3), SectorLabel(Family.SCALAR, 1),
                SectorLabel(Family.VECTOR, 2)):
        assert racah_antiunitarity_residual(sec) == 0.0
        assert wigner_involution_residual(sec) == 0.0
        assert time_reversal_residual(covs[sec]) < 1e-10
        # conj(Zf) . lambda Zg = conj(g) . lambda f with Z f = M conj(f) is
        # the matrix identity M lambda^T M = lambda: both, by matrix products
        m = np.diag(cy.reflection(sec, 2, +1))
        for lam in (covs[sec].lambda_plus, covs[sec].lambda_minus):
            assert np.max(np.abs(m @ lam.T @ m - lam)) <= ROUNDOFF_BOUND, sec
            f, g = (rng.normal(size=len(m)) + 1j * rng.normal(size=len(m)) for _ in range(2))
            zf, zg = m @ f.conj(), m @ g.conj()
            assert abs(zf.conj() @ lam @ zg - g.conj() @ lam @ f) < 1e-10, sec


def test_energy_quadrature_oracle(setup):
    _, _, covs = setup
    energy, boundary, lam_val = tt_energy_quadrature(covs[SectorLabel(Family.TENSOR, 2)])
    assert energy > 0
    # the profile and its datum are one series summed to the equator, so the
    # boundary identity holds to rounding
    assert abs(energy - boundary) < 1e-12 * abs(boundary)
    assert abs(lam_val - boundary) < 1e-9 * abs(boundary)


def _record(add, *args):
    """The record that the report's helper ``add`` makes of ``args``."""
    col = _Collector()
    add(col, "suite", "check", "claim", *args, RunConfig())
    return col.records[0]


TT2, SCALAR3 = SectorLabel(Family.TENSOR, 2), SectorLabel(Family.SCALAR, 3)
# each check that reads lambda-: the sector where it has something to read,
# and its residual or record
NAN_CHECKS = {
    "hermiticity": (TT2, lambda cov, ps: hermiticity_residual(cov)),
    "time-reversal": (TT2, lambda cov, ps: time_reversal_residual(cov)),
    "gauge-pairing": (SCALAR3, lambda cov, ps: gauge_pairing_residual(
        cov, ps.e_space, ps.f_gauge_strict)),
    "full-gauge": (SCALAR3, lambda cov, ps: full_gauge_residual(cov, ps)),
    "extrema-low": (TT2, lambda cov, ps: extrema(cov, ps.e_gauge)[0]),
    "extrema-high": (TT2, lambda cov, ps: extrema(cov, ps.e_gauge)[1]),
    "gauge-positivity": (TT2, lambda cov, ps: _record(_add_gauge_positivity, cov, ps)),
    "negativity": (VECTOR1, lambda cov, ps: _record(_add_negativity, cov, ps.e_bad[:, 0])),
}


@pytest.mark.parametrize("check", NAN_CHECKS)
def test_a_nan_covariance_fails_every_check_that_reads_it(setup, check):
    # lambda+ is finite and comes first: a NaN must win wherever it comes
    _, spaces, covs = setup
    sec, measure = NAN_CHECKS[check]
    cov = covs[sec]
    nan = CovariancePair(sec, cov.lambda_plus, np.full_like(cov.lambda_minus, np.nan),
                         cov.theory)
    out = measure(nan, spaces[sec])
    if isinstance(out, CheckRecord):
        assert out.verdict == "fail"
        out = out.residual
    assert np.isnan(out)


def test_a_nan_basis_column_is_kept_and_fails_the_gauge_pairing(setup):
    # normalization drops zero columns only: a NaN column stays, unscaled
    _, spaces, covs = setup
    ps = spaces[SCALAR3]
    e = ps.e_space.copy()
    e[:, 0] = np.nan
    assert cy.normalized_columns(SCALAR3, e, 2).shape == e.shape
    assert np.isnan(gauge_pairing_residual(covs[SCALAR3], e, ps.f_gauge_strict))
