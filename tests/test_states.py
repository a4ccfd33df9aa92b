"""State-level checks: Hermiticity, sum rules, sign dichotomies, gauge
invariance (with the level-three anomaly made explicit), symmetries and the
independent energy oracle."""

import numpy as np
import pytest

from dsvac import rational as rl
from dsvac import cauchy as cy
from dsvac.calderon import calderon_invertible, lorentzify
from dsvac.phase_space import phase_space_sector, pi_projection
from dsvac.sectors import Family, SectorLabel, enumerate_sectors
from dsvac.states import (
    alpha_unitarity_residual,
    build_covariances,
    compressed_extrema,
    euclidean_vacuum_pair,
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
        ext_p = compressed_extrema(covs[sec], spaces[sec].ett_gauge, +1)
        ext_m = compressed_extrema(covs[sec], spaces[sec].ett_gauge, -1)
        assert ext_p[0] > -1e-9, sec
        assert ext_m[0] > -1e-9, sec


def test_negativity_on_level_four(setup):
    _, spaces, covs = setup
    sec = SectorLabel(Family.VECTOR, 1)
    ps = spaces[sec]
    cov = covs[sec]
    ext_p = compressed_extrema(cov, ps.ett4, +1)
    ext_m = compressed_extrema(cov, ps.ett4, -1)
    assert ext_p[1] < 1e-9 and ext_m[1] < 1e-9
    # lambda+ + lambda- negative definite there
    f = ps.ett4[:, 0]
    total = np.real(f.conj() @ (cov.lambda_plus + cov.lambda_minus) @ f)
    assert total / norm_squared(sec, f) < -1e-6
    # vanishing only at c+- f = 0: here the value is strictly negative
    assert np.real(f.conj() @ cov.lambda_plus @ f) < -1e-6 * norm_squared(sec, f)


def test_weak_gauge_invariance_strict(setup):
    _, spaces, covs = setup
    for sec in SECTORS:
        ps = spaces[sec]
        resid = gauge_pairing_residual(covs[sec], ps.ett, ps.ftt_gauge_strict)
        assert resid < 1e-9, sec


def test_level_three_anomaly(setup):
    # the level-three (Scalar(1)) trace line pairs NONtrivially: strong
    # gauge invariance fails there too, not only on the level-four space
    _, spaces, covs = setup
    sec = SectorLabel(Family.SCALAR, 1)
    ps = spaces[sec]
    f = ps.ett3[:, 0]
    val = abs(np.real(f.conj() @ covs[sec].lambda_plus @ f))
    assert val > 1e-3 * norm_squared(sec, f)


def test_strong_invariance_witness(setup):
    _, spaces, covs = setup
    sec = SectorLabel(Family.VECTOR, 1)
    f = spaces[sec].ett4[:, 0]
    val = abs(np.real(f.conj() @ covs[sec].lambda_plus @ f))
    assert val >= 1e-3 * norm_squared(sec, f)


def test_modified_state(setup):
    pairs, spaces, _ = setup
    for sec in SECTORS:
        ps = spaces[sec]
        cov = build_covariances(sec, "modified", projector_pair=pairs[sec])
        # sum rule persists on E_TT
        assert sum_rule_residual(cov, on=ps.ett) < 1e-10, sec
        # positivity on all of E_TT
        if ps.ett.shape[1]:
            for sign in (+1, -1):
                ext = compressed_extrema(cov, ps.ett, sign)
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
    assert sum_rule_residual(cov4, on=spaces[sec].ett) < 1e-10
    ext = compressed_extrema(cov4, spaces[sec].ett, +1)
    assert ext[0] > -1e-9
    # and in Vector(1) it does restore positivity
    secv = SectorLabel(Family.VECTOR, 1)
    cov4v = build_covariances(secv, "modified4", projector_pair=pairs[secv])
    extv = compressed_extrema(cov4v, spaces[secv].ett, +1)
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
                ext = compressed_extrema(cov, spaces[sec].ett_gauge, +1)
                assert ext[0] > -1e-9
        cov0 = build_covariances(sec, "alpha", alpha=0.0,
                                 projector_pair=pairs[sec])
        base = euclidean_vacuum_pair(sec, pairs[sec])
        assert np.max(np.abs(cov0.lambda_plus - base.lambda_plus)) < 1e-12


def test_racah_and_time_reversal(setup):
    pairs, _, covs = setup
    for sec in (SectorLabel(Family.TENSOR, 3), SectorLabel(Family.SCALAR, 1),
                SectorLabel(Family.VECTOR, 2)):
        assert racah_antiunitarity_residual(sec) == 0.0
        assert wigner_involution_residual(sec) == 0.0
        assert time_reversal_residual(covs[sec]) < 1e-10


def test_energy_quadrature_oracle():
    energy, boundary, lam_val = tt_energy_quadrature()
    assert energy > 0
    # the profile and its datum are one series summed to the equator, so the
    # boundary identity holds to rounding
    assert abs(energy - boundary) < 1e-12 * abs(boundary)
    assert abs(lam_val - boundary) < 1e-9 * abs(boundary)
