import numpy as np
import pytest

from dsvac import cauchy as cy
from dsvac.calderon import (
    lorentzify,
    principal_angle,
    projector_pair,
    quotient_matrices,
)
from dsvac.cauchy import MAXWELL
from dsvac.maxwell import (
    SCALAR0,
    maxwell_covariances,
    maxwell_phase_space,
    maxwell_projector_pair,
    maxwell_sectors,
    spectra_disjoint,
)
from dsvac.phase_space import charge_kernel_check
from dsvac.sectors import Family, SectorLabel
from dsvac.states import (
    compressed_extrema,
    full_gauge_residual,
    norm_squared,
    sum_rule_residual,
)
from routes import maxwell_f_gauge

K_CHECK = 5
SECTORS = maxwell_sectors(K_CHECK)


@pytest.fixture(scope="module")
def setup():
    pairs = {sec: lorentzify(maxwell_projector_pair(sec)) for sec in SECTORS}
    spaces = {sec: maxwell_phase_space(sec) for sec in SECTORS}
    covs = {sec: maxwell_covariances(sec, projector_pair=pairs[sec])
            for sec in SECTORS}
    return pairs, spaces, covs


def test_spectra_disjoint():
    assert spectra_disjoint(40)


def test_gauge_composition():
    for sec in SECTORS:
        k10 = MAXWELL.gauge_block(sec)
        k10d = cy.lorentz_block(cy.data_block(sec, "div", maxwell=True), sec, 0, 1)
        if k10.size == 0:
            continue
        z = k10d @ k10
        assert np.max(np.abs(z)) < 1e-12, sec


def test_phase_space_dims(setup):
    _, spaces, _ = setup
    # (E, E_gauge, F, F_gauge, E_0): E = F = E_0 at level zero (the zero
    # mode is itself a gauge image, but not an invariantly gauge one)
    assert spaces[SCALAR0].dims == (1, 0, 1, 0, 1)
    assert spaces[SectorLabel(Family.SCALAR, 2)].dims == (2, 0, 2, 2, 0)
    assert spaces[SectorLabel(Family.VECTOR, 1)].dims == (2, 2, 0, 0, 0)
    total_zero = sum(ps.e_bad.shape[1] * sec.multiplicity
                     for sec, ps in spaces.items())
    assert total_zero == 1


def test_f_gauge_routes_agree(setup):
    # the builder's gauge part of F against the route that drops the
    # level-zero line from F; Maxwell has no strictly-gauge subtlety
    _, spaces, _ = setup
    for sec, ps in spaces.items():
        assert np.array_equal(ps.f_gauge, maxwell_f_gauge(ps)), sec
        assert np.array_equal(ps.f_gauge_strict, ps.f_gauge), sec
        assert ps.e_trace.shape[1] == 0, sec


def test_rank0_quotient():
    pair = projector_pair(MAXWELL, SCALAR0, "D0")
    qi = pair.quotient_info
    assert qi.kernel.shape[1] == 1
    # constants give the two-sided regular solution with data (1, 0)
    v = np.zeros(2)
    v[0] = 1.0
    assert principal_angle(qi.kernel, v[:, None]) < 1e-10
    assert qi.quotient_dim == 0
    cp, cm = quotient_matrices(pair)
    assert cp.shape == (0, 0)
    # level >= 1 scalars are invertible
    projector_pair(MAXWELL, SectorLabel(Family.SCALAR, 2), "D0")


def test_projector_identities(setup):
    pairs, _, _ = setup
    for sec, pair in pairs.items():
        n = pair.c_plus.shape[0]
        assert np.max(np.abs(pair.c_plus + pair.c_minus - np.eye(n))) < 1e-12
        assert np.max(np.abs(pair.c_plus @ pair.c_plus - pair.c_plus)) < 1e-9
        q1 = cy.charge_form(sec, 1)
        assert np.max(np.abs(pair.c_plus.conj().T @ q1 - q1 @ pair.c_plus)) < 1e-9


def test_sum_rule_and_hermiticity(setup):
    _, _, covs = setup
    for sec, cov in covs.items():
        assert sum_rule_residual(cov) < 1e-10
        assert np.max(np.abs(cov.lambda_plus - cov.lambda_plus.conj().T)) < 1e-12


def test_positivity_dichotomy(setup):
    _, spaces, covs = setup
    for sec in SECTORS:
        ps, cov = spaces[sec], covs[sec]
        if sec.family is Family.VECTOR:
            for sign in (+1, -1):
                ext = compressed_extrema(cov, ps.e_gauge, sign)
                assert ext[0] > -1e-9, (sec, sign)
    # negativity on the level-zero line, strictly
    ps0, cov0 = spaces[SCALAR0], covs[SCALAR0]
    f = ps0.e_bad[:, 0]
    for lam in (cov0.lambda_plus, cov0.lambda_minus):
        val = float(np.real(f.conj() @ lam @ f))
        assert val < 1e-9
    total = float(np.real(f.conj() @ (cov0.lambda_plus + cov0.lambda_minus) @ f))
    assert total / norm_squared(SCALAR0, f, 1) < -1e-6


def test_charge_kernel(setup):
    _, spaces, _ = setup
    for sec, ps in spaces.items():
        assert charge_kernel_check(ps)["kernel_angle"] < 1e-10, sec


def test_weak_invariance(setup):
    # vanishing on E x F_gauge; the level-zero line in F pairs nontrivially
    # (that is the strong-invariance failure, tested separately)
    _, spaces, covs = setup
    for sec in SECTORS:
        ps = spaces[sec]
        f_gauge = maxwell_f_gauge(ps)
        if f_gauge.shape[1] == 0 or ps.e_space.shape[1] == 0:
            continue
        resid = max(
            float(np.max(np.abs(ps.e_space.conj().T @ covs[sec].lambda_plus
                                @ f_gauge))),
            float(np.max(np.abs(ps.e_space.conj().T @ covs[sec].lambda_minus
                                @ f_gauge))))
        assert resid < 1e-9, sec


def test_modified_state(setup):
    pairs, spaces, _ = setup
    for sec in SECTORS:
        ps = spaces[sec]
        cov = maxwell_covariances(sec, "modified", projector_pair=pairs[sec])
        assert sum_rule_residual(cov, on=ps.e_space) < 1e-10, sec
        if ps.e_space.shape[1]:
            for sign in (+1, -1):
                ext = compressed_extrema(cov, ps.e_space, sign)
                assert ext[0] > -1e-9, (sec, sign)
        assert full_gauge_residual(cov, ps) < 1e-9, sec


def test_strong_invariance_fails_unmodified(setup):
    _, spaces, covs = setup
    ps0, cov0 = spaces[SCALAR0], covs[SCALAR0]
    f = ps0.e_bad[:, 0]
    val = abs(np.real(f.conj() @ cov0.lambda_plus @ f))
    assert val > 1e-3 * norm_squared(SCALAR0, f, 1)


def test_modified_state_scale_at_large_k():
    # the full-gauge residual pairs unit-norm data, so it does not grow with
    # the level (the absolute pairing reaches 1.3e-10 here)
    sec = SectorLabel(Family.SCALAR, 24)
    pair = lorentzify(maxwell_projector_pair(sec))
    cov = maxwell_covariances(sec, "modified", projector_pair=pair)
    assert full_gauge_residual(cov, maxwell_phase_space(sec)) <= 1e-12
