"""Projector identities, q-adjointness, quotient bookkeeping, intertwining."""

import numpy as np
import pytest

from dsvac import rational as rl
from dsvac import cauchy as cy
from dsvac.calderon import (
    calderon_invertible,
    calderon_quotient,
    lorentzify,
    principal_angle,
    projector_pair,
    quotient_matrices,
)
from dsvac.cauchy import GRAVITY, MAXWELL
from dsvac.maxwell import maxwell_sectors
from dsvac.radial import build_system, regular_basis
from dsvac.sectors import Family, SectorLabel, enumerate_sectors
from dsvac.warped import EUCLIDEAN
from routes import killing_data_euclid

K_CHECK = 6
D2_SECTORS = enumerate_sectors(K_CHECK)


@pytest.fixture(scope="module")
def d2_pairs():
    return {sec: calderon_invertible(sec, "D2") for sec in D2_SECTORS}


def test_projector_identities(d2_pairs):
    for sec, pair in d2_pairs.items():
        n2 = pair.c_plus.shape[0]
        assert np.max(np.abs(pair.c_plus + pair.c_minus - np.eye(n2))) < 1e-12
        assert np.max(np.abs(pair.c_plus @ pair.c_plus - pair.c_plus)) < 1e-9
        assert np.max(np.abs(pair.c_minus @ pair.c_minus - pair.c_minus)) < 1e-9
        assert np.linalg.matrix_rank(pair.c_plus, tol=1e-6) == n2 // 2


def test_projector_fixes_regular_data(d2_pairs):
    # c+ rho u = rho u for solutions regular in the north hemisphere
    for sec, pair in d2_pairs.items():
        system = build_system("D2", sec, EUCLIDEAN)
        basis = regular_basis(system)
        resid = pair.c_plus @ basis.data_matrix - basis.data_matrix
        assert np.max(np.abs(resid)) < 1e-9, sec


def test_q_adjointness(d2_pairs):
    # c^* q = q c with q = sigma o diag(kappa, -kappa)
    for sec, pair in d2_pairs.items():
        q = rl.to_numpy(cy.charge_form(sec, 2))
        resid = pair.c_plus.T @ q - q @ pair.c_plus
        assert np.max(np.abs(resid)) < 1e-9, sec


def test_lorentz_pair(d2_pairs):
    for sec in (SectorLabel(Family.TENSOR, 2), SectorLabel(Family.SCALAR, 2),
                SectorLabel(Family.VECTOR, 1)):
        pair = lorentzify(d2_pairs[sec])
        n2 = pair.c_plus.shape[0]
        assert np.max(np.abs(pair.c_plus + pair.c_minus - np.eye(n2))) < 1e-12
        qi2 = rl.to_numpy(cy.physical_charge_form(sec))
        resid = pair.c_plus.conj().T @ qi2 - qi2 @ pair.c_plus
        assert np.max(np.abs(resid)) < 1e-9
        # the projectors commute with trace reversal on scalar sectors
        i2 = rl.to_numpy(cy.data_block(sec, "trace_reversal"))
        assert np.max(np.abs(i2 @ pair.c_plus - pair.c_plus @ i2)) < 1e-9


def test_quotient_bookkeeping():
    # Vector(1): data dim 2, kernel 1, q-orthogonal 1, quotient 0
    pv = calderon_quotient(SectorLabel(Family.VECTOR, 1), "D1")
    qi = pv.quotient_info
    assert qi.kernel.shape[1] == 1
    assert qi.subspace.shape[1] == 1
    assert qi.quotient_dim == 0
    kd = np.array([float(x) for x in
                   killing_data_euclid(SectorLabel(Family.VECTOR, 1))[0]])
    assert principal_angle(qi.kernel, kd[:, None]) < 1e-9
    # Scalar(1): data dim 4, kernel 1, q-orthogonal 3, quotient 2
    ps = calderon_quotient(SectorLabel(Family.SCALAR, 1), "D1")
    qi = ps.quotient_info
    assert qi.kernel.shape[1] == 1
    assert qi.subspace.shape[1] == 3
    assert qi.quotient_dim == 2
    kd = np.array([float(x) for x in
                   killing_data_euclid(SectorLabel(Family.SCALAR, 1))[0]])
    assert principal_angle(qi.kernel, kd[:, None]) < 1e-9
    # quotient identities
    for pair in (ps, pv):
        w = pair.quotient_info.subspace
        assert np.max(np.abs(pair.c_plus + pair.c_minus - w)) < 1e-9
        cp, cm = quotient_matrices(pair)
        d = cp.shape[0]
        if d:
            assert np.max(np.abs(cp + cm - np.eye(d))) < 1e-9
            assert np.max(np.abs(cp @ cp - cp)) < 1e-9
            assert np.max(np.abs(cm @ cm - cm)) < 1e-9


def test_killing_kernel_total_dimension():
    # gravity: the ten Killing 1-forms; Maxwell: the constants
    for theory, operator_id, sectors, expected in (
            (GRAVITY, "D1", enumerate_sectors(3), 10),
            (MAXWELL, "D0", maxwell_sectors(3), 1)):
        total = 0
        for sec in sectors:
            if cy.DataLayout(sec, theory.rank - 1).size == 0:
                continue
            # the invertible construction must not raise outside the kernel
            pair = projector_pair(theory, sec, operator_id)
            if sec in theory.quotient_sectors[operator_id]:
                total += pair.quotient_info.kernel.shape[1] * sec.multiplicity
            else:
                assert pair.quotient_info is None
        assert total == expected, theory.name


def test_quotient_charge_nondegenerate():
    # [q] is non-degenerate on the quotient subspace/kernel
    ps = calderon_quotient(SectorLabel(Family.SCALAR, 1), "D1")
    q = rl.to_numpy(cy.euclid_symplectic_form(SectorLabel(Family.SCALAR, 1), 1))
    kap = rl.to_numpy(cy.kappa_block(SectorLabel(Family.SCALAR, 1), 1))
    qmat = q @ kap
    comp = ps.quotient_info.complement
    qq = comp.T @ qmat @ comp
    sv = np.linalg.svd(qq, compute_uv=False)
    assert sv[-1] > 1e-6


@pytest.mark.parametrize("sector", enumerate_sectors(4, ), ids=str)
def test_gauge_intertwining(sector, d2_pairs):
    # c2 o sym_grad = sym_grad o c1 on the gauge-compatible subspace
    lay1 = cy.DataLayout(sector, 1)
    if lay1.size == 0:
        return
    if sector.k > K_CHECK:
        return
    pair2 = lorentzify(d2_pairs[sector])
    pair1 = lorentzify(projector_pair(GRAVITY, sector, "D1"))
    k21 = cy.lorentz_gauge_blocks(sector, "sym_grad")["sym_grad"]
    if pair1.quotient_info is None:
        lhs = pair2.c_plus @ k21
        rhs = k21 @ pair1.c_plus
        assert np.max(np.abs(lhs - rhs)) < 1e-9, sector
    else:
        w = pair1.quotient_info.subspace
        lhs = pair2.c_plus @ (k21 @ w)
        rhs = k21 @ pair1.c_plus  # columns = c1+ applied to subspace basis
        assert np.max(np.abs(lhs - rhs)) < 1e-8, sector


@pytest.mark.parametrize("sector, operator_id, maxwell, name", [
    (SectorLabel(Family.SCALAR, 0), "D0", True, r"D0 Maxwell Scalar\(0\)"),
    (SectorLabel(Family.VECTOR, 1), "D1", False, r"D1 VectorTransverse\(1\)"),
])
def test_a_kernel_that_is_not_isotropic_names_its_operator(sector, operator_id, maxwell,
                                                           name, monkeypatch):
    # with kappa in place of the symplectic form the pairing q is the
    # identity, on which no nonzero kernel datum is isotropic
    from dsvac import calderon
    monkeypatch.setattr(calderon, "euclid_symplectic_form", cy.kappa_block)
    with pytest.raises(RuntimeError, match=f"kernel data of {name} are not isotropic"):
        calderon_quotient(sector, operator_id, maxwell=maxwell)
