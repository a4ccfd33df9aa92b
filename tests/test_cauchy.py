"""Cauchy-surface operator blocks: dual-route validation.

Every Euclidean block has two independent constructions: the tabulated
rational formulas in dsvac.cauchy, and a jet evaluation through the warped
calculus engine.  They must agree exactly.  On top of that the composition
identities of the gauge complex are checked exactly, and the Lorentzian
conjugates satisfy the charge adjointness relations.
"""

from fractions import Fraction

import numpy as np
import pytest

from dsvac import rational as rl
from dsvac import cauchy as cy
from dsvac.sectors import Family, SectorLabel, enumerate_sectors
from dsvac.warped import EUCLIDEAN, WarpedSector
from routes import gauge_orthogonal_residual, killing_data, killing_data_euclid

Q = Fraction

SECTORS = enumerate_sectors(4)


def engine_block(sector, which, maxwell=False):
    """Euclidean data block from the warped engine (exact)."""
    ws = WarpedSector(sector, EUCLIDEAN)
    ops = {
        "sym_grad": (lambda z: ws.trace_reversal(ws.d(z, 1)), 1, 2, False),
        "sym_div": (lambda z: ws.delta(z, 2), 2, 1, False),
        "metric_mult": (lambda z: ws.metric_mult({0: z[0]}), 0, 2, False),
        "neg_trace": (lambda z: {0: _neg(ws, z)}, 2, 0, False),
        "grad": (lambda z: ws.d(z, 0), 0, 1, maxwell),
        "div": (lambda z: ws.delta(z, 1), 1, 0, maxwell),
    }
    op, rin, rout, mx = ops[which]
    raw = ws.cauchy_block(op, rin, rout, maxwell=mx)
    # raw maps (u, u') -> (v, v'); data convention flips derivative signs
    n_in = cy.DataLayout(sector, rin).half
    n_out = cy.DataLayout(sector, rout).half
    out = [[Q(0)] * (2 * n_in) for _ in range(2 * n_out)]
    for i in range(2 * n_out):
        for j in range(2 * n_in):
            s = Q(1)
            if i >= n_out:
                s = -s
            if j >= n_in:
                s = -s
            out[i][j] = s * raw[i][j]
    return out


def _neg(ws, z):
    pair = ws.metric_pair(z)[0]
    from dsvac.warped import le_scale
    return [le_scale(e, -1, ws.sig) for e in pair]


@pytest.mark.parametrize("sector", SECTORS, ids=str)
def test_blocks_match_engine(sector):
    assert cy.sym_grad_block(sector) == engine_block(sector, "sym_grad")
    assert cy.sym_div_block(sector) == engine_block(sector, "sym_div")
    assert cy.metric_mult_block(sector) == engine_block(sector, "metric_mult")
    assert cy.neg_trace_block(sector) == engine_block(sector, "neg_trace")
    assert cy.grad_block(sector) == engine_block(sector, "grad")
    assert cy.div_block(sector) == engine_block(sector, "div")
    assert cy.grad_block(sector, maxwell=True) == engine_block(
        sector, "grad", maxwell=True)
    assert cy.div_block(sector, maxwell=True) == engine_block(
        sector, "div", maxwell=True)


def test_sym_div_examples():
    # Scalar(0): g_1ss = 1 gives f_0s = 2, everything else 0
    sec = SectorLabel(Family.SCALAR, 0)
    m = cy.sym_div_block(sec)
    lay2, lay1 = cy.DataLayout(sec, 2), cy.DataLayout(sec, 1)
    g = [Q(0)] * lay2.size
    g[lay2.half + lay2.offsets[0]] = Q(1)
    f = rl.matvec(m, g)
    expect = [Q(0)] * lay1.size
    expect[lay1.offsets[0]] = Q(2)
    assert f == expect
    # Vector(1): g_0sS input is annihilated (eigenvalue 4)
    secv = SectorLabel(Family.VECTOR, 1)
    mv = cy.sym_div_block(secv)
    layv = cy.DataLayout(secv, 2)
    g = [Q(0)] * layv.size
    g[layv.offsets[1]] = Q(1)
    assert rl.matvec(mv, g) == [Q(0)] * cy.DataLayout(secv, 1).size


def test_sym_grad_kills_killing_data():
    for sec in (SectorLabel(Family.SCALAR, 1), SectorLabel(Family.VECTOR, 1)):
        m = cy.sym_grad_block(sec)
        for v in killing_data_euclid(sec):
            assert rl.matvec(m, v) == [Q(0)] * cy.DataLayout(sec, 2).size


@pytest.mark.parametrize("sector", SECTORS, ids=str)
def test_gauge_complex_identities(sector):
    # adjoint-gauge o gauge = 0 exactly (Euclidean)
    kdag = cy.sym_div_block(sector)
    k21 = cy.sym_grad_block(sector)
    z = rl.matmul(kdag, k21)
    assert all(all(v == 0 for v in row) for row in z)
    # trace-adjoint o gauge = -2 * divergence
    k20d = cy.neg_trace_block(sector)
    lhs = rl.matmul(k20d, k21)
    rhs = rl.scale(cy.div_block(sector), -2)
    assert lhs == rhs
    # divergence o gradient = 2*Lambda = 6 (gravity), 0 (Maxwell)
    lay0 = cy.DataLayout(sector, 0)
    if lay0.size:
        grav = rl.matmul(cy.div_block(sector), cy.grad_block(sector))
        assert grav == rl.scale(rl.eye(lay0.size), 6)
        mx = rl.matmul(cy.div_block(sector, maxwell=True),
                       cy.grad_block(sector, maxwell=True))
        assert all(all(v == 0 for v in row) for row in mx)
    # neg_trace o metric_mult = -8 per doubled level
    if lay0.size:
        comp = rl.matmul(cy.neg_trace_block(sector), cy.metric_mult_block(sector))
        assert comp == rl.scale(rl.eye(lay0.size), -8)


@pytest.mark.parametrize("sector", SECTORS, ids=str)
def test_trace_reversal(sector):
    for flavor in ("lorentzian", "euclidean"):
        i2 = cy.trace_reversal_block(sector, flavor)
        assert rl.matmul(i2, i2) == rl.eye(len(i2))
    # Euclidean version is the Wick conjugate of the Lorentzian one
    i_lor = rl.to_numpy(cy.trace_reversal_block(sector, "lorentzian"))
    i_eu = rl.to_numpy(cy.trace_reversal_block(sector, "euclidean"))
    f = cy.wick_phases(sector, 2)
    assert np.allclose(f[:, None] * i_lor * (1 / f)[None, :], i_eu)
    # I is q2-self-adjoint: Q2 I symmetric, hence q_{I,2} Hermitian
    qi2 = rl.to_numpy(cy.physical_charge_form(sector))
    assert np.allclose(qi2, qi2.T)


@pytest.mark.parametrize("sector", SECTORS, ids=str)
def test_charge_vs_symplectic(sector):
    # q_k = sigma o diag(kappa, -kappa), exactly, for ranks 0..2
    for rank in (0, 1, 2):
        if cy.DataLayout(sector, rank).size == 0:
            continue
        q = cy.charge_form(sector, rank)
        sig = cy.euclid_symplectic_form(sector, rank)
        kap = cy.kappa_block(sector, rank)
        assert q == rl.matmul(sig, kap)


@pytest.mark.parametrize("sector", SECTORS, ids=str)
def test_lorentz_adjointness(sector):
    # (sym_div)^H q_1 = q_{I,2} sym_grad as complex matrices
    blocks = cy.lorentz_gauge_blocks(sector, "sym_grad", "sym_div", "neg_trace",
                                     "metric_mult")
    q1 = rl.to_numpy(cy.charge_form(sector, 1))
    qi2 = rl.to_numpy(cy.physical_charge_form(sector))
    lhs = blocks["sym_div"].conj().T @ q1
    rhs = qi2 @ blocks["sym_grad"]
    assert np.max(np.abs(lhs - rhs)) < 1e-12 if lhs.size else True
    # gauge composition vanishes on the Lorentzian side too
    z = blocks["sym_div"] @ blocks["sym_grad"]
    assert np.max(np.abs(z)) < 1e-12 if z.size else True
    # trace adjoint adjointness: (neg_trace)^H q_0 = q_{I,2} metric_mult
    q0 = rl.to_numpy(cy.charge_form(sector, 0))
    lhs2 = blocks["neg_trace"].conj().T @ q0
    rhs2 = qi2 @ blocks["metric_mult"]
    assert np.max(np.abs(lhs2 - rhs2)) < 1e-12 if lhs2.size else True


@pytest.mark.parametrize("sector", SECTORS, ids=str)
def test_trace_fixing_identity(sector):
    # neg_trace o sym_grad o S0 = neg_trace on all data (Cauchy-surface
    # version of the trace-fixing identity, via div o grad = 6)
    lay0 = cy.DataLayout(sector, 0)
    if lay0.size == 0:
        return
    blocks = cy.lorentz_gauge_blocks(sector, "sym_grad", "sym_div", "neg_trace")
    s0 = cy.trace_fix_block(sector)
    lhs = blocks["neg_trace"] @ blocks["sym_grad"] @ s0
    rhs = blocks["neg_trace"]
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    # corollary: 1 - sym_grad o S0 maps the adjoint-gauge kernel into the
    # doubly-constrained space, modulo nothing at all on the trace side
    lay2 = cy.DataLayout(sector, 2)
    fix = np.eye(lay2.size) - blocks["sym_grad"] @ s0
    assert np.max(np.abs(blocks["neg_trace"] @ fix)) < 1e-12
    assert np.max(np.abs(blocks["sym_div"] @ blocks["sym_grad"] @ s0)) < 1e-12


def test_racah_and_wigner():
    for sector in (SectorLabel(Family.SCALAR, 2), SectorLabel(Family.VECTOR, 1),
                   SectorLabel(Family.TENSOR, 2)):
        s = rl.to_numpy(cy.kappa_block(sector, 2))
        qi2 = rl.to_numpy(cy.physical_charge_form(sector))
        # S* q_{I,2} S = -q_{I,2}
        assert np.allclose(s.T @ qi2 @ s, -qi2)
        # Z f = M conj(f) is an involution and anti-unitary for the charge:
        # q(Zf, Zg) = conj(q(f, g)) reduces to M^T q M = q (q real here)
        mz = rl.to_numpy(cy.wigner_matrix(sector))
        assert np.allclose(mz @ mz, np.eye(len(mz)))
        assert np.allclose(mz.T @ qi2 @ mz, qi2)


def test_killing_count():
    total = 0
    for sec in enumerate_sectors(3):
        kd = killing_data(sec)
        total += kd.shape[1] * sec.multiplicity
    assert total == 10  # 4 boosts-type + 6 rotations-type


def test_gauge_orthogonality_predicate():
    # Killing data are isotropic for the charge (they lie inside their own
    # orthogonal), and the orthogonality condition in the boost sector is
    # f_1s = delta f_0S (on Lorentzian data, phases included)
    sec = SectorLabel(Family.SCALAR, 1)
    kd = killing_data(sec)[:, 0]
    assert gauge_orthogonal_residual(kd, sec) < 1e-14
    lay = cy.DataLayout(sec, 1)
    f = np.zeros(lay.size, complex)
    f[lay.offsets[1]] = 1.0                      # f_0S = 1
    f[lay.half + lay.offsets[0]] = -3.0j         # f_1s picks the Wick phase
    assert gauge_orthogonal_residual(f, sec) < 1e-14
    f[lay.half + lay.offsets[0]] = 3.0j
    assert gauge_orthogonal_residual(f, sec) > 1.0
    # sectors without Killing content are unconstrained
    f2 = np.ones(cy.DataLayout(SectorLabel(Family.SCALAR, 2), 1).size)
    assert gauge_orthogonal_residual(f2, SectorLabel(Family.SCALAR, 2)) == 0.0
