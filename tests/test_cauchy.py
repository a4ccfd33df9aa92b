"""Cauchy-surface operator blocks: dual-route validation.

The library evaluates every exact block on data as a jet of the warped
calculus (``cauchy.data_block``); ``routes`` tabulates the same blocks slot
by slot.  They must agree exactly.  On top of that the composition
identities of the gauge complex are checked exactly, and the Lorentzian
conjugates satisfy the charge adjointness relations.
"""

import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import routes
from dsvac import cauchy as cy
from dsvac.radial import build_system
from dsvac.sectors import Family, SectorLabel, enumerate_sectors
from dsvac.warped import EUCLIDEAN, WarpedSector, data_weight
from routes import gauge_orthogonal_residual, killing_data, killing_data_euclid

Q = Fraction

SECTORS = enumerate_sectors(4)


@pytest.mark.parametrize("sector", enumerate_sectors(24), ids=str)
def test_blocks_match_engine(sector):
    for name in ("sym_grad", "sym_div", "metric_mult", "neg_trace", "grad", "div"):
        table = getattr(routes, f"{name}_block")
        assert np.array_equal(cy.data_block(sector, name), table(sector)), name
    for name in ("grad", "div"):
        table = getattr(routes, f"{name}_block")
        assert np.array_equal(cy.data_block(sector, name, maxwell=True),
                              table(sector, maxwell=True)), name
    assert np.array_equal(cy.data_block(sector, "trace_reversal"),
                          routes.trace_reversal_block(sector, "lorentzian"))


def test_blocks_are_built_once_and_immutable():
    sec = SectorLabel(Family.SCALAR, 3)
    # the float forms: built once, read-only, the exact forms converted
    forms = [(cy.physical_charge_form, (sec,), routes.physical_charge_form_exact)]
    for rank in (0, 1, 2):
        forms += [(cy.charge_form, (sec, rank), routes.charge_form_exact),
                  (cy.data_gram, (sec, rank), routes.data_gram_exact)]
    for form, args, exact in forms:
        mat = form(*args)
        assert form(*args) is mat
        assert not mat.flags.writeable
        assert np.array_equal(mat, exact(*args).astype(float)), (form, args)
    with pytest.raises(ValueError):
        cy.charge_form(sec, 2)[0, 0] = 1.0
    assert cy.GRAVITY.charge(sec) is cy.physical_charge_form(sec)
    assert cy.MAXWELL.charge(sec) is cy.charge_form(sec, 1)
    # the exact blocks and the exact charge inside: built once, read-only
    block = cy.data_block(sec, "sym_grad")
    assert cy.data_block(sec, "sym_grad", maxwell=False) is block
    q = cy._exact_charge(sec, 2)
    assert cy._exact_charge(sec, 2) is q
    for exact in (block, q):
        assert exact.dtype == object and not exact.flags.writeable
    with pytest.raises(ValueError):
        q[0, 0] = Q(1)
    blocks = cy.lorentz_gauge_blocks(sec, "sym_grad", "neg_trace")
    again = cy.lorentz_gauge_blocks(sec, "neg_trace", "sym_grad")
    for name, block in blocks.items():
        assert again[name] is block
        assert not block.flags.writeable
    with pytest.raises(ValueError):
        blocks["sym_grad"][0, 0] = 1.0
    assert cy.GRAVITY.gauge_block(sec) is blocks["sym_grad"]


def test_exact_arrays_stay_exact_and_read_only():
    # a float creeping into an exact block would round what is checked
    # exactly; the only ints are the zeros that numpy fills in
    def check(arr, shared):
        assert isinstance(arr, np.ndarray) and arr.ndim == 2 and arr.dtype == object
        assert all(type(x) in (int, Fraction) for x in arr.flat)
        assert not (shared and arr.flags.writeable)

    for sec in SECTORS:
        for name in cy.BLOCK_JETS:
            check(cy.data_block(sec, name), shared=True)
        for name in ("grad", "div"):
            check(cy.data_block(sec, name, maxwell=True), shared=True)
        for rank in (0, 1, 2):
            check(cy._exact_charge(sec, rank), shared=True)
            for signs in (False, True):
                check(data_weight(sec, rank, lorentz_signs=signs), shared=False)
    # exact matrices are multiplied, stacked and scaled by numpy; of
    # dsvac.rational the library calls only the null space, the in-place
    # update of sparse exact vectors and their scaling to primitive integers
    calls = {name for path in Path(cy.__file__).parent.glob("*.py")
             for name in re.findall(r"\brl\.(\w+)", path.read_text())}
    assert calls == {"accumulate", "nullspace", "primitive"}


def test_elimination_only_for_second_derivatives():
    ws = WarpedSector(SectorLabel(Family.SCALAR, 2), EUCLIDEAN)
    calls = []

    def elim():
        calls.append(1)
        return ws.radial_matrices(1)

    # metric attachment, trace and trace reversal are algebraic in u
    ws.cauchy_block(lambda z: ws.metric_mult(z), 0, 2, elim=elim)
    ws.cauchy_block(lambda z: ws.metric_pair(z, -1), 2, 0, elim=elim)
    ws.cauchy_block(lambda z: ws.trace_reversal(z), 2, 2, elim=elim)
    assert calls == []
    ws.cauchy_block(lambda z: ws.trace_reversal(ws.d(z, 1)), 1, 2, elim=elim)
    assert calls == [1]


def test_blocks_eliminate_with_the_cached_system(monkeypatch):
    # Vector(30) is full, so its block is its family's evaluated; the
    # family's block is built anew here, and its second derivatives are
    # eliminated with the family system that building Vector(30)'s cached
    sec = SectorLabel(Family.VECTOR, 30)  # built by no other test
    build_system("D2", sec, EUCLIDEAN, maxwell=False)
    family_key = (Family.VECTOR, "sym_div", False)
    monkeypatch.delitem(cy._DATA_BLOCKS, family_key, raising=False)
    reductions = []
    reduce = WarpedSector.radial_matrices
    monkeypatch.setattr(WarpedSector, "radial_matrices",
                        lambda self, *a, **k: reductions.append(a) or reduce(self, *a, **k))
    cy.data_block(sec, "sym_div")
    assert reductions == []
    assert family_key in cy._DATA_BLOCKS


def test_sym_div_examples():
    # Scalar(0): g_1ss = 1 gives f_0s = 2, everything else 0
    sec = SectorLabel(Family.SCALAR, 0)
    m = cy.data_block(sec, "sym_div")
    lay2, lay1 = cy.DataLayout(sec, 2), cy.DataLayout(sec, 1)
    g = [Q(0)] * lay2.size
    g[lay2.half + lay2.offsets[0]] = Q(1)
    f = (m @ g).tolist()
    expect = [Q(0)] * lay1.size
    expect[lay1.offsets[0]] = Q(2)
    assert f == expect
    # Vector(1): g_0sS input is annihilated (eigenvalue 4)
    secv = SectorLabel(Family.VECTOR, 1)
    mv = cy.data_block(secv, "sym_div")
    layv = cy.DataLayout(secv, 2)
    g = [Q(0)] * layv.size
    g[layv.offsets[1]] = Q(1)
    assert (mv @ g).tolist() == [Q(0)] * cy.DataLayout(secv, 1).size


def test_sym_grad_kills_killing_data():
    for sec in (SectorLabel(Family.SCALAR, 1), SectorLabel(Family.VECTOR, 1)):
        m = cy.data_block(sec, "sym_grad")
        for v in killing_data_euclid(sec):
            assert (m @ v).tolist() == [Q(0)] * cy.DataLayout(sec, 2).size


@pytest.mark.parametrize("sector", SECTORS, ids=str)
def test_gauge_complex_identities(sector):
    # adjoint-gauge o gauge = 0 exactly (Euclidean)
    kdag = cy.data_block(sector, "sym_div")
    k21 = cy.data_block(sector, "sym_grad")
    z = kdag @ k21
    assert all(all(v == 0 for v in row) for row in z)
    # trace-adjoint o gauge = -2 * divergence
    k20d = cy.data_block(sector, "neg_trace")
    assert np.array_equal(k20d @ k21, -2 * cy.data_block(sector, "div"))
    # divergence o gradient = 2*Lambda = 6 (gravity), 0 (Maxwell)
    lay0 = cy.DataLayout(sector, 0)
    if lay0.size:
        grav = cy.data_block(sector, "div") @ cy.data_block(sector, "grad")
        assert np.array_equal(grav, 6 * routes.eye(lay0.size))
        mx = (cy.data_block(sector, "div", maxwell=True)
              @ cy.data_block(sector, "grad", maxwell=True))
        assert all(all(v == 0 for v in row) for row in mx)
    # neg_trace o metric_mult = -8 per doubled level
    if lay0.size:
        comp = cy.data_block(sector, "neg_trace") @ cy.data_block(sector, "metric_mult")
        assert np.array_equal(comp, -8 * routes.eye(lay0.size))


@pytest.mark.parametrize("sector", SECTORS, ids=str)
def test_trace_reversal(sector):
    # the library's block is the Lorentzian one; the engine in the Euclidean
    # signature gives the Euclidean one (it does not mix the data halves)
    i_lor = cy.data_block(sector, "trace_reversal")
    i_eu = np.array(cy.jet_block(sector, "trace_reversal", EUCLIDEAN), dtype=object)
    assert np.array_equal(i_eu, routes.trace_reversal_block(sector, "euclidean"))
    for i2 in (i_lor, i_eu):
        assert np.array_equal(i2 @ i2, routes.eye(len(i2)))
    # Euclidean version is the Wick conjugate of the Lorentzian one
    f = cy.wick_phases(sector, 2)
    assert np.allclose(f[:, None] * i_lor.astype(float) * (1 / f)[None, :],
                       i_eu.astype(float))
    # I is q2-self-adjoint: Q2 I symmetric, hence q_{I,2} Hermitian
    qi2 = cy.physical_charge_form(sector)
    assert np.allclose(qi2, qi2.T)


@pytest.mark.parametrize("sector", SECTORS, ids=str)
def test_charge_vs_symplectic(sector):
    # q_k = sigma o diag(kappa, -kappa), exactly, for ranks 0..2; the float
    # reflection is diag(kappa, +-kappa), kappa = kappa_signs per slot
    for rank in (0, 1, 2):
        if cy.DataLayout(sector, rank).size == 0:
            continue
        assert np.array_equal(cy._exact_charge(sector, rank),
                              routes.charge_form_exact(sector, rank))
        for second in (-1, 1):
            kap = routes.reflection_block(sector, rank, second)
            assert cy.reflection(sector, rank, second).tolist() == [
                row[i] for i, row in enumerate(kap)]


@pytest.mark.parametrize("sector", SECTORS, ids=str)
def test_lorentz_adjointness(sector):
    # (sym_div)^H q_1 = q_{I,2} sym_grad as complex matrices
    blocks = cy.lorentz_gauge_blocks(sector, "sym_grad", "sym_div", "neg_trace",
                                     "metric_mult")
    q1 = cy.charge_form(sector, 1)
    qi2 = cy.physical_charge_form(sector)
    lhs = blocks["sym_div"].conj().T @ q1
    rhs = qi2 @ blocks["sym_grad"]
    assert np.max(np.abs(lhs - rhs)) < 1e-12 if lhs.size else True
    # gauge composition vanishes on the Lorentzian side too
    z = blocks["sym_div"] @ blocks["sym_grad"]
    assert np.max(np.abs(z)) < 1e-12 if z.size else True
    # trace adjoint adjointness: (neg_trace)^H q_0 = q_{I,2} metric_mult
    q0 = cy.charge_form(sector, 0)
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
    blocks = cy.lorentz_gauge_blocks(sector, "sym_grad", "sym_div", "neg_trace", "grad")
    # S0 on data: -(1/12) grad o neg_trace, rank 2 -> rank 1 (Lorentzian)
    s0 = (-1.0 / 12.0) * (blocks["grad"] @ blocks["neg_trace"])
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
        s = np.diag(cy.reflection(sector, 2))
        qi2 = cy.physical_charge_form(sector)
        # S* q_{I,2} S = -q_{I,2}
        assert np.allclose(s.T @ qi2 @ s, -qi2)
        # Z f = M conj(f) is an involution and anti-unitary for the charge:
        # q(Zf, Zg) = conj(q(f, g)) reduces to M^T q M = q (q real here)
        mz = np.diag(cy.reflection(sector, 2, +1))
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
