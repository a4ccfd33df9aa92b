"""Cauchy-surface operators on the equator, per sector.

Cauchy data for a rank-k field are (value, normal derivative) pairs over the
sector slot bases; Euclidean convention (u, -du/ds), Lorentzian
(u, (1/i) du/dt), components ordered (ss, sS, SS) resp. (s, S) inside each
half.  The Euclidean blocks of the gauge operators (symmetrized gradient and
its adjoints, metric attachment and trace, plain gradient/divergence) are
exact rational matrices; Lorentzian versions follow by conjugation with the
Wick component phases.

The gradient block on scalars carries the gravity shift (the scalar operator
entering its jet elimination is D0 = D0L - 6, unlike the Maxwell case) and
is cross-validated by the composition identities div o grad = 2*Lambda = 6
and trace* o symgrad = -2 grad*.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import rational as rl
from .sectors import Family, SectorLabel, space
from .warped import fiber_weights, kappa_signs

Q = Fraction


class DataLayout:
    """Flat layout of doubled Cauchy data for one sector and rank."""

    def __init__(self, sector, rank):
        self.sector = sector
        self.rank = rank
        sp = space(sector)
        self.slot_dims = [sp.dim(r) for r in range(rank + 1)]
        self.half = sum(self.slot_dims)
        self.size = 2 * self.half
        self.offsets = []
        o = 0
        for d in self.slot_dims:
            self.offsets.append(o)
            o += d


def _blockmap(layout_out, layout_in):
    return rl.zeros(layout_out.size, layout_in.size)


def _set(dst, layout_out, half_out, slot_out, layout_in, half_in, slot_in, mat, scale=1):
    ro = half_out * layout_out.half + layout_out.offsets[slot_out]
    co = half_in * layout_in.half + layout_in.offsets[slot_in]
    for i, row in enumerate(mat):
        for j, v in enumerate(row):
            if v != 0:
                dst[ro + i][co + j] += Q(scale) * v


def _ops(sector):
    sp = space(sector)
    out = {}
    for name, rank in (("d", 0), ("d", 1), ("delta", 1), ("delta", 2),
                       ("htrace", 2), ("hmul", 0)):
        try:
            m, _ = sp.op(name, rank)
        except ValueError:
            m = []
        out[(name, rank)] = m
    return out


# -- Euclidean rational blocks ------------------------------------------------

def sym_div_block(sector):
    """Adjoint gauge operator on data, rank-2 -> rank-1 (Euclidean)."""
    lam = sector.eigenvalue
    li, lo = DataLayout(sector, 2), DataLayout(sector, 1)
    op = _ops(sector)
    m = _blockmap(lo, li)
    _set(m, lo, 0, 0, li, 1, 0, rl.eye(li.slot_dims[0]), 2)
    _set(m, lo, 0, 0, li, 0, 1, op[("delta", 1)], 2)
    _set(m, lo, 0, 1, li, 1, 1, rl.eye(li.slot_dims[1]), 2)
    _set(m, lo, 0, 1, li, 0, 2, op[("delta", 2)])
    _set(m, lo, 1, 0, li, 0, 0, rl.eye(li.slot_dims[0]), 2 * (lam - 3))
    _set(m, lo, 1, 0, li, 1, 1, op[("delta", 1)], 2)
    _set(m, lo, 1, 0, li, 0, 2, op[("htrace", 2)], -1)
    _set(m, lo, 1, 1, li, 0, 1, rl.eye(li.slot_dims[1]), 2 * (lam - 4))
    _set(m, lo, 1, 1, li, 1, 2, op[("delta", 2)])
    return m


def sym_grad_block(sector):
    """Gauge operator on data, rank-1 -> rank-2 (Euclidean)."""
    lam = sector.eigenvalue
    li, lo = DataLayout(sector, 1), DataLayout(sector, 2)
    op = _ops(sector)
    m = _blockmap(lo, li)
    half = Q(1, 2)
    _set(m, lo, 0, 0, li, 1, 0, rl.eye(li.slot_dims[0]), -half)
    _set(m, lo, 0, 0, li, 0, 1, op[("delta", 1)], half)
    _set(m, lo, 0, 1, li, 1, 1, rl.eye(li.slot_dims[1]), -half)
    _set(m, lo, 0, 1, li, 0, 0, op[("d", 0)], half)
    _set(m, lo, 0, 2, li, 0, 1, op[("d", 1)])
    _set(m, lo, 0, 2, li, 1, 0, op[("hmul", 0)], half)
    if li.slot_dims[1] and li.slot_dims[0]:
        hd = rl.matmul(op[("hmul", 0)], op[("delta", 1)])
        _set(m, lo, 0, 2, li, 0, 1, hd, half)
    _set(m, lo, 1, 0, li, 0, 0, rl.eye(li.slot_dims[0]), -half * lam)
    _set(m, lo, 1, 0, li, 1, 1, op[("delta", 1)], half)
    _set(m, lo, 1, 1, li, 0, 1, rl.eye(li.slot_dims[1]), -half * (lam - 4))
    _set(m, lo, 1, 1, li, 1, 0, op[("d", 0)], half)
    _set(m, lo, 1, 2, li, 1, 1, op[("d", 1)])
    if li.slot_dims[1] and li.slot_dims[0]:
        _set(m, lo, 1, 2, li, 1, 1, hd, half)
    _set(m, lo, 1, 2, li, 0, 0, op[("hmul", 0)], half * (lam - 4))
    return m


def neg_trace_block(sector):
    """Trace adjoint of the metric attachment, rank-2 -> rank-0."""
    li, lo = DataLayout(sector, 2), DataLayout(sector, 0)
    op = _ops(sector)
    m = _blockmap(lo, li)
    for h in (0, 1):
        _set(m, lo, h, 0, li, h, 0, rl.eye(li.slot_dims[0]), -2)
        _set(m, lo, h, 0, li, h, 2, op[("htrace", 2)], -1)
    return m


def metric_mult_block(sector):
    """Metric attachment on data, rank-0 -> rank-2 (Euclidean)."""
    li, lo = DataLayout(sector, 0), DataLayout(sector, 2)
    op = _ops(sector)
    m = _blockmap(lo, li)
    for h in (0, 1):
        _set(m, lo, h, 0, li, h, 0, rl.eye(li.slot_dims[0]))
        _set(m, lo, h, 2, li, h, 0, op[("hmul", 0)])
    return m


def grad_block(sector, maxwell=False):
    """Gradient on data, rank-0 -> rank-1 (Euclidean).

    The second-derivative elimination uses the scalar operator of the
    theory: D0L - 6 for linearized gravity, D0L for Maxwell.
    """
    lam = sector.eigenvalue
    shift = Q(0) if maxwell else Q(6)
    li, lo = DataLayout(sector, 0), DataLayout(sector, 1)
    op = _ops(sector)
    m = _blockmap(lo, li)
    _set(m, lo, 0, 0, li, 1, 0, rl.eye(li.slot_dims[0]), -1)
    _set(m, lo, 0, 1, li, 0, 0, op[("d", 0)])
    _set(m, lo, 1, 0, li, 0, 0, rl.eye(li.slot_dims[0]), -(lam - shift))
    _set(m, lo, 1, 1, li, 1, 0, op[("d", 0)])
    return m


def div_block(sector, maxwell=False):
    """Divergence on data, rank-1 -> rank-0 (Euclidean)."""
    lam = sector.eigenvalue
    shift = Q(0) if maxwell else Q(6)
    li, lo = DataLayout(sector, 1), DataLayout(sector, 0)
    op = _ops(sector)
    m = _blockmap(lo, li)
    _set(m, lo, 0, 0, li, 1, 0, rl.eye(li.slot_dims[0]))
    _set(m, lo, 0, 0, li, 0, 1, op[("delta", 1)])
    _set(m, lo, 1, 0, li, 0, 0, rl.eye(li.slot_dims[0]), lam - shift)
    _set(m, lo, 1, 0, li, 1, 1, op[("delta", 1)])
    return m


def trace_reversal_half(sector, flavor):
    """Trace reversal on one half of rank-2 data (value components)."""
    lay = DataLayout(sector, 2)
    op = _ops(sector)
    n = lay.half
    m = rl.eye(n)
    d0, d2 = lay.slot_dims[0], lay.slot_dims[2]
    if d0 == 0:
        return m
    o0, o2 = lay.offsets[0], lay.offsets[2]
    tr = rl.scale(op[("htrace", 2)], Q(1, 2))  # h-trace
    hm = op[("hmul", 0)]
    sgn = Q(1) if flavor == "lorentzian" else Q(-1)
    # (Iu)_00 = 1/2 u_00 + sgn * 1/2 tr_h u_SS
    for i in range(d0):
        m[o0 + i][o0 + i] = Q(1, 2)
        for j in range(d2):
            m[o0 + i][o2 + j] = sgn * Q(1, 2) * tr[i][j]
    # (Iu)_SS = u_SS + sgn * 1/2 |h) u_00 - 1/2 |h) tr_h u_SS
    hmtr = rl.matmul(hm, tr)
    for i in range(d2):
        for j in range(d0):
            m[o2 + i][o0 + j] += sgn * Q(1, 2) * hm[i][j]
        for j in range(d2):
            m[o2 + i][o2 + j] -= Q(1, 2) * hmtr[i][j]
    return m


def trace_reversal_block(sector, flavor="lorentzian"):
    h = trace_reversal_half(sector, flavor)
    return rl.block_diag([h, h])


# -- Hermitian forms ----------------------------------------------------------

def _weight_diag(sector, rank, lorentz_signs):
    sp = space(sector)
    wts = fiber_weights(rank)
    if lorentz_signs:
        wts = [w * k for w, k in zip(wts, kappa_signs(rank))]
    blocks = []
    for r in range(rank + 1):
        g = sp.gram(r)
        blocks.append(rl.scale(g, wts[r]) if g else g)
    return rl.block_diag(blocks)


def data_gram(sector, rank):
    """Riemannian Hilbert Gram of doubled Cauchy data (positive definite)."""
    w = _weight_diag(sector, rank, lorentz_signs=False)
    return rl.block_diag([w, w])


def normalized_columns(sector, basis, rank):
    """Columns scaled to unit Riemannian data norm (zero columns dropped)."""
    if basis.shape[1] == 0:
        return basis
    g = rl.to_numpy(data_gram(sector, rank))
    out = []
    for j in range(basis.shape[1]):
        col = basis[:, j]
        nrm = np.sqrt(np.real(col.conj() @ g @ col))
        if nrm > 1e-14:
            out.append(col / nrm)
    return np.column_stack(out) if out else basis[:, :0]


def charge_form(sector, rank):
    """Lorentzian conserved charge q_k as a Hermitian form matrix."""
    d = _weight_diag(sector, rank, lorentz_signs=True)
    n = len(d)
    z = rl.zeros(n, n)
    return rl.vstack([rl.hstack([z, d]), rl.hstack([d, z])])


def euclid_symplectic_form(sector, rank):
    """Green's-formula boundary form sigma (anti-Hermitian)."""
    w = _weight_diag(sector, rank, lorentz_signs=False)
    n = len(w)
    z = rl.zeros(n, n)
    return rl.vstack([rl.hstack([z, rl.scale(w, -1)]), rl.hstack([w, z])])


def physical_charge_form(sector):
    """q_{I,2} = q_2 o I_Sigma (trace-reversed charge on rank-2 data)."""
    q2 = charge_form(sector, 2)
    i_mat = trace_reversal_block(sector, "lorentzian")
    return rl.matmul(q2, i_mat)


def kappa_diagonal(sector, rank, second=-1):
    """Reflection signs on doubled data: kappa on the values and
    ``second * kappa`` on the normal derivatives."""
    kap = kappa_signs(rank)
    half = [kap[r] for r, dim in enumerate(DataLayout(sector, rank).slot_dims)
            for _ in range(dim)]
    return half + [second * v for v in half]


def kappa_block(sector, rank):
    """diag(kappa, -kappa): the data reflection, which is also the linear
    time reversal S on Cauchy data."""
    return rl.block_diag([[[v]] for v in kappa_diagonal(sector, rank)])


def wigner_matrix(sector, rank=2):
    """Matrix part of the antilinear time reversal: Z f = M conj(f)."""
    return rl.block_diag([[[v]] for v in kappa_diagonal(sector, rank, +1)])


# -- Wick phases and Lorentzian blocks ----------------------------------------

def wick_phases(sector, rank):
    """Diagonal of the component phase map F (doubled), complex numpy."""
    lay = DataLayout(sector, rank)
    ph = []
    for r, dim in enumerate(lay.slot_dims):
        ph.extend([1j ** (rank - r)] * dim)
    ph = np.array(ph + ph, dtype=complex)
    return ph


def lorentz_columns(cols, sector, rank):
    """Lorentzian data columns (complex) of exact Euclidean data vectors."""
    if not cols:
        return np.zeros((DataLayout(sector, rank).size, 0), dtype=complex)
    arr = np.array([[complex(x) for x in col] for col in cols]).T
    return arr / wick_phases(sector, rank)[:, None]


def lorentz_block(block_eu, sector, rank_out, rank_in):
    """Conjugate a Euclidean data block by the Wick phases."""
    size_out = DataLayout(sector, rank_out).size
    size_in = DataLayout(sector, rank_in).size
    b = np.zeros((size_out, size_in), dtype=complex)
    for i, row in enumerate(block_eu):
        for j, v in enumerate(row):
            b[i, j] = v
    if size_out == 0 or size_in == 0:
        return b
    f_out = wick_phases(sector, rank_out)
    f_in = wick_phases(sector, rank_in)
    return (1.0 / f_out)[:, None] * b * f_in[None, :]


# name -> (exact Euclidean block, rank out, rank in)
_GAUGE_BLOCKS = {
    "sym_grad": (sym_grad_block, 2, 1),
    "sym_div": (sym_div_block, 1, 2),
    "metric_mult": (metric_mult_block, 2, 0),
    "neg_trace": (neg_trace_block, 0, 2),
    "grad": (grad_block, 1, 0),
    "div": (div_block, 0, 1),
}


def lorentz_gauge_blocks(sector, *names):
    """The named Lorentzian gauge blocks (any of sym_grad, sym_div,
    metric_mult, neg_trace, grad, div), built only when asked for."""
    out = {}
    for name in names:
        block, rank_out, rank_in = _GAUGE_BLOCKS[name]
        out[name] = lorentz_block(block(sector), sector, rank_out, rank_in)
    return out


def trace_fix_block(sector):
    """S0 on data: -(1/12) grad o neg_trace, rank-2 -> rank-1 (Lorentzian)."""
    blocks = lorentz_gauge_blocks(sector, "grad", "neg_trace")
    return (-1.0 / 12.0) * (blocks["grad"] @ blocks["neg_trace"])


# -- the Killing sectors and the two theories ---------------------------------

KILLING_SECTORS = (SectorLabel(Family.SCALAR, 1), SectorLabel(Family.VECTOR, 1))


@dataclass(frozen=True, eq=False)
class Theory:
    """One field theory of the construction: linearized gravity is a rank-2
    field with rank-1 gauge parameters, Maxwell the same one rank lower.

    ``quotient_sectors`` maps an operator to the sectors where its Euclidean
    kernel is nontrivial, so that its projectors exist only on the quotient;
    ``bad_levels`` are the harmonic levels (eigenvalues) that the modified
    state projects out.
    """

    name: str
    rank: int
    maxwell: bool
    quotient_sectors: dict
    bad_levels: tuple

    def charge(self, sector):
        """The conserved charge on field data (exact): q_{I,2} resp. q_1."""
        if self.maxwell:
            return charge_form(sector, 1)
        return physical_charge_form(sector)

    def gauge_block(self, sector):
        """Lorentzian gauge operator on data, gauge parameters -> field."""
        if self.maxwell:
            return lorentz_block(grad_block(sector, maxwell=True), sector, 1, 0)
        return lorentz_gauge_blocks(sector, "sym_grad")["sym_grad"]


GRAVITY = Theory("gravity", 2, False, {"D1": KILLING_SECTORS}, (3, 4))
MAXWELL = Theory("maxwell", 1, True, {"D0": (SectorLabel(Family.SCALAR, 0),)},
                 (0,))
