"""Cauchy-surface operators on the equator, per sector.

Cauchy data for a rank-k field are (value, normal derivative) pairs over the
sector slot bases; Euclidean convention (u, -du/ds), Lorentzian
(u, (1/i) du/dt), components ordered (ss, sS, SS) resp. (s, S) inside each
half.  Every exact block on data (the symmetrized gradient and its adjoint,
metric attachment and trace, plain gradient/divergence, trace reversal) is
one jet of the warped calculus in ``BLOCK_JETS``, evaluated at the equator
by ``WarpedSector.cauchy_block``; second derivatives are eliminated with the
input's radial system as ``radial.build_system`` caches it, so the gradient
on scalars carries the gravity shift (D0 = D0L - 6) unless the Maxwell
system is asked for.  Lorentzian versions follow by conjugation with the
Wick component phases.  The exact blocks and forms are built once per
sector and returned with immutable rows.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import rational as rl
from .radial import build_system
from .sectors import Family, SectorLabel, space
from .warped import EUCLIDEAN, LORENTZIAN, WarpedSector, data_weight, kappa_signs

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


def _frozen(rows):
    return tuple(map(tuple, rows))


# -- exact blocks: one jet of the warped calculus each ------------------------

# name -> (jet on the unknown section z, rank in, rank out, signature).  The
# trace reversal is the Lorentzian one (it enters the physical charge); every
# other block is Euclidean.
BLOCK_JETS = {
    "sym_grad": (lambda ws, z: ws.trace_reversal(ws.d(z, 1)), 1, 2, EUCLIDEAN),
    "sym_div": (lambda ws, z: ws.delta(z, 2), 2, 1, EUCLIDEAN),
    "metric_mult": (lambda ws, z: ws.metric_mult(z), 0, 2, EUCLIDEAN),
    "neg_trace": (lambda ws, z: ws.metric_pair(z, -1), 2, 0, EUCLIDEAN),
    "grad": (lambda ws, z: ws.d(z, 0), 0, 1, EUCLIDEAN),
    "div": (lambda ws, z: ws.delta(z, 1), 1, 0, EUCLIDEAN),
    "trace_reversal": (lambda ws, z: ws.trace_reversal(z), 2, 2, LORENTZIAN),
}


def jet_block(sector, name, signature, at=(Q(1), Q(0)), maxwell=False):
    """Block ``name`` on raw jets, (u, u') -> (v, v') at the point
    ``at`` = (a, adot) of ``signature``; exact when ``at`` is rational.
    Second derivatives are eliminated with the cached radial system of the
    input rank (the Maxwell one if ``maxwell``)."""
    jet, rank_in, rank_out, _ = BLOCK_JETS[name]
    ws = WarpedSector(sector, signature)

    def elim():
        system = build_system(f"D{rank_in}", sector, signature, maxwell=maxwell)
        return system.slot_ranks, system.m1, system.m0

    return ws.cauchy_block(lambda z: jet(ws, z), rank_in, rank_out, elim=elim,
                           at=at)


# keyed on bool(maxwell): lru_cache would key a defaulted and an explicit
# maxwell=False apart and build the block twice
_DATA_BLOCKS = {}


def data_block(sector, name, maxwell=False):
    """Exact block ``name`` on Cauchy data at the equator: the jet block
    with the derivative halves in the data convention (u, -u'), built once
    per (sector, name, maxwell).  (The trace reversal does not mix the
    halves, so the convention of its Lorentzian data leaves it unchanged.)"""
    key = (sector, name, bool(maxwell))
    if key not in _DATA_BLOCKS:
        _, rank_in, rank_out, signature = BLOCK_JETS[name]
        n_in = DataLayout(sector, rank_in).half
        n_out = DataLayout(sector, rank_out).half
        raw = jet_block(sector, name, signature, maxwell=maxwell)
        _DATA_BLOCKS[key] = tuple(
            tuple(-v if (i >= n_out) != (j >= n_in) else v for j, v in enumerate(row))
            for i, row in enumerate(raw))
    return _DATA_BLOCKS[key]


# -- Hermitian forms ----------------------------------------------------------

@lru_cache(maxsize=None)
def data_gram(sector, rank):
    """Riemannian Hilbert Gram of doubled Cauchy data (positive definite)."""
    w = data_weight(sector, rank)
    return _frozen(rl.block_diag([w, w]))


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


@lru_cache(maxsize=None)
def charge_form(sector, rank):
    """Lorentzian conserved charge q_k as a Hermitian form matrix."""
    d = data_weight(sector, rank, lorentz_signs=True)
    n = len(d)
    z = rl.zeros(n, n)
    return _frozen(rl.vstack([rl.hstack([z, d]), rl.hstack([d, z])]))


def euclid_symplectic_form(sector, rank):
    """Green's-formula boundary form sigma (anti-Hermitian)."""
    w = data_weight(sector, rank)
    n = len(w)
    z = rl.zeros(n, n)
    return rl.vstack([rl.hstack([z, rl.scale(w, -1)]), rl.hstack([w, z])])


@lru_cache(maxsize=None)
def physical_charge_form(sector):
    """q_{I,2} = q_2 o I_Sigma (trace-reversed charge on rank-2 data)."""
    return _frozen(rl.matmul(charge_form(sector, 2),
                             data_block(sector, "trace_reversal")))


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


def wigner_matrix(sector):
    """Matrix part of the antilinear time reversal on rank-2 data:
    Z f = M conj(f)."""
    return rl.block_diag([[[v]] for v in kappa_diagonal(sector, 2, +1)])


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


_LORENTZ_BLOCKS = {}


def lorentz_gauge_blocks(sector, *names, maxwell=False):
    """The named Lorentzian blocks (Euclidean ones of ``BLOCK_JETS``
    conjugated by the Wick phases), each built once per sector and
    read-only."""
    out = {}
    for name in names:
        key = (sector, name, bool(maxwell))
        if key not in _LORENTZ_BLOCKS:
            _, rank_in, rank_out, _ = BLOCK_JETS[name]
            block = lorentz_block(data_block(sector, name, maxwell), sector,
                                  rank_out, rank_in)
            block.setflags(write=False)
            _LORENTZ_BLOCKS[key] = block
        out[name] = _LORENTZ_BLOCKS[key]
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
    state projects out; ``gauge`` names the gauge operator's block in
    ``BLOCK_JETS``, and ``constraints`` the blocks whose joint null space is
    the constrained phase space E.
    """

    name: str
    rank: int
    maxwell: bool
    quotient_sectors: dict
    bad_levels: tuple
    gauge: str
    constraints: tuple

    def charge(self, sector):
        """The conserved charge on field data (exact): q_{I,2} resp. q_1."""
        if self.maxwell:
            return charge_form(sector, 1)
        return physical_charge_form(sector)

    def gauge_block(self, sector):
        """Lorentzian gauge operator on data, gauge parameters -> field."""
        return lorentz_gauge_blocks(sector, self.gauge, maxwell=self.maxwell)[self.gauge]


GRAVITY = Theory("gravity", 2, False, {"D1": KILLING_SECTORS}, (3, 4), "sym_grad",
                 ("sym_div", "neg_trace"))
MAXWELL = Theory("maxwell", 1, True, {"D0": (SectorLabel(Family.SCALAR, 0),)},
                 (0,), "grad", ("div",))
