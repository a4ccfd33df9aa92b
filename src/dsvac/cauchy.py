"""Cauchy data on the equator, per sector: their layout, reflection, Wick
phases, blocks and forms.

This module is the one owner of how Cauchy data are represented.  Data for
a rank-k field are (value, normal derivative) pairs over the sector slot
bases (``DataLayout``); Euclidean convention (u, -du/ds), Lorentzian
(u, (1/i) du/dt), components ordered (ss, sS, SS) resp. (s, S) inside each
half.  The reflection signs ``warped.kappa_signs`` (``reflection``) and the
Wick phases i^(rank - r) (``wick_phases``) act per component, and every
Lorentzian block is its Euclidean one conjugated by the phases
(``lorentz_block``).  Every exact block on data (the symmetrized gradient
and its adjoint, metric attachment and trace, plain gradient/divergence,
trace reversal) is one jet of the warped calculus in ``BLOCK_JETS``,
evaluated at the equator by ``WarpedSector.cauchy_block``; second
derivatives are eliminated with the input's radial system as
``radial.build_system`` caches it, so the gradient on scalars carries the
gravity shift (D0 = D0L - 6) unless the Maxwell system is asked for.  The
blocks and forms are built once per sector and are read-only arrays: the
blocks exact (numpy object arrays of ``Fraction``), the forms (Gram,
charges) exact inside and ``astype(float)`` of them outside.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .radial import build_system
from .sectors import SCALAR0, SCALAR1, VECTOR1, space
from .warped import EUCLIDEAN, LORENTZIAN, WarpedSector, data_weight, kappa_signs

Q = Fraction


class DataLayout:
    """Flat layout of doubled Cauchy data for one sector and rank: in each
    half the slots r = 0..rank one after another, ``ranks`` the slot of
    each component of a half."""

    def __init__(self, sector, rank):
        self.sector = sector
        self.rank = rank
        sp = space(sector)
        self.slot_dims = [sp.dim(r) for r in range(rank + 1)]
        self.ranks = [r for r, dim in enumerate(self.slot_dims) for _ in range(dim)]
        self.half = len(self.ranks)
        self.size = 2 * self.half
        self.offsets = []
        o = 0
        for d in self.slot_dims:
            self.offsets.append(o)
            o += d


def _read_only(arr):
    arr.setflags(write=False)
    return arr


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
        block = np.array(jet_block(sector, name, signature, maxwell=maxwell),
                         dtype=object).reshape(2 * n_out, 2 * n_in)
        block[:n_out, n_in:] *= -1
        block[n_out:, :n_in] *= -1
        _DATA_BLOCKS[key] = _read_only(block)
    return _DATA_BLOCKS[key]


# -- reflection and Wick phases -----------------------------------------------

@lru_cache(maxsize=None)
def reflection(sector, rank, second=-1):
    """Reflection signs on doubled data: kappa = ``warped.kappa_signs`` on
    the values and ``second * kappa`` on the normal derivatives.  With
    ``second`` = -1 this is the data reflection, which is also the linear
    time reversal S on Cauchy data; with +1 on rank-2 data the matrix part M
    of the antilinear time reversal Z f = M conj(f)."""
    kap = np.array(kappa_signs(rank), dtype=float)[DataLayout(sector, rank).ranks]
    return _read_only(np.concatenate([kap, second * kap]))


@lru_cache(maxsize=None)
def wick_phases(sector, rank):
    """Diagonal of the component phase map F (doubled): i^(rank - r)."""
    ph = [1j ** (rank - r) for r in DataLayout(sector, rank).ranks]
    return _read_only(np.array(ph + ph, dtype=complex))


def lorentz_block(block, sector, rank_out, rank_in=None):
    """Conjugate a Euclidean data block (exact rows or an array) by the Wick
    phases, F_out^-1 B F_in.  With ``rank_in`` None the columns are not
    data (a basis of data, or a map's action on one), so only the rows are
    rephased."""
    f_out = wick_phases(sector, rank_out)
    b = np.array(block, dtype=complex)
    if rank_in is None:
        return b / f_out[:, None]
    f_in = wick_phases(sector, rank_in)
    return b.reshape(len(f_out), len(f_in)) / f_out[:, None] * f_in


# -- Hermitian forms ----------------------------------------------------------

@lru_cache(maxsize=None)
def data_gram(sector, rank):
    """Riemannian Hilbert Gram of doubled Cauchy data (positive definite)."""
    w = data_weight(sector, rank)
    z = np.zeros_like(w)
    return _read_only(np.block([[w, z], [z, w]]).astype(float))


def normalized_columns(sector, basis, rank):
    """Columns scaled to unit Riemannian data norm (zero columns dropped, a
    NaN column kept unscaled, so that every check reading it fails)."""
    if basis.shape[1] == 0:
        return basis
    g = data_gram(sector, rank)
    out = []
    for j in range(basis.shape[1]):
        col = basis[:, j]
        nrm = np.sqrt(np.real(col.conj() @ g @ col))
        if np.isnan(nrm):
            out.append(col)
        elif nrm > 1e-14:
            out.append(col / nrm)
    return np.column_stack(out) if out else basis[:, :0]


@lru_cache(maxsize=None)
def _exact_charge(sector, rank):
    """q_k exactly: the charge's weight (``data_weight`` with the reflection
    signs) pairs the values with the normal derivatives."""
    d = data_weight(sector, rank, lorentz_signs=True)
    z = np.zeros_like(d)
    return _read_only(np.block([[z, d], [d, z]]))


@lru_cache(maxsize=None)
def charge_form(sector, rank):
    """Lorentzian conserved charge q_k as a Hermitian form matrix."""
    return _read_only(_exact_charge(sector, rank).astype(float))


@lru_cache(maxsize=None)
def physical_charge_form(sector):
    """q_{I,2} = q_2 o I_Sigma (trace-reversed charge on rank-2 data), the
    product taken exactly."""
    exact = _exact_charge(sector, 2) @ data_block(sector, "trace_reversal")
    return _read_only(exact.astype(float))


def charge_raw(system, u, du, v, dv, t):
    """Conserved charge pairing of two raw solutions of a Lorentzian system
    at time t.  Its weight is the off-diagonal block of ``charge_form`` with
    the slot-r rows scaled by cosh(t)^(3 - 2r)."""
    n = system.n
    w = charge_form(system.sector, system.rank)[:n, n:] * np.array(
        [np.cosh(t) ** (3 - 2 * r) for r in system.slot_ranks])[:, None]
    return 1j * (du.conj() @ w @ v - u.conj() @ w @ dv)


# -- Lorentzian blocks --------------------------------------------------------

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
            _LORENTZ_BLOCKS[key] = _read_only(lorentz_block(
                data_block(sector, name, maxwell), sector, rank_out, rank_in))
        out[name] = _LORENTZ_BLOCKS[key]
    return out


def trace_fix_block(sector):
    """S0 on data: -(1/12) grad o neg_trace, rank-2 -> rank-1 (Lorentzian)."""
    blocks = lorentz_gauge_blocks(sector, "grad", "neg_trace")
    return (-1.0 / 12.0) * (blocks["grad"] @ blocks["neg_trace"])


# -- the Killing sectors and the two theories ---------------------------------

KILLING_SECTORS = (SCALAR1, VECTOR1)


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
        """The conserved charge on field data: q_{I,2} resp. q_1."""
        if self.maxwell:
            return charge_form(sector, 1)
        return physical_charge_form(sector)

    def gauge_block(self, sector):
        """Lorentzian gauge operator on data, gauge parameters -> field."""
        return lorentz_gauge_blocks(sector, self.gauge, maxwell=self.maxwell)[self.gauge]


GRAVITY = Theory("gravity", 2, False, {"D1": KILLING_SECTORS}, (3, 4), "sym_grad",
                 ("sym_div", "neg_trace"))
MAXWELL = Theory("maxwell", 1, True, {"D0": (SCALAR0,)},
                 (0,), "grad", ("div",))
