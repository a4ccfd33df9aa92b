"""Phase space per sector, for gravity and Maxwell alike: bases and
decompositions.

The constrained space E (the joint null space of the theory's constraint
blocks) decomposes per sector into a gauge part and the charge kernel F, and
F into its gauge part and the one low level on which the Euclidean vacuum
is not positive (gravity's level four, Maxwell's level zero).  Each theory
supplies only its hand-audited parametrization, exact Euclidean columns with
a role each; one builder certifies them against the exact null space (they
must span E exactly) and sorts them into the parts.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import rational as rl
from .calderon import _rank, principal_angle
from .cauchy import GRAVITY, DataLayout, Theory, data_block, lorentz_block, normalized_columns
from .sectors import SCALAR0, SCALAR1, VECTOR1, Family, SectorLabel, space

Q = Fraction

KERNEL_RANK_TOL = 1e-10  # relative singular-value cut of the compressed charge

# part of E -> the roles of the columns that span it.  ``trace`` is
# gravity's Scalar(1) beta_s line (gauge by its level, not strictly); ``bad``
# spans the level that the modified state projects out.
PART_ROLES = {
    "e_gauge": ("gauge",),
    "f_space": ("f", "trace", "bad"),
    "f_gauge": ("f", "trace"),
    "f_gauge_strict": ("f",),
    "e_bad": ("bad",),
    "e_trace": ("trace",),
}

# the labels of gravity's (u, f, beta) parametrization, by role
GRAVITY_ROLES = {"u0": "gauge", "u1": "gauge", "f0": "f", "f1": "f", "bs": "trace",
                 "bS": "bad"}


@dataclass(frozen=True, eq=False)
class PhaseSpace:
    """All phase-space subspaces of one sector of ``theory``, as Lorentzian
    data columns.

    ``f_gauge`` is the level-characterized gauge part (everything in F
    outside the ``e_bad`` level); ``e_trace`` is its level-three piece, the
    trace of gravity's boost-type Killing gauge modes living in Scalar(1).
    The strictly gauge-invariant part of F, ``f_gauge_strict`` (the image of
    the Killing-orthogonal subspace), excludes ``e_trace`` as well; the two
    notions coincide except in gravity's Scalar(1).
    """

    sector: SectorLabel
    theory: Theory
    e_space: np.ndarray
    e_gauge: np.ndarray
    f_space: np.ndarray
    f_gauge: np.ndarray
    f_gauge_strict: np.ndarray
    e_bad: np.ndarray
    e_trace: np.ndarray

    @property
    def dims(self):
        """Dimensions (E, E_gauge, F, F_gauge, E_bad)."""
        return tuple(part.shape[1] for part in (self.e_space, self.e_gauge, self.f_space,
                                                self.f_gauge, self.e_bad))


def _data_column(sector, rank, *entries):
    """Exact Euclidean data column of rank ``rank``, zero but for the
    (half, slot, coefficients) entries: each coefficient list is added from
    the slot's offset in the value (0) or normal-derivative (1) half."""
    lay = DataLayout(sector, rank)
    col = [Q(0)] * lay.size
    for half, slot, coeffs in entries:
        o = half * lay.half + lay.offsets[slot]
        for i, c in enumerate(coeffs):
            col[o + i] += c
    return col


def _build_phase_space(sector, theory, columns):
    """The phase space of ``sector`` spanned by the (role, exact Euclidean
    column) pairs ``columns``.  They must be as many as the dimension of the
    exact joint null space of the theory's constraint blocks, each must lie
    in it, and they must be independent, so that they span it; they are
    converted to Lorentzian data once and split by role."""
    stacked = np.vstack([data_block(sector, name, theory.maxwell)
                         for name in theory.constraints])
    size = DataLayout(sector, theory.rank).size
    dim = len(rl.nullspace(stacked)) if len(stacked) else size
    where = f"{theory.name} phase space of {sector}"
    if len(columns) != dim:
        raise RuntimeError(f"{where}: {len(columns)} columns for E of dimension {dim}")
    for role, col in columns:
        if (stacked @ col).any():
            raise RuntimeError(f"{where}: a {role} column leaves E")
    if columns and rl.nullspace(list(zip(*(col for _, col in columns)))):
        raise RuntimeError(f"{where}: the columns are linearly dependent, so they do not span E")
    euclid = np.array([col for _, col in columns], dtype=complex).reshape(len(columns), size)
    data = lorentz_block(euclid.T, sector, theory.rank)
    roles = [role for role, _ in columns]
    return PhaseSpace(sector, theory, data, **{
        part: data[:, [j for j, role in enumerate(roles) if role in wanted]]
        for part, wanted in PART_ROLES.items()})


def _param_columns(sector):
    """Columns of gravity's explicit (u, f, beta) parametrization of E_TT,
    exact, with labels 'u0','u1','f0','f1','bs','bS'."""
    lam = sector.eigenvalue

    def column(*entries):
        return _data_column(sector, 2, *entries)

    if sector == SCALAR0:
        return []                                    # E_TT is zero
    if sector.family is Family.TENSOR:
        return [("u0", column((0, 2, [Q(1)]))), ("u1", column((1, 2, [Q(1)])))]
    if sector == SCALAR1:
        return [("bs", column((0, 0, [Q(-3)]),       # g_0ss = -3 beta_s
                              (0, 2, [Q(1)]),        # g_0SS = beta_s h
                              (1, 1, [Q(1)])))]      # g_1sS = d beta_s
    if sector == VECTOR1:
        return [("bS", column((0, 1, [Q(1)])))]      # g_0sS = beta_S
    if sector.family is Family.SCALAR:
        names2 = space(sector).basis[2]
        e_dd = [Q(1) if name == "ddY" else Q(0) for name in names2]
        e6 = [-lam / (lam - 6) if name == "hY" else c for name, c in zip(names2, e_dd)]
        # f0 along dY: rows 1, 3, 5; f1 along dY: rows 2, 4, 6
        return [("f0", column((0, 0, [lam]),                     # delta f0S
                              (0, 2, e_dd),                      # d f0S
                              (1, 1, [-(2 * (lam - 2)) / 2]))),  # -1/2 delta d f0S
                ("f1", column((0, 1, [Q(-1, 2) * (1 + lam / (lam - 6))]),
                              (1, 0, [(1 + 3 / (lam - 6)) * lam]),
                              (1, 2, e6)))]
    # transverse vector sectors, k >= 2
    return [("f0", column((0, 2, [Q(1)]),                # d f0S
                          (1, 1, [-(lam - 4) / 2]))),    # -1/2 delta d f0S
            ("f1", column((0, 1, [Q(-1, 2)]), (1, 2, [Q(1)])))]


def phase_space_sector(sector):
    """Gravity's phase space of ``sector``: E_TT, the kernel of both adjoint
    gauge blocks, spanned by the (u, f, beta) parametrization."""
    return _build_phase_space(sector, GRAVITY, [(GRAVITY_ROLES[label], col)
                                                for label, col in _param_columns(sector)])


def charge_kernel_check(ps):
    """Kernel of the theory's charge restricted to E versus F (principal
    angle), and the smallest nonzero singular value of the charge on E / F.

    The charge is compressed on unit-data-norm columns of E, so the rank cut
    is relative to the form's scale, at ``KERNEL_RANK_TOL``.
    """
    q = ps.theory.charge(ps.sector)
    e = normalized_columns(ps.sector, ps.e_space, ps.theory.rank)
    u, s, vt = np.linalg.svd(e.conj().T @ q @ e)
    rank = _rank(s, KERNEL_RANK_TOL)
    ker = e @ vt[rank:].conj().T
    quo_sv = float(s[rank - 1]) if rank else None
    return {"kernel_angle": principal_angle(ker, ps.f_space),
            "quotient_sv": quo_sv, "kernel_dim": ker.shape[1]}
