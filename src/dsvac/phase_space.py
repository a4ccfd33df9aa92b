"""TT-gauge phase space per sector: bases and decompositions.

The physical space E_TT (kernel of both adjoint gauge blocks) decomposes per
sector into a transverse-traceless part, a gauge part and the problematic
level-four part.  Two independent routes are used throughout: exact null
space computations of the Cauchy blocks, and the explicit parametrization by
(u, f, beta) coordinates; they must agree exactly.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import rational as rl
from .calderon import _rank, principal_angle
from .cauchy import GRAVITY, DataLayout, data_block, lorentz_columns, normalized_columns
from .sectors import Family, SectorLabel, space

Q = Fraction

KERNEL_RANK_TOL = 1e-10  # relative singular-value cut of the compressed charge

VECTOR1 = SectorLabel(Family.VECTOR, 1)
SCALAR1 = SectorLabel(Family.SCALAR, 1)


def _dim_fixture(sector):
    """Hand-audited dimensions (E_TT, E_gauge, F_TT, F_gauge, E_4)."""
    fam, k = sector.family, sector.k
    if fam is Family.TENSOR:
        return (2, 2, 0, 0, 0)
    if fam is Family.SCALAR:
        if k == 0:
            return (0, 0, 0, 0, 0)
        if k == 1:
            return (1, 0, 1, 1, 0)
        return (2, 0, 2, 2, 0)
    if k == 1:
        return (1, 0, 1, 0, 1)
    return (2, 0, 2, 2, 0)


def ett_nullspace_euclid(sector, stacked):
    """Exact Euclidean E_TT basis as the joint null space of the adjoint
    gauge blocks, ``stacked`` one above the other.  Sectors with no adjoint
    range (pure TT) are unconstrained."""
    size = DataLayout(sector, 2).size
    if not stacked:
        return [[Q(1) if i == j else Q(0) for i in range(size)] for j in range(size)]
    return rl.nullspace(stacked)


def _param_columns(sector):
    """Columns of the explicit (u, f, beta) parametrization, exact, with
    labels 'u0','u1','f0','f1','bs','bS'."""
    sp = space(sector)
    lay = DataLayout(sector, 2)
    lam = sector.eigenvalue
    cols = []

    def blank():
        return [Q(0)] * lay.size

    def put(v, half, slot, coeffs):
        o = half * lay.half + lay.offsets[slot]
        for i, c in enumerate(coeffs):
            v[o + i] += c

    if sector.family is Family.TENSOR:
        for half, name in ((0, "u0"), (1, "u1")):
            v = blank()
            put(v, half, 2, [Q(1)])
            cols.append((name, v))
        return cols
    if sector == SCALAR1:
        v = blank()
        put(v, 0, 0, [Q(-3)])      # g_0ss = -3 beta_s
        put(v, 0, 2, [Q(1)])       # g_0SS = beta_s h
        put(v, 1, 1, [Q(1)])       # g_1sS = d beta_s
        return [("bs", v)]
    if sector == VECTOR1:
        v = blank()
        put(v, 0, 1, [Q(1)])       # g_0sS = beta_S
        return [("bS", v)]
    if sector.family is Family.SCALAR:
        # f0 along dY: rows 1, 3, 5
        v = blank()
        put(v, 0, 0, [lam])                           # delta f0S
        names2 = sp.basis[2]
        idx_dd = names2.index("ddY")
        e_dd = [Q(1) if i == idx_dd else Q(0) for i in range(len(names2))]
        put(v, 0, 2, e_dd)                            # d f0S
        put(v, 1, 1, [-(2 * (lam - 2)) / 2])          # -1/2 delta d f0S
        c0 = ("f0", v)
        # f1 along dY: rows 2, 4, 6
        v = blank()
        put(v, 0, 1, [Q(-1, 2) * (1 + lam / (lam - 6))])
        put(v, 1, 0, [(1 + 3 / (lam - 6)) * lam])
        e6 = list(e_dd)
        idx_h = names2.index("hY")
        e6[idx_h] = -lam / (lam - 6)
        put(v, 1, 2, e6)
        return [c0, ("f1", v)]
    # transverse vector sectors, k >= 2
    v = blank()
    put(v, 0, 2, [Q(1)])                 # d f0S
    put(v, 1, 1, [-(lam - 4) / 2])       # -1/2 delta d f0S
    c0 = ("f0", v)
    v = blank()
    put(v, 0, 1, [Q(-1, 2)])
    put(v, 1, 2, [Q(1)])
    return [c0, ("f1", v)]


@dataclass
class PhaseSpaceSector:
    """All phase-space subspaces of one sector, Lorentzian data columns.

    ``ftt_gauge`` is the level-characterized gauge part (everything in F_TT
    outside the level-four line); ``ett3`` is its level-three piece, the
    trace of the boost-type Killing gauge modes living in Scalar(1).  The
    strictly gauge-invariant part of F_TT — the image of the
    Killing-orthogonal subspace — excludes ett3 as well; see
    ``ftt_gauge_strict``.  The two notions coincide except in Scalar(1).
    """

    sector: SectorLabel
    ett: np.ndarray
    ett_gauge: np.ndarray
    ftt: np.ndarray
    ftt_gauge: np.ndarray
    ett4: np.ndarray
    ett3: np.ndarray
    param_labels: list
    param_matrix_euclid: list  # exact rational columns, labelled

    theory = GRAVITY

    @property
    def e_space(self):
        """E_TT, under the name the theory-generic checks read."""
        return self.ett

    @property
    def f_space(self):
        """F_TT, under the name the theory-generic checks read."""
        return self.ftt

    @property
    def ftt_gauge_strict(self):
        if self.sector == SCALAR1:
            return self.ftt_gauge[:, :0]
        return self.ftt_gauge

    @property
    def dims(self):
        return (self.ett.shape[1], self.ett_gauge.shape[1], self.ftt.shape[1],
                self.ftt_gauge.shape[1], self.ett4.shape[1])


def phase_space_sector(sector):
    """Construct all subspaces, exactly, and cross-check the two routes."""
    stacked = rl.vstack([data_block(sector, "sym_div"), data_block(sector, "neg_trace")])
    null_eu = ett_nullspace_euclid(sector, stacked)
    params = _param_columns(sector) if _dim_fixture(sector)[0] else []
    d_ett, d_eg, d_f, d_fg, d_e4 = _dim_fixture(sector)
    if len(null_eu) != d_ett or len(params) != d_ett:
        raise RuntimeError(
            f"E_TT dimension drift in {sector}: null space {len(null_eu)}, "
            f"parametrization {len(params)}, fixture {d_ett}")
    # the parametrization columns must span exactly the null space
    for _, col in params:
        if any(x != 0 for x in rl.matvec(stacked, col)):
            raise RuntimeError(f"parametrization column leaves E_TT in {sector}")
    gauge_cols, f_cols, fg_cols, e4_cols = [], [], [], []
    for name, col in params:
        if name in ("u0", "u1"):
            gauge_cols.append(col)
        else:
            f_cols.append(col)
            if name == "bS":
                e4_cols.append(col)
            else:
                fg_cols.append(col)
    e3_cols = [col for name, col in params if name == "bs"]
    return PhaseSpaceSector(
        sector=sector,
        ett=lorentz_columns([c for _, c in params], sector, 2),
        ett_gauge=lorentz_columns(gauge_cols, sector, 2),
        ftt=lorentz_columns(f_cols, sector, 2),
        ftt_gauge=lorentz_columns(fg_cols, sector, 2),
        ett4=lorentz_columns(e4_cols, sector, 2),
        ett3=lorentz_columns(e3_cols, sector, 2),
        param_labels=[n for n, _ in params],
        param_matrix_euclid=params,
    )


def pi_projection(sector, levels=(3, 4), rank=2):
    """Spectral projection on rank-``rank`` data removing the harmonic
    levels (eigenvalues) ``levels``.

    ``levels=(4,)`` removes only the Vector(1) sector (the level-four
    subspace); the default ``(3, 4)`` also removes Scalar(1), which is what
    full gauge invariance of the modified vacuum actually requires: the
    level-three trace modes pair nontrivially with the covariances (see
    ``ftt_gauge_strict``), so leaving them in breaks invariance along the
    boost-type gauge directions.  On rank-1 data (gauge parameters) the
    same levels give the matching projection; Maxwell removes level zero.
    """
    size = DataLayout(sector, rank).size
    if sector.eigenvalue in levels:
        return np.zeros((size, size))
    return np.eye(size)


def charge_kernel_check(ps):
    """Kernel of the theory's charge restricted to E versus F (principal
    angle), and the smallest nonzero singular value of the charge on E / F.

    The charge is compressed on unit-data-norm columns of E, so the rank cut
    is relative to the form's scale, at ``KERNEL_RANK_TOL``.
    """
    if ps.e_space.shape[1] == 0:
        return {"kernel_angle": 0.0, "quotient_sv": None}
    q = rl.to_numpy(ps.theory.charge(ps.sector))
    e = normalized_columns(ps.sector, ps.e_space, ps.theory.rank)
    u, s, vt = np.linalg.svd(e.conj().T @ q @ e)
    rank = _rank(s, KERNEL_RANK_TOL)
    ker = e @ vt[rank:].conj().T
    quo_sv = float(s[rank - 1]) if rank else None
    return {"kernel_angle": principal_angle(ker, ps.f_space),
            "quotient_sv": quo_sv, "kernel_dim": ker.shape[1],
            "ftt_dim": ps.f_space.shape[1]}
