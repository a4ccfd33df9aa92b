"""Maxwell fields on de Sitter: the rank-(1,0) analogue.

Projector pairs, covariances and their checks are the shared ones of
``calderon`` and ``states`` applied to ``cauchy.MAXWELL``; this module keeps
what is particular to Maxwell, its phase space, and thin entry points.
The gauge complex is grad: functions -> 1-forms with the Hodge operators
(no curvature shift); the level-zero scalar sector plays the role of the
problematic subspace: the wave-equation solution 1/cosh^3(t) dt spans a
one-dimensional space on which the Euclidean-vacuum covariances are
negative, and the modified state removes it by the spectral projection
off level zero.
"""

from dataclasses import dataclass
from fractions import Fraction
import numpy as np

from . import rational as rl
from .cauchy import MAXWELL, DataLayout, div_block, lorentz_columns
from .calderon import projector_pair
from .sectors import Family, SectorLabel, enumerate_sectors
from .states import build_covariances

Q = Fraction

SCALAR0 = SectorLabel(Family.SCALAR, 0)


def maxwell_sectors(k_max):
    return enumerate_sectors(k_max, families=(Family.SCALAR, Family.VECTOR))


def spectra_disjoint(k_max):
    """Exact check that the exact-sequence spectra never collide: the
    gradient-image levels k(k+2) (k>=1) and the coexact levels k(k+2)+1."""
    grad_side = {k * (k + 2) for k in range(1, k_max + 1)}
    coexact = {k * (k + 2) + 1 for k in range(1, k_max + 1)}
    return grad_side.isdisjoint(coexact)


@dataclass
class MaxwellPhaseSpace:
    sector: SectorLabel
    e_space: np.ndarray
    e_gauge: np.ndarray
    f_space: np.ndarray
    e_zero: np.ndarray

    theory = MAXWELL

    @property
    def dims(self):
        return (self.e_space.shape[1], self.e_gauge.shape[1],
                self.f_space.shape[1], self.e_zero.shape[1])


def maxwell_phase_space(sector):
    """E = Ker(div block) per sector with its gauge/zero decomposition."""
    lay = DataLayout(sector, 1)
    dv = div_block(sector, maxwell=True)
    null = rl.nullspace(dv) if dv else [
        [Q(1) if i == j else Q(0) for i in range(lay.size)]
        for j in range(lay.size)]

    # parametrization: Scalar(0): beta_s line (inside the gauge image, like
    # the level-four space on the gravity side); Scalar(k>=1): (f0, f1)
    # gauge columns; Vector(k): (u0, u1) co-exact columns
    lam = sector.eigenvalue
    cols, e_gauge, f_cols, e_zero = [], [], [], []
    if sector == SCALAR0:
        v = [Q(0)] * lay.size
        v[lay.offsets[0]] = Q(1)
        cols, f_cols, e_zero = [v], [v], [v]
    elif sector.family is Family.SCALAR:
        v0 = [Q(0)] * lay.size
        v0[lay.offsets[1]] = Q(1)                       # g_0S = d f0
        v0[lay.half + lay.offsets[0]] = -lam            # g_1s = -D0 f0
        v1 = [Q(0)] * lay.size
        v1[lay.offsets[0]] = Q(-1)                      # g_0s = -f1
        v1[lay.half + lay.offsets[1]] = Q(1)            # g_1S = d f1
        cols, f_cols = [v0, v1], [v0, v1]
    else:
        v0 = [Q(0)] * lay.size
        v0[lay.offsets[1]] = Q(1)
        v1 = [Q(0)] * lay.size
        v1[lay.half + lay.offsets[1]] = Q(1)
        cols, e_gauge = [v0, v1], [v0, v1]
    if len(cols) != len(null):
        raise RuntimeError(f"Maxwell phase-space dimension drift in {sector}")
    for c in cols:
        if dv and any(x != 0 for x in rl.matvec(dv, c)):
            raise RuntimeError(f"Maxwell parametrization column leaves E in {sector}")
    return MaxwellPhaseSpace(sector, *(lorentz_columns(c, sector, 1) for c in
                                       (cols, e_gauge, f_cols, e_zero)))


def maxwell_projector_pair(sector, operator_id="D1", **params):
    return projector_pair(MAXWELL, sector, operator_id, **params)


def maxwell_covariances(sector, variant="euclidean_vacuum", alpha=0.0,
                        projector_pair=None):
    return build_covariances(sector, variant, alpha, projector_pair, MAXWELL)
