"""Maxwell fields on de Sitter: the rank-(1,0) analogue.

Projector pairs, phase space, covariances and their checks are the shared
ones of ``calderon``, ``phase_space`` and ``states`` applied to
``cauchy.MAXWELL``; this module keeps what is particular to Maxwell, the
hand-audited parametrization of its phase space, and entry points (the
pair and covariance wrappers stay as layers the benchmark traces by name).
The gauge complex is grad: functions -> 1-forms with the Hodge operators
(no curvature shift); the level-zero scalar sector plays the role of the
problematic subspace: the wave-equation solution 1/cosh^3(t) dt spans a
one-dimensional space on which the Euclidean-vacuum covariances are
negative, and the modified state removes it by the spectral projection
off level zero.
"""

from fractions import Fraction

from .cauchy import MAXWELL
from .calderon import projector_pair
from .phase_space import _build_phase_space, _data_column
from .radial import INTEGRATOR_TOL
from .sectors import SCALAR0, Family, enumerate_sectors
from .states import build_covariances

Q = Fraction


def maxwell_sectors(k_max):
    return enumerate_sectors(k_max, families=(Family.SCALAR, Family.VECTOR))


def spectra_disjoint(k_max):
    """Exact check that the exact-sequence spectra never collide: the
    gradient-image levels k(k+2) (k>=1) and the coexact levels k(k+2)+1."""
    grad_side = {k * (k + 2) for k in range(1, k_max + 1)}
    coexact = {k * (k + 2) + 1 for k in range(1, k_max + 1)}
    return grad_side.isdisjoint(coexact)


def maxwell_phase_space(sector):
    """E = Ker(div block) of ``sector``, through the shared builder.  The
    parametrization: Scalar(0) the beta_s line, inside the gauge image like
    the level-four space of gravity; Scalar(k>=1) the (f0, f1) gauge
    columns; Vector(k) the (u0, u1) co-exact columns."""
    lam = sector.eigenvalue

    def column(*entries):
        return _data_column(sector, 1, *entries)

    if sector == SCALAR0:
        columns = [("bad", column((0, 0, [Q(1)])))]
    elif sector.family is Family.SCALAR:
        columns = [("f", column((0, 1, [Q(1)]),        # g_0S = d f0
                                (1, 0, [-lam]))),      # g_1s = -D0 f0
                   ("f", column((0, 0, [Q(-1)]),       # g_0s = -f1
                                (1, 1, [Q(1)])))]      # g_1S = d f1
    else:
        columns = [("gauge", column((0, 1, [Q(1)]))), ("gauge", column((1, 1, [Q(1)])))]
    return _build_phase_space(sector, MAXWELL, columns)


def maxwell_projector_pair(sector, operator_id="D1", tol=INTEGRATOR_TOL):
    return projector_pair(MAXWELL, sector, operator_id, tol)


def maxwell_covariances(sector, variant="euclidean_vacuum", alpha=0.0, *,
                        projector_pair):
    return build_covariances(sector, variant, alpha,
                             projector_pair=projector_pair, theory=MAXWELL)
