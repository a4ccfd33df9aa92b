"""Cauchy-surface covariances of the Euclidean vacuum and its variants,
and how a residual is measured.

The covariances are lambda_pm = +-q c_pm with c_pm the Lorentzian
conjugates of the Calderon projectors and q the theory's charge (q_{I,2} for
gravity, q_1 for Maxwell); the functions here serve both theories, and their
residuals are taken on unit-data-norm columns or relative to the charge's
scale.  Variants: the modified vacuum removes the problematic low levels by
the spectral projection (for gravity both of them by default; removing only
the level-four part reproduces the weaker variant whose residual gauge
pairing along the boost-type directions is reported rather than hidden),
and the Bogoliubov family conjugates with exp(alpha * S) for the linear time
reversal S.

This module owns how a defect becomes a residual, for the report too:
``max_abs`` is the largest absolute entry (0.0 when there is none),
``worst`` the largest of several residuals, and a residual of a form whose
entries grow with the level is divided by the form's largest entry, floored
at 1.0.  A NaN always wins, so a NaN anywhere in a covariance fails every
check that reads it.
"""

from dataclasses import dataclass
from functools import reduce
from math import inf, isnan, pi

import numpy as np
from scipy.integrate import quad

from .cauchy import (
    GRAVITY,
    Theory,
    data_gram,
    normalized_columns,
    physical_charge_form,
    reflection,
)
from .radial import build_system, solution_profile
from .sectors import SectorLabel
from .warped import EUCLIDEAN


# -- residual vocabulary ------------------------------------------------------

def max_abs(m):
    """Largest absolute entry of a float or exact matrix, 0.0 if it is
    empty; NaN if any entry is NaN."""
    m = np.abs(np.asarray(m))
    return float(np.max(m)) if m.size else 0.0


def _larger(top, r):
    """The larger of two residuals, the first on a tie; NaN wins (``max``
    would drop it, and a NaN must fail the check)."""
    return top if isnan(top) or r <= top else r


def worst(residuals, start=0.0):
    """Largest residual, at least ``start``; NaN if any is NaN."""
    return reduce(_larger, residuals, start)


def _scaled(defect, scale):
    """Largest entry of ``defect`` relative to the largest of ``scale``,
    floored at 1.0: for forms whose entries grow with the level."""
    return max_abs(defect) / max(max_abs(scale), 1.0)


@dataclass
class CovariancePair:
    sector: SectorLabel
    lambda_plus: np.ndarray
    lambda_minus: np.ndarray
    theory: Theory = GRAVITY


def euclidean_vacuum_pair(sector, projector_pair, theory=GRAVITY):
    """lambda_pm for the (pseudo) vacuum from the Euclidean Green's function,
    given the Lorentzian projector pair of the theory's field operator."""
    q = theory.charge(sector)
    lam_p = q @ projector_pair.c_plus
    lam_m = -q @ projector_pair.c_minus
    return CovariancePair(sector, lam_p, lam_m, theory)


def build_covariances(sector, variant="euclidean_vacuum", alpha=0.0, *,
                      projector_pair, theory=GRAVITY):
    base = euclidean_vacuum_pair(sector, projector_pair, theory)
    if variant == "euclidean_vacuum":
        return base
    if variant in ("modified", "modified4"):
        # the spectral projection is zero on the removed levels, the
        # identity elsewhere
        levels = theory.bad_levels if variant == "modified" else (4,)
        if sector.eigenvalue not in levels:
            return base
        zero = np.zeros_like(base.lambda_plus)
        return CovariancePair(sector, zero, zero, theory)
    if variant == "alpha":
        # exp(alpha S) = cosh(alpha) + sinh(alpha) S, but taken as exponentials:
        # cosh - |sinh| would lose the entries e^-|alpha| to cancellation
        u = np.exp(alpha * reflection(sector, theory.rank))  # diagonal
        return CovariancePair(sector, u[:, None] * base.lambda_plus * u,
                              u[:, None] * base.lambda_minus * u, theory)
    raise ValueError(f"unknown variant {variant!r}")


def hermiticity_residual(cov):
    """Relative Hermiticity defect (entries grow like the squared level)."""
    return worst(_scaled(lam - lam.conj().T, lam)
                 for lam in (cov.lambda_plus, cov.lambda_minus))


def sum_rule_residual(cov, on=None):
    """lambda+ - lambda- = q, relative to the charge-form scale; restricted
    to a subspace basis if given."""
    q = cov.theory.charge(cov.sector)
    diff = cov.lambda_plus - cov.lambda_minus - q
    return _scaled(diff if on is None else on.conj().T @ diff @ on, q)


def compressed_extrema(cov, basis, sign=+1):
    """Extremal eigenvalues of a covariance compressed to a subspace,
    normalized by the Riemannian data Gram; (0.0, 0.0) on an empty basis."""
    if basis.shape[1] == 0:
        return 0.0, 0.0
    lam = cov.lambda_plus if sign > 0 else cov.lambda_minus
    a = basis.conj().T @ lam @ basis
    g = basis.conj().T @ data_gram(cov.sector, cov.theory.rank) @ basis
    gi = np.linalg.inv(np.linalg.cholesky(g))
    sym = gi @ ((a + a.conj().T) / 2) @ gi.conj().T
    ev = np.linalg.eigvalsh(sym)
    return float(ev[0]), float(ev[-1])


def extrema(cov, basis):
    """Smallest and largest eigenvalue of lambda+ and lambda- compressed to
    ``basis``, (0.0, 0.0) on an empty basis; NaN if either gives NaN."""
    lows, highs = zip(*(compressed_extrema(cov, basis, sign) for sign in (+1, -1)))
    return -worst((-low for low in lows), -inf), worst(highs, -inf)


def gauge_pairing_residual(cov, left_basis, right_basis):
    """max |lambda_pm(f, g)| over the unit-norm basis columns f of
    ``left_basis`` and g of ``right_basis``: the largest entry, not the norm
    of the pairing between the two subspaces."""
    rank = cov.theory.rank
    left = normalized_columns(cov.sector, left_basis, rank)
    right = normalized_columns(cov.sector, right_basis, rank)
    return worst(max_abs(left.conj().T @ lam @ right)
                 for lam in (cov.lambda_plus, cov.lambda_minus))


def full_gauge_residual(cov, ps):
    """max |lambda(f, K g)| over unit-norm f in the constrained space E and
    unit-norm gauge images K g, g ranging over all gauge-parameter data.

    For modified variants the projection is already inside the covariance.
    """
    return gauge_pairing_residual(cov, ps.e_space, cov.theory.gauge_block(cov.sector))


def norm_squared(sector, f, rank=2):
    return float(np.real(np.conj(f) @ data_gram(sector, rank) @ f))


# -- symmetry checks ----------------------------------------------------------

def racah_antiunitarity_residual(sector):
    """S* q_{I,2} S = -q_{I,2}."""
    s = reflection(sector, 2)
    qi2 = physical_charge_form(sector)
    return max_abs(s[:, None] * qi2 * s + qi2)


def alpha_unitarity_residual(sector, alpha):
    """u q_{I,2} u = q_{I,2} for u = exp(alpha S)."""
    u = np.exp(alpha * reflection(sector, 2))  # diagonal
    qi2 = physical_charge_form(sector)
    return _scaled(u[:, None] * qi2 * u - qi2, qi2)


def time_reversal_residual(cov):
    """conj(Zf) . lambda Zg = conj(g) . lambda f for all data f, g, with
    Z f = M conj(f) and M = diag(kappa, kappa): the matrix identity
    M lambda^T M = lambda."""
    mz = reflection(cov.sector, 2, +1)  # diagonal
    return worst(max_abs(mz[:, None] * lam.T * mz - lam)
                 for lam in (cov.lambda_plus, cov.lambda_minus))


def wigner_involution_residual(sector):
    mz = reflection(sector, 2, +1)
    return max_abs(mz * mz - 1)


# -- independent energy oracle -------------------------------------------------

QUADRATURE_TOL = 1e-10


def tt_energy_quadrature(cov):
    """Hemisphere energy of the regular mode of a TT sector versus its
    boundary charge and its value under the covariance ``cov`` of that
    sector's Euclidean vacuum.

    For a transverse-traceless mode u = phi(s) T the quadratic form of the
    rank-2 operator is the manifestly positive integral

        Q(u,u) = int a^(3/2) [ a^-2 psi1^2 + 1/2 adot^2 a^-4 phi^2
                               + (lam-6) a^-3 phi^2 + 2 a^-2 phi^2 ] ds,

    psi1 = phi' - (adot/a) phi, and the boundary identity gives
    2 Q(u,u) = -2 phi(0) phi'(0), which is the covariance value of the
    regular datum.  The profile and its datum are the Frobenius series
    summed to the equator; ``cov`` comes from the marched projector pair.
    Returns (quadrature, boundary, covariance) values.
    """
    sector = cov.sector
    system = build_system("D2", sector, EUCLIDEAN, maxwell=False)
    prof = solution_profile(system)
    lam = float(sector.eigenvalue)

    def integrand(s):
        (phi,), (dphi,) = prof(s)
        a = np.cos(s) ** 2
        adot = -np.sin(2 * s)
        psi1 = dphi - adot / a * phi
        return (a ** 1.5) * (psi1 ** 2 / a ** 2 + 0.5 * adot ** 2 / a ** 4 * phi ** 2
                             + (lam - 6) / a ** 3 * phi ** 2 + 2 / a ** 2 * phi ** 2)

    energy, _ = quad(integrand, 0.0, pi / 2, epsabs=QUADRATURE_TOL,
                     epsrel=QUADRATURE_TOL, limit=200)
    (phi0,), (dphi0,) = prof(0.0)
    f = np.array([phi0, -dphi0])  # (phi(0), -phi'(0))
    boundary = 2.0 * f[0] * f[1]
    lam_val = float(np.real(f.astype(complex).conj() @ cov.lambda_plus @ f))
    return 2.0 * energy, float(boundary), lam_val
