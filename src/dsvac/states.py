"""Cauchy-surface covariances of the Euclidean vacuum and its variants.

The covariances are lambda_pm = +-q c_pm with c_pm the Lorentzian
conjugates of the Calderon projectors and q the theory's charge (q_{I,2} for
gravity, q_1 for Maxwell); the functions here serve both theories, and their
residuals are taken on unit-data-norm columns or relative to the charge's
scale.  Variants: the modified vacuum composes with a spectral projection
removing the problematic low levels (for gravity both of them by default;
removing only the level-four part reproduces the weaker variant whose
residual gauge pairing along the boost-type directions is reported rather
than hidden), and the Bogoliubov family conjugates with exp(alpha * S) for
the linear time reversal S.
"""

from dataclasses import dataclass
from math import cosh, pi, sinh

import numpy as np
from scipy.integrate import quad

from . import rational as rl
from .cauchy import (
    GRAVITY,
    Theory,
    data_gram,
    kappa_block,
    normalized_columns,
    physical_charge_form,
    wigner_matrix,
)
from .phase_space import pi_projection
from .radial import build_system, solution_profile
from .sectors import SectorLabel
from .warped import EUCLIDEAN


@dataclass
class CovariancePair:
    sector: SectorLabel
    lambda_plus: np.ndarray
    lambda_minus: np.ndarray
    theory: Theory = GRAVITY


def euclidean_vacuum_pair(sector, projector_pair, theory=GRAVITY):
    """lambda_pm for the (pseudo) vacuum from the Euclidean Green's function,
    given the Lorentzian projector pair of the theory's field operator."""
    q = rl.to_numpy(theory.charge(sector)).astype(complex)
    lam_p = q @ projector_pair.c_plus
    lam_m = -q @ projector_pair.c_minus
    return CovariancePair(sector, lam_p, lam_m, theory)


def build_covariances(sector, variant="euclidean_vacuum", alpha=0.0, *,
                      projector_pair, theory=GRAVITY):
    base = euclidean_vacuum_pair(sector, projector_pair, theory)
    if variant == "euclidean_vacuum":
        return base
    if variant in ("modified", "modified4"):
        levels = theory.bad_levels if variant == "modified" else (4,)
        pim = pi_projection(sector, levels, theory.rank).astype(complex)
        return CovariancePair(sector, pim.conj().T @ base.lambda_plus @ pim,
                              pim.conj().T @ base.lambda_minus @ pim, theory)
    if variant == "alpha":
        s_mat = rl.to_numpy(kappa_block(sector, theory.rank)).astype(complex)
        u = cosh(alpha) * np.eye(len(s_mat)) + sinh(alpha) * s_mat
        return CovariancePair(sector, u.conj().T @ base.lambda_plus @ u,
                              u.conj().T @ base.lambda_minus @ u, theory)
    raise ValueError(f"unknown variant {variant!r}")


def hermiticity_residual(cov):
    """Relative Hermiticity defect (entries grow like the squared level)."""
    worst = 0.0
    for lam in (cov.lambda_plus, cov.lambda_minus):
        if lam.size == 0:
            continue
        scale = max(float(np.max(np.abs(lam))), 1.0)
        worst = max(worst, float(np.max(np.abs(lam - lam.conj().T))) / scale)
    return worst


def sum_rule_residual(cov, on=None):
    """lambda+ - lambda- = q, relative to the charge-form scale; restricted
    to a subspace basis if given."""
    q = rl.to_numpy(cov.theory.charge(cov.sector)).astype(complex)
    diff = cov.lambda_plus - cov.lambda_minus - q
    scale = max(float(np.max(np.abs(q))) if q.size else 0.0, 1.0)
    if on is None:
        return float(np.max(np.abs(diff))) / scale if diff.size else 0.0
    if on.shape[1] == 0:
        return 0.0
    return float(np.max(np.abs(on.conj().T @ diff @ on))) / scale


def compressed_extrema(cov, basis, sign=+1):
    """Extremal eigenvalues of a covariance compressed to a subspace,
    normalized by the Riemannian data Gram."""
    if basis.shape[1] == 0:
        return None
    lam = cov.lambda_plus if sign > 0 else cov.lambda_minus
    a = basis.conj().T @ lam @ basis
    g = rl.to_numpy(data_gram(cov.sector, cov.theory.rank))
    g = basis.conj().T @ g @ basis
    gi = np.linalg.inv(np.linalg.cholesky(g))
    sym = gi @ ((a + a.conj().T) / 2) @ gi.conj().T
    ev = np.linalg.eigvalsh(sym)
    return float(ev[0]), float(ev[-1])


def gauge_pairing_residual(cov, left_basis, right_basis):
    """max |lambda_pm(f, g)| over unit-norm vectors of the two subspaces."""
    rank = cov.theory.rank
    left = normalized_columns(cov.sector, left_basis, rank)
    right = normalized_columns(cov.sector, right_basis, rank)
    if left.shape[1] == 0 or right.shape[1] == 0:
        return 0.0
    vals = []
    for lam in (cov.lambda_plus, cov.lambda_minus):
        vals.append(np.max(np.abs(left.conj().T @ lam @ right)))
    return float(max(vals))


def full_gauge_residual(cov, ps):
    """max |lambda(f, K g)| over unit-norm f in the constrained space E and
    unit-norm gauge images K g, g ranging over all gauge-parameter data.

    For modified variants the projection is already inside the covariance.
    """
    k = cov.theory.gauge_block(cov.sector)
    if k.size == 0 or ps.e_space.shape[1] == 0:
        return 0.0
    return gauge_pairing_residual(cov, ps.e_space, k)


def norm_squared(sector, f, rank=2):
    g = rl.to_numpy(data_gram(sector, rank))
    return float(np.real(np.conj(f) @ g @ f))


# -- symmetry checks ----------------------------------------------------------

def racah_antiunitarity_residual(sector):
    """S* q_{I,2} S = -q_{I,2}."""
    s = rl.to_numpy(kappa_block(sector, 2))
    qi2 = rl.to_numpy(physical_charge_form(sector))
    return float(np.max(np.abs(s.T @ qi2 @ s + qi2))) if s.size else 0.0


def alpha_unitarity_residual(sector, alpha):
    s = rl.to_numpy(kappa_block(sector, 2)).astype(complex)
    if not s.size:
        return 0.0
    qi2 = rl.to_numpy(physical_charge_form(sector)).astype(complex)
    u = cosh(alpha) * np.eye(len(s)) + sinh(alpha) * s
    scale = max(float(np.max(np.abs(qi2))), 1.0)
    return float(np.max(np.abs(u.conj().T @ qi2 @ u - qi2))) / scale


def time_reversal_residual(cov):
    """conj(Zf) . lambda Zg = conj(g) . lambda f on random data."""
    rng = np.random.default_rng(11)
    mz = rl.to_numpy(wigner_matrix(cov.sector)).astype(complex)
    n = len(mz)
    if n == 0:
        return 0.0
    worst = 0.0
    for lam in (cov.lambda_plus, cov.lambda_minus):
        for _ in range(4):
            f = rng.normal(size=n) + 1j * rng.normal(size=n)
            g = rng.normal(size=n) + 1j * rng.normal(size=n)
            zf, zg = mz @ f.conj(), mz @ g.conj()
            lhs = zf.conj() @ lam @ zg
            rhs = g.conj() @ lam @ f
            worst = max(worst, abs(lhs - rhs))
    return float(worst)


def wigner_involution_residual(sector):
    mz = rl.to_numpy(wigner_matrix(sector))
    return float(np.max(np.abs(mz @ mz - np.eye(len(mz))))) if mz.size else 0.0


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
