"""Global spectral oracle for regular solution subspaces.

Independent of the Frobenius-plus-marching construction: solutions regular
at the pole are analytic up to it, so they are uniformly approximated by
Chebyshev polynomials in s on [0, pi/2].  Collocating the pole-cleared
system a(s)^2 * (-X'' + M1 X' + M0 X) on nodes clustering at the singular
endpoint leaves an n-dimensional discrete null space spanning exactly the
regular subspace; singular branches are not polynomial-approximable and
acquire O(1) residuals.
"""

from math import pi

import numpy as np
from numpy.polynomial.chebyshev import chebder, chebpts2, chebvander

NMODES = 56  # Chebyshev modes per slot
NODES = 2 * NMODES  # collocation nodes


def _collocation_matrix(system, s_nodes, cheb):
    """Rows a^2 (-X'' + M1 X' + M0 X) at each node and slot, columns the
    Chebyshev modes of each slot, from ``cheb`` = (t, dt, ddt) at the nodes.

    One contraction evaluates a^2 A(s) = [[0, a^2 I], [a^2 M0, a^2 M1]] at
    every node, with the a-exponents of the compiled first-order form
    raised by 2 so that no pole is left; the top-right block is the a^2 of
    the second-derivative term."""
    n = system.n
    monos, coef = system.first_order
    a = np.cos(s_nodes) ** 2
    adot = -np.sin(2 * s_nodes)
    mono_vals = np.stack([a ** (ia + 2) * adot ** jd for ia, jd in monos], axis=1)
    cleared = (mono_vals @ coef).reshape(len(s_nodes), 2 * n, 2 * n)[..., None]
    t, dt, ddt = (b[:, None, None, :] for b in cheb)
    mat = (cleared[:, n:, n:] * dt + cleared[:, n:, :n] * t
           - cleared[:, :n, n:] * ddt)
    return mat.reshape(len(s_nodes) * n, -1)


def _cheb_basis(nmodes, s_nodes, smax):
    """Chebyshev values/derivatives on [0, smax] at the given nodes."""
    y = 2.0 * s_nodes / smax - 1.0
    # column m of chebder(I, d, 2 / smax) is the series of d^d T_m / ds^d
    return tuple(chebvander(y, nmodes - 1 - d) @ chebder(np.eye(nmodes), d, 2.0 / smax)
                 for d in range(3))


def collocation_regular_basis(system):
    """Cauchy data at s=0 of the regular subspace by global collocation.

    Returns (data_matrix 2n x n orthonormal, spectral_gap).
    """
    n = system.n
    if not n:
        raise ValueError(f"{system.operator_id} {system.sector} has no slots, "
                         "so no regular basis")
    smax = pi / 2
    # Chebyshev-Lobatto nodes on (0, pi/2], clustering at the pole
    s_nodes = (chebpts2(NODES + 1)[1:] + 1.0) * smax / 2.0
    mat = _collocation_matrix(system, s_nodes, _cheb_basis(NMODES, s_nodes, smax))
    mat /= np.linalg.norm(mat, axis=1, keepdims=True).clip(1e-300)
    u, sv, vt = np.linalg.svd(mat, full_matrices=False)
    gap = sv[-n - 1] / max(sv[-n], 1e-300) if len(sv) > n else np.inf
    null = vt[-n:].T  # coefficients of the discrete regular solutions
    # evaluate data at s=0
    t0, dt0, _ = _cheb_basis(NMODES, np.array([0.0]), smax)
    coeff = null.reshape(n, NMODES, n)  # (slot, mode, null vector)
    data = np.vstack([t0[0] @ coeff, -(dt0[0] @ coeff)])
    q, _ = np.linalg.qr(data)
    return q, gap
