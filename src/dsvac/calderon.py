"""Calderon projectors per sector, from regular solution subspaces.

The projector onto Cauchy data of solutions regular in one hemisphere is the
oblique projection onto the north regular subspace along the south one; the
south basis is the exact reflection of the north one, so the pair identities
hold to machine precision and only one one-sided construction is ever
integrated.  When the operator has a kernel (rank-1 gravity in the two
Killing sectors, Maxwell scalars at level zero) the projectors only exist on
the charge-orthogonal complement of the kernel data and descend to the
quotient; ``projector_pair`` picks the construction from the theory's
``quotient_sectors``.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cauchy import charge_form, lorentz_block, reflection
from .radial import INTEGRATOR_TOL, OPERATOR_RANK, build_system, regular_basis
from .sectors import SectorLabel
from .warped import EUCLIDEAN, LORENTZIAN


@dataclass
class QuotientInfo:
    kernel: np.ndarray        # data of two-sided regular solutions
    subspace: np.ndarray      # orthonormal basis of the q-orthogonal domain
    quotient_dim: int
    complement: np.ndarray    # basis of subspace modulo kernel


@dataclass
class ProjectorPair:
    sector: SectorLabel
    operator_id: str
    signature: str
    c_plus: np.ndarray
    c_minus: np.ndarray
    quotient_info: Optional[QuotientInfo] = None
    conditioning: float = 0.0


def _rank(s, tol):
    """Number of singular values ``s`` (descending) above ``tol`` relative
    to the largest, or above ``tol`` itself when the largest is below 1."""
    return int(np.sum(s > tol * max(s[0], 1))) if s.size else 0


def _orth(m, tol=1e-10):
    if m.size == 0:
        return np.zeros((m.shape[0], 0))
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    return u[:, :_rank(s, tol)]


def _regular_data(sector, operator_id, maxwell, tol):
    """The system with the north regular data and their south reflection."""
    system = build_system(operator_id, sector, EUCLIDEAN, maxwell=maxwell)
    vp = regular_basis(system, tol=tol).data_matrix
    return system, vp, reflection(sector, system.rank)[:, None] * vp


def projector_pair(theory, sector, operator_id, tol=INTEGRATOR_TOL):
    """Euclidean projector pair of one operator of ``theory``: the quotient
    construction in the sectors where the operator has a kernel, the
    invertible one elsewhere."""
    if sector in theory.quotient_sectors.get(operator_id, ()):
        build = calderon_quotient
    else:
        build = calderon_invertible
    return build(sector, operator_id, maxwell=theory.maxwell, tol=tol)


def calderon_invertible(sector, operator_id="D2", maxwell=False, tol=INTEGRATOR_TOL):
    """Euclidean projector pair for an invertible operator (transversal
    regular subspaces)."""
    system, vp, vm = _regular_data(sector, operator_id, maxwell, tol)
    n = system.n
    both = np.hstack([vp, vm])
    sv = np.linalg.svd(both, compute_uv=False)
    cond = sv[-1] / sv[0]
    if cond < 1e-8:
        raise RuntimeError(
            f"regular subspaces not transversal for {operator_id} {sector}: "
            f"conditioning {cond:.2e} (operator not invertible here)")
    inv = np.linalg.inv(both)
    c_plus = vp @ inv[:n]
    c_minus = np.eye(2 * n) - c_plus
    return ProjectorPair(sector, operator_id, EUCLIDEAN, c_plus, c_minus,
                         conditioning=cond)


def calderon_quotient(sector, operator_id="D1", maxwell=False, tol=INTEGRATOR_TOL):
    """Euclidean projector pair in the non-invertible case.

    The projectors act on the charge-orthogonal complement of the kernel
    data and are well defined modulo those data; the returned matrices are
    the action on the subspace basis (columns of ``quotient_info.subspace``)
    with the kernel ambiguity projected out on the quotient.
    """
    system, vp, vm = _regular_data(sector, operator_id, maxwell, tol)
    n = system.n
    # kernel data: intersection of the two regular subspaces
    u, s, vt = np.linalg.svd(vp.T @ vm)
    ker_dirs = [vp @ u[:, i] for i in range(len(s)) if s[i] > 1 - 1e-9]
    kernel = np.column_stack(ker_dirs) if ker_dirs else np.zeros((2 * n, 0))
    if kernel.shape[1] == 0:
        raise RuntimeError(f"no kernel data in {sector}; use calderon_invertible")
    # q-orthogonal domain
    q = charge_form(sector, system.rank)
    w = _null(kernel.T @ q)  # f with kernel^T q f = 0
    # the kernel must lie inside its own q-orthogonal (NaN fails too)
    if not np.max(np.abs(kernel.T @ q @ kernel)) < 1e-9:
        raise RuntimeError(f"kernel data of {operator_id}{' Maxwell' if maxwell else ''} "
                           f"{sector} are not isotropic under the symplectic form")
    span = _orth(np.hstack([vp, vm]))
    # the domain must coincide with span(vp, vm)
    if w.shape[1] != span.shape[1] or principal_angle(w, span) > 1e-8:
        raise RuntimeError("q-orthogonal domain does not match V+ + V-")
    # decompose f = f_plus + f_minus (ambiguous along the kernel); the
    # kernel makes [vp vm] genuinely rank-deficient, so cut the pseudo
    # inverse well above integrator noise
    both = np.hstack([vp, vm])
    pinv = np.linalg.pinv(both, rcond=1e-8)
    c_plus_w = vp @ (pinv @ w)[:n]
    c_minus_w = w - c_plus_w
    comp = _complement(w, kernel)
    qinfo = QuotientInfo(kernel=kernel, subspace=w,
                         quotient_dim=comp.shape[1], complement=comp)
    return ProjectorPair(sector, operator_id, EUCLIDEAN,
                         c_plus_w, c_minus_w, quotient_info=qinfo,
                         conditioning=float(s[-1]) if len(s) else 0.0)


def _null(m, tol=1e-10):
    if m.size == 0:
        return np.eye(m.shape[1])
    u, s, vt = np.linalg.svd(m, full_matrices=True)
    return vt[_rank(s, tol):].conj().T


def _complement(w, kernel):
    """Basis of w modulo kernel (columns orthogonal to the kernel)."""
    if kernel.shape[1] == 0:
        return w
    k = _orth(kernel)
    proj = w - k @ (k.conj().T @ w)
    return _orth(proj)


def principal_angle(a, b):
    """sin of the largest principal angle between equal-dim column spaces.

    Computed from the residual projection, which stays accurate for tiny
    angles (the arccos form loses half the digits).
    """
    qa, qb = _orth(a), _orth(b)
    if qa.shape[1] != qb.shape[1]:
        return 1.0
    if qa.shape[1] == 0:
        return 0.0
    ra = qa - qb @ (qb.conj().T @ qa)
    rb = qb - qa @ (qa.conj().T @ qb)
    sa = np.linalg.svd(ra, compute_uv=False)
    sb = np.linalg.svd(rb, compute_uv=False)
    return float(max(sa[0] if sa.size else 0.0, sb[0] if sb.size else 0.0))


def quotient_matrices(pair):
    """[c+], [c-] on the quotient subspace/kernel, in the complement basis."""
    qi = pair.quotient_info
    comp = qi.complement
    if comp.shape[1] == 0:
        return np.zeros((0, 0)), np.zeros((0, 0))
    k = _orth(qi.kernel)

    def reduce(c_w):
        # c_w maps subspace-basis columns; express action on complement
        # vectors modulo kernel
        coords = np.linalg.lstsq(qi.subspace, comp, rcond=None)[0]
        img = c_w @ coords
        img = img - k @ (k.conj().T @ img)
        return comp.conj().T @ img

    return reduce(pair.c_plus), reduce(pair.c_minus)


def lorentzify(pair):
    """Conjugate a Euclidean pair by the Wick component phases.

    For quotient pairs the stored matrices act on the subspace basis
    columns, so only their rows are rephased and the subspace itself is
    transported alongside.
    """
    if pair.signature != EUCLIDEAN:
        raise ValueError("pair is already Lorentzian")
    rank = OPERATOR_RANK[pair.operator_id]
    qi = pair.quotient_info

    def conj(c, rank_in=None):
        return lorentz_block(c, pair.sector, rank, rank_in)

    rank_in = rank if qi is None else None
    if qi is not None:
        qi = QuotientInfo(kernel=conj(qi.kernel), subspace=conj(qi.subspace),
                          quotient_dim=qi.quotient_dim, complement=conj(qi.complement))
    return ProjectorPair(pair.sector, pair.operator_id, LORENTZIAN,
                         conj(pair.c_plus, rank_in), conj(pair.c_minus, rank_in),
                         quotient_info=qi, conditioning=pair.conditioning)
