"""Reference routes and small conveniences that only the tests use.

The library keeps what ``dsvac run`` executes.  The second routes that the
tests hold the program against, and that no report check runs, live here:
the Euclidean data blocks tabulated slot by slot, the exact charge and Gram
forms from Green's formula and the reflection, the F_TT image routes of
the phase space, the spectral projection of the modified state as a
matrix, the sphere quadrature of the scalar Gram matrices, the
Killing data of the rank-1 kernel, Lorentzian evolution by direct
integration in both time directions, the collocation matrix assembled node
by node, the exact pole tables, the exact indicial matrix and its
determinant, the Frobenius recursion one exponent and one seed at a time,
each full sector's radial systems, data blocks and exact forms built at its
own level (the library evaluates its family's at the level),
the exact action of the radial operators on concrete profiles, exact
matrices of the coefficient field, composable spatial operators, the exact
identity matrix, and the polynomial harmonic oracle in ``Fraction``
arithmetic (normalized symmetrization, rational sphere moments, a dense
constraint matrix), the reference route of the library's integer oracle.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import block_diag

from dsvac import harmonics, radial
from dsvac import rational as rl
from dsvac.calderon import _null, _rank
from dsvac.cauchy import (
    BLOCK_JETS,
    DataLayout,
    charge_form,
    data_block,
    lorentz_block,
    lorentz_gauge_blocks,
)
from dsvac.harmonics import (
    _RANK,
    _SHIFT,
    NVAR,
    HarmonicRealization,
    _indices,
    _parity,
    _project,
    monomials,
    p_diff,
    p_scale,
)
from dsvac.phase_space import _param_columns
from dsvac.radial import INTEGRATOR_TOL, evolve_raw, indicial_data
from dsvac.sectors import SCALAR0, SCALAR1, VECTOR1, Family, space
from dsvac.warped import (
    WarpedSector,
    cf_diff,
    cf_eval,
    cf_mul,
    cf_scale,
    data_weight,
    fiber_weights,
    kappa_signs,
)

Q = Fraction


def transpose(a):
    return [list(col) for col in zip(*a)]


def eye(n):
    return np.diag(np.full(n, Q(1), dtype=object))


def exact(rows, m, n):
    """Nested rows of exact entries (``[]`` for no rows) as an (m, n)
    object array."""
    return np.array(rows, dtype=object).reshape(m, n)


# -- matrices over the coefficient field of dsvac.warped ----------------------

def cf_add(*terms):
    out = {}
    for t in terms:
        for k, v in t.items():
            out[k] = out.get(k, Q(0)) + v
            if out[k] == 0:
                del out[k]
    return out


def cfm_add(*mats):
    out = mats[0]
    for b in mats[1:]:
        out = [[cf_add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(out, b)]
    return out


def cfm_scale(a, c):
    return [[cf_scale(x, c) for x in ra] for ra in a]


def cfm_scale_cf(a, t, sig):
    return [[cf_mul(x, t, sig) for x in ra] for ra in a]


def cfm_mul(a, b, sig):
    p = len(b[0]) if b else 0
    out = [[{} for _ in range(p)] for _ in range(len(a))]
    for i in range(len(a)):
        for j in range(p):
            acc = {}
            for k in range(len(b)):
                acc = cf_add(acc, cf_mul(a[i][k], b[k][j], sig))
            out[i][j] = acc
    return out


def cfm_diff(a, sig):
    return [[cf_diff(x, sig) for x in ra] for ra in a]


def apply_radial(ws, rank, maxwell=False):
    """Exact action of the gauge-fixed operator of ``ws`` on concrete
    profiles, ``act(x, dx, ddx, a, adot)``.  With the normalization of
    ``WarpedSector.radial_matrices`` the operator is
    D u = eps * (-X'' + M1 X' + M0 X)."""
    slot_ranks, m1, m0 = ws.radial_matrices(rank, maxwell=maxwell)
    n = len(slot_ranks)

    def act(x, dx, ddx, a_val, adot_val):
        out = []
        for i in range(n):
            tot = -ddx[i]
            for j in range(n):
                tot += cf_eval(m1[i][j], a_val, adot_val) * dx[j]
                tot += cf_eval(m0[i][j], a_val, adot_val) * x[j]
            out.append(ws.eps * tot)
        return out

    return act


# -- composable spatial operators ---------------------------------------------

@dataclass(frozen=True)
class SectorOperator:
    """Exact rational matrix of a spatial operator between sector bases."""

    source: tuple  # (sector, rank)
    target: tuple
    matrix: tuple  # tuple of row tuples of Fraction

    def __matmul__(self, other):
        if other.target != self.source:
            raise ValueError("domain/codomain mismatch in composition")
        rows = space(self.target[0]).dim(self.target[1])
        cols = space(other.source[0]).dim(other.source[1])
        mid = space(self.source[0]).dim(self.source[1])
        m = exact(self.matrix, rows, mid) @ exact(other.matrix, mid, cols)
        return SectorOperator(other.source, self.target, tuple(map(tuple, m.tolist())))

    def rows(self):
        return [list(r) for r in self.matrix]


def spatial_op(op_symbol, sector, rank):
    """A sector operator: any name of ``SectorSpace.op``, or 'id' and 'lich'
    (the Lichnerowicz operator, the eigenvalue times the identity)."""
    sp = space(sector)
    if op_symbol in ("id", "lich"):
        mat, tr = eye(sp.dim(rank)), rank
        if op_symbol == "lich":
            mat = sector.eigenvalue * mat
    else:
        mat, tr = sp.op(op_symbol, rank)
    return SectorOperator((sector, rank), (sector, tr), tuple(tuple(r) for r in mat))


# -- radial layer -------------------------------------------------------------

def indicial_exponents(system, graded=True):
    """All indicial exponents at the pole, integers with multiplicity.

    ``graded=False`` reports the leading order of the physical components
    (graded exponent plus the smallest slot rank in the seed support).
    """
    data, _ = indicial_data(system)
    out = []
    for rho, mult, seeds in data:
        if graded or not seeds:
            out.extend([rho] * mult)
        else:
            for v in seeds:
                shift = min(system.slot_ranks[i] for i, x in enumerate(v) if x != 0)
                out.append(rho + shift)
            out.extend([rho] * (mult - len(seeds)))
    return sorted(out)


def indicial_matrix(p0, q0, x):
    """The exact indicial matrix L(x) = x(x-1) I - x P0 - Q0 at x, from the
    exact order-0 pole coefficients of ``radial.pole_leading_terms``."""
    n = len(p0)
    return [[Q(x * (x - 1) * (i == j)) - x * p0[i][j] - q0[i][j] for j in range(n)]
            for i in range(n)]


def indicial_floats(p0, q0, rho, orders):
    """(len(orders), n, n) floats: L(rho + m) for each m of ``orders``, each
    entry of the exact matrix rounded once; the exact route to
    ``radial._indicial_at_shifts``."""
    return np.array([[[float(e) for e in row] for row in indicial_matrix(p0, q0, rho + m)]
                     for m in orders])


def det_exact(mat):
    """Determinant of a square matrix of rationals by exact elimination."""
    a = [[Q(x) for x in row] for row in mat]
    det = Q(1)
    for col in range(len(a)):
        pivot = next((r for r in range(col, len(a)) if a[r][col]), None)
        if pivot is None:
            return Q(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for row in a[col + 1:]:
            f = row[col] / a[col][col]
            row[:] = [x - f * y for x, y in zip(row, a[col])]
    return det


def series_float(mats, n, order):
    """(order + 1, n, n) floats of an n x n matrix of exact Laurent series
    (``radial.pole_series_matrices``), coefficient m in row m: the exact
    route to the pole tables."""
    out = np.zeros((order + 1, n, n))
    for i in range(n):
        for j in range(n):
            s = mats[i][j]
            for m in range(order + 1):
                out[m, i, j] = float(s.coeff(m))
    return out


def frobenius_series(rho, seed, l_shift, p_f, q_f, n, order, resonances):
    """Float Frobenius recursion for one seed, with exactly-handled
    resonances; l_shift[m] is L(rho + m).  The per-seed route to
    ``frobenius_block``."""
    c = np.zeros((order + 1, n))
    c[0] = [float(x) for x in seed]
    rho_j = float(rho) + np.arange(order)
    for m in range(1, order + 1):
        # sum over j < m of (P_(m-j) (rho + j) + Q_(m-j)) c_j
        rhs = np.einsum("jab,jb->a", p_f[m:0:-1] * rho_j[:m, None, None]
                        + q_f[m:0:-1], c[:m])
        lm = l_shift[m]
        if m in resonances:
            sol, res, rank, sv = np.linalg.lstsq(lm, rhs, rcond=None)
            check = np.linalg.norm(lm @ sol - rhs)
            scale = max(np.linalg.norm(rhs), 1.0)
            if check > 1e-9 * scale:
                raise RuntimeError(
                    f"log terms required at resonance offset {m}")
            c[m] = sol
        else:
            c[m] = np.linalg.solve(lm, rhs)
    return c


def frobenius_block(rho, seeds, lms, p_f, q_f, resonances, scale, x0):
    """Float Frobenius recursion with exactly-handled resonances for all
    seeds of one exponent as one block, up to the first order at which the
    tail test holds at x0 for every seed, or ``radial.ORDER_CAP``: the
    per-exponent route to ``radial._frobenius_recursion``.  Returns the
    coefficients, (order + 1, n, seeds) with coefficient m in block[m], and
    the largest tail/peak ratio of the last order.

    L(rho + m) c_m = sum_(j<m) (P_(m-j) (rho + j) + Q_(m-j)) c_j, and the
    sum is one contraction of the stacked tables [rho P + Q, P] with the
    stacked coefficients [c_j, j c_j].  ``lms`` holds L(rho + m) and
    ``p_f``, ``q_f`` the pole tables, each for m = 0..``ORDER_CAP``; away
    from the resonances every L(rho + m) is inverted in one batched call.

    Term m of a seed is its graded coefficient at x0, c_m x0^m times
    ``scale`` = x0^(rho + slot shift).  The tail test asks the largest of
    the last three terms to be within ``TAIL_TOL`` of the largest term so
    far, once those three are past the last resonance."""
    n = len(scale)
    c = np.zeros((radial.ORDER_CAP + 1, 2 * n, len(seeds)))  # rows n.. hold m c_m
    c[0, :n] = np.array([[float(x) for x in seed] for seed in seeds]).T
    coef = np.concatenate([float(rho) * p_f + q_f, p_f], axis=2)
    plain = [m for m in range(1, radial.ORDER_CAP + 1) if m not in resonances]
    inv = np.zeros_like(lms)
    inv[plain] = np.linalg.inv(lms[plain])
    weight = scale[:, None] * x0 ** np.arange(radial.ORDER_CAP + 1)[:, None, None]
    mags = [(np.abs(c[0, :n]) * weight[0]).max(axis=0).tolist()]  # term sizes
    peak = mags[0]
    first = max(resonances, default=0) + 3  # a resonance's c_m may be 0
    for m in range(1, radial.ORDER_CAP + 1):
        rhs = np.einsum("jab,jbs->as", coef[m:0:-1], c[:m])
        if m in resonances:
            lm = lms[m]
            sol = np.linalg.lstsq(lm, rhs, rcond=None)[0]
            check = np.linalg.norm(lm @ sol - rhs, axis=0)
            bound = np.maximum(np.linalg.norm(rhs, axis=0), 1.0)
            if np.any(check > 1e-9 * bound):
                raise RuntimeError(
                    f"log terms required at resonance offset {m}")
        else:
            sol = inv[m] @ rhs
        c[m, :n] = sol
        c[m, n:] = m * sol
        mags.append((np.abs(sol) * weight[m]).max(axis=0).tolist())
        peak = [max(p, t) for p, t in zip(peak, mags[-1])]
        ratio = max(max(terms) / p for p, *terms in zip(peak, *mags[-3:]))
        if m >= first and ratio <= radial.TAIL_TOL:
            break
    return c[:m + 1, :n], ratio


def frobenius_per_exponent(system, x0):
    """Each regular exponent's own recursion (``frobenius_block``) on the
    system's pole tables and its own L(rho + m), as the library ran it
    before one recursion per system: a list of (rho, coefficients, ratio),
    coefficient m of x^(rho + m) in row m of an (order + 1, n, seeds)
    array."""
    reg, (p0, q0) = radial.regular_exponents(system)
    p_f, q_f = radial.pole_tables(system)
    shifts = np.array([float(r) for r in system.slot_ranks])
    out = []
    for rho, seeds in reg:
        resonances = {rho2 - rho for rho2, _ in reg if rho2 > rho}
        block, ratio = frobenius_block(rho, seeds, radial._indicial_at_shifts(p0, q0, rho),
                                       p_f, q_f, resonances, x0 ** (rho + shifts), x0)
        out.append((rho, block, ratio))
    return out


def evolve_lorentzian(system, data, t_grid):
    """Evolve Cauchy data f = (f0, f1) with f1 = (1/i) du/dt; returns the
    data trajectory at the grid times (raw conversion u-dot = i f1)."""
    n = system.n
    f = np.asarray(data, dtype=complex)
    (out_u, out_du), = evolve_raw([(system, f[:n], 1j * f[n:])], t_grid)
    return np.hstack([out_u, -1j * out_du])


def block_dims(batch, t_grid):
    """The real components ``evolve_raw`` integrates per (system, u0, du0)
    of a batch: 2n per nonzero part of the data and per time sign of the
    grid."""
    t_grid = np.asarray(t_grid)
    signs = int(np.any(t_grid > 0)) + int(np.any(t_grid < 0))
    dims = []
    for system, u0, du0 in batch:
        data = np.concatenate([u0, du0])
        dims.append(2 * system.n * signs * (int(data.real.any()) + int(data.imag.any())))
    return dims


def evolve_raw_direct(system, u0, du0, t_grid, tol=INTEGRATOR_TOL):
    """``evolve_raw`` without the reflection: both parts of the data, zero or
    not, each integrated forward to the positive times and backward to the
    negative ones, one solve per part and time sign."""
    n = system.n
    u0 = np.asarray(u0, dtype=complex)
    du0 = np.asarray(du0, dtype=complex)
    t_grid = np.asarray(t_grid, dtype=float)
    out_u = np.zeros((len(t_grid), n), dtype=complex)
    out_du = np.zeros((len(t_grid), n), dtype=complex)
    for p in np.nonzero(t_grid == 0.0)[0]:
        out_u[p] = u0
        out_du[p] = du0
    for fac, pu, pdu in ((1.0, u0.real, du0.real), (1j, u0.imag, du0.imag)):
        for sign in (+1, -1):
            ts = np.unique(t_grid[sign * t_grid > 0])[::sign]
            if ts.size == 0:
                continue
            sol = solve_ivp(system.rhs, (0.0, ts[-1]), np.concatenate([pu, pdu]),
                            method="DOP853", rtol=tol, atol=tol, t_eval=ts)
            for idx_t, tv in enumerate(ts):
                for p in np.nonzero(t_grid == tv)[0]:
                    out_u[p] += fac * sol.y[:n, idx_t]
                    out_du[p] += fac * sol.y[n:, idx_t]
    return out_u, out_du


def collocation_matrix_loop(system, s_nodes, cheb):
    """``collocation._collocation_matrix`` assembled node by node and slot
    by slot, with a^2 M0 and a^2 M1 summed term by term from the exact
    coefficient dicts."""
    t, dt, ddt = cheb
    n = system.n
    nmodes = t.shape[1]
    rows = []
    for idx, s in enumerate(s_nodes):
        a = np.cos(s) ** 2
        adot = -np.sin(2 * s)
        m1 = np.zeros((n, n))
        m0 = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                for (ia, jd), v in system.m1[i][j].items():
                    m1[i, j] += float(v) * a ** (ia + 2) * (adot if jd else 1.0)
                for (ia, jd), v in system.m0[i][j].items():
                    m0[i, j] += float(v) * a ** (ia + 2) * (adot if jd else 1.0)
        for i in range(n):
            row = np.zeros(n * nmodes)
            for jslot in range(n):
                block = m1[i, jslot] * dt[idx] + m0[i, jslot] * t[idx]
                if i == jslot:
                    block = block - a ** 2 * ddt[idx]
                row[jslot * nmodes:(jslot + 1) * nmodes] = block
            rows.append(row)
    return np.array(rows)


# -- each sector's exact tables built at its own level -------------------------
# The library builds a full sector's systems, blocks and forms once per family
# with the level variable formal and evaluates them at the sector's level;
# these build them from the sector's own space, as a reduced sector is built.

def per_level_system(operator_id, sector, signature, maxwell=False):
    """The radial system reduced from the sector's own space: the per-level
    route to ``radial.build_system``."""
    rank = radial.OPERATOR_RANK[operator_id]
    slot_ranks, m1, m0 = WarpedSector(sector, signature).radial_matrices(rank,
                                                                         maxwell=maxwell)
    return radial.RadialSystem(sector, operator_id, signature, maxwell, rank,
                               slot_ranks, m1, m0)


def per_level_data_block(sector, name, maxwell=False):
    """Block ``name`` jet-evaluated at the equator by the sector's own
    calculus, eliminating with its own system: the per-level route to
    ``cauchy.data_block``."""
    jet, rank_in, rank_out, signature = BLOCK_JETS[name]
    ws = WarpedSector(sector, signature)
    rows = ws.cauchy_block(lambda z: jet(ws, z), rank_in, rank_out,
                           elim=lambda: ws.radial_matrices(rank_in, maxwell=maxwell))
    n_in, n_out = DataLayout(sector, rank_in).half, DataLayout(sector, rank_out).half
    block = np.array(rows, dtype=object).reshape(2 * n_out, 2 * n_in)
    block[:n_out, n_in:] *= -1
    block[n_out:, :n_in] *= -1
    return block


def per_level_data_weight(sector, rank, lorentz_signs=False):
    """The block diagonal of the sector's slot Grams times the fiber weights
    (and the reflection signs): the per-level route to
    ``warped.data_weight``."""
    sp = space(sector)
    wts = fiber_weights(rank)
    if lorentz_signs:
        wts = [w * k for w, k in zip(wts, kappa_signs(rank))]
    return block_diag(*(np.array(sp.gram(r), dtype=object).reshape(sp.dim(r), sp.dim(r))
                        * wts[r] for r in range(rank + 1)))


def per_level_exact_charge(sector, rank):
    """q_k exactly from ``per_level_data_weight``."""
    d = per_level_data_weight(sector, rank, lorentz_signs=True)
    z = np.zeros_like(d)
    return np.block([[z, d], [d, z]])


def per_level_physical_charge(sector):
    """q_{I,2} = q_2 o I_Sigma exactly, both factors built per level."""
    return per_level_exact_charge(sector, 2) @ per_level_data_block(sector, "trace_reversal")


# -- hand-tabulated Euclidean data blocks ------------------------------------
# The reference route of the exact blocks that dsvac.cauchy evaluates as jets
# of the warped calculus: each block written out slot by slot.

def _blockmap(layout_out, layout_in):
    return np.zeros((layout_out.size, layout_in.size), dtype=object)


def _set(dst, layout_out, half_out, slot_out, layout_in, half_in, slot_in, mat, scale=1):
    ro = half_out * layout_out.half + layout_out.offsets[slot_out]
    co = half_in * layout_in.half + layout_in.offsets[slot_in]
    for i, row in enumerate(mat):
        for j, v in enumerate(row):
            if v != 0:
                dst[ro + i, co + j] += Q(scale) * v


def _ops(sector):
    sp = space(sector)
    out = {}
    for name, rank in (("d", 0), ("d", 1), ("delta", 1), ("delta", 2),
                       ("trace", 2), ("hmul", 0)):
        try:
            m, _ = sp.op(name, rank)
        except ValueError:
            m = []
        out[(name, rank)] = m
    return out


def sym_div_block(sector):
    """Adjoint gauge operator on data, rank-2 -> rank-1 (Euclidean)."""
    lam = sector.eigenvalue
    li, lo = DataLayout(sector, 2), DataLayout(sector, 1)
    op = _ops(sector)
    m = _blockmap(lo, li)
    _set(m, lo, 0, 0, li, 1, 0, eye(li.slot_dims[0]), 2)
    _set(m, lo, 0, 0, li, 0, 1, op[("delta", 1)], 2)
    _set(m, lo, 0, 1, li, 1, 1, eye(li.slot_dims[1]), 2)
    _set(m, lo, 0, 1, li, 0, 2, op[("delta", 2)])
    _set(m, lo, 1, 0, li, 0, 0, eye(li.slot_dims[0]), 2 * (lam - 3))
    _set(m, lo, 1, 0, li, 1, 1, op[("delta", 1)], 2)
    _set(m, lo, 1, 0, li, 0, 2, op[("trace", 2)], -2)
    _set(m, lo, 1, 1, li, 0, 1, eye(li.slot_dims[1]), 2 * (lam - 4))
    _set(m, lo, 1, 1, li, 1, 2, op[("delta", 2)])
    return m


def sym_grad_block(sector):
    """Gauge operator on data, rank-1 -> rank-2 (Euclidean)."""
    lam = sector.eigenvalue
    li, lo = DataLayout(sector, 1), DataLayout(sector, 2)
    op = _ops(sector)
    m = _blockmap(lo, li)
    half = Q(1, 2)
    _set(m, lo, 0, 0, li, 1, 0, eye(li.slot_dims[0]), -half)
    _set(m, lo, 0, 0, li, 0, 1, op[("delta", 1)], half)
    _set(m, lo, 0, 1, li, 1, 1, eye(li.slot_dims[1]), -half)
    _set(m, lo, 0, 1, li, 0, 0, op[("d", 0)], half)
    _set(m, lo, 0, 2, li, 0, 1, op[("d", 1)])
    _set(m, lo, 0, 2, li, 1, 0, op[("hmul", 0)], half)
    if li.slot_dims[1] and li.slot_dims[0]:
        hd = np.array(op[("hmul", 0)]) @ np.array(op[("delta", 1)])
        _set(m, lo, 0, 2, li, 0, 1, hd, half)
    _set(m, lo, 1, 0, li, 0, 0, eye(li.slot_dims[0]), -half * lam)
    _set(m, lo, 1, 0, li, 1, 1, op[("delta", 1)], half)
    _set(m, lo, 1, 1, li, 0, 1, eye(li.slot_dims[1]), -half * (lam - 4))
    _set(m, lo, 1, 1, li, 1, 0, op[("d", 0)], half)
    _set(m, lo, 1, 2, li, 1, 1, op[("d", 1)])
    if li.slot_dims[1] and li.slot_dims[0]:
        _set(m, lo, 1, 2, li, 1, 1, hd, half)
    _set(m, lo, 1, 2, li, 0, 0, op[("hmul", 0)], half * (lam - 4))
    return m


def neg_trace_block(sector):
    """Trace adjoint of the metric attachment, rank-2 -> rank-0."""
    li, lo = DataLayout(sector, 2), DataLayout(sector, 0)
    op = _ops(sector)
    m = _blockmap(lo, li)
    for h in (0, 1):
        _set(m, lo, h, 0, li, h, 0, eye(li.slot_dims[0]), -2)
        _set(m, lo, h, 0, li, h, 2, op[("trace", 2)], -2)
    return m


def metric_mult_block(sector):
    """Metric attachment on data, rank-0 -> rank-2 (Euclidean)."""
    li, lo = DataLayout(sector, 0), DataLayout(sector, 2)
    op = _ops(sector)
    m = _blockmap(lo, li)
    for h in (0, 1):
        _set(m, lo, h, 0, li, h, 0, eye(li.slot_dims[0]))
        _set(m, lo, h, 2, li, h, 0, op[("hmul", 0)])
    return m


def grad_block(sector, maxwell=False):
    """Gradient on data, rank-0 -> rank-1 (Euclidean).

    The second-derivative elimination uses the scalar operator of the
    theory: D0L - 6 for linearized gravity, D0L for Maxwell.
    """
    lam = sector.eigenvalue
    shift = Q(0) if maxwell else Q(6)
    li, lo = DataLayout(sector, 0), DataLayout(sector, 1)
    op = _ops(sector)
    m = _blockmap(lo, li)
    _set(m, lo, 0, 0, li, 1, 0, eye(li.slot_dims[0]), -1)
    _set(m, lo, 0, 1, li, 0, 0, op[("d", 0)])
    _set(m, lo, 1, 0, li, 0, 0, eye(li.slot_dims[0]), -(lam - shift))
    _set(m, lo, 1, 1, li, 1, 0, op[("d", 0)])
    return m


def div_block(sector, maxwell=False):
    """Divergence on data, rank-1 -> rank-0 (Euclidean)."""
    lam = sector.eigenvalue
    shift = Q(0) if maxwell else Q(6)
    li, lo = DataLayout(sector, 1), DataLayout(sector, 0)
    op = _ops(sector)
    m = _blockmap(lo, li)
    _set(m, lo, 0, 0, li, 1, 0, eye(li.slot_dims[0]))
    _set(m, lo, 0, 0, li, 0, 1, op[("delta", 1)])
    _set(m, lo, 1, 0, li, 0, 0, eye(li.slot_dims[0]), lam - shift)
    _set(m, lo, 1, 0, li, 1, 1, op[("delta", 1)])
    return m


def trace_reversal_half(sector, flavor):
    """Trace reversal on one half of rank-2 data (value components)."""
    lay = DataLayout(sector, 2)
    op = _ops(sector)
    n = lay.half
    m = eye(n)
    d0, d2 = lay.slot_dims[0], lay.slot_dims[2]
    if d0 == 0:
        return m
    o0, o2 = lay.offsets[0], lay.offsets[2]
    tr = np.array(op[("trace", 2)])  # h-trace
    hm = np.array(op[("hmul", 0)])
    sgn = Q(1) if flavor == "lorentzian" else Q(-1)
    # (Iu)_00 = 1/2 u_00 + sgn * 1/2 tr_h u_SS
    for i in range(d0):
        m[o0 + i, o0 + i] = Q(1, 2)
        for j in range(d2):
            m[o0 + i, o2 + j] = sgn * Q(1, 2) * tr[i, j]
    # (Iu)_SS = u_SS + sgn * 1/2 |h) u_00 - 1/2 |h) tr_h u_SS
    hmtr = hm @ tr
    for i in range(d2):
        for j in range(d0):
            m[o2 + i, o0 + j] += sgn * Q(1, 2) * hm[i, j]
        for j in range(d2):
            m[o2 + i, o2 + j] -= Q(1, 2) * hmtr[i, j]
    return m


def trace_reversal_block(sector, flavor="lorentzian"):
    h = trace_reversal_half(sector, flavor)
    return block_diag(h, h)


# -- exact forms on data, by Green's formula ----------------------------------

def euclid_symplectic_form(sector, rank):
    """Green's-formula boundary form sigma (anti-Hermitian)."""
    w = data_weight(sector, rank)
    z = np.zeros_like(w)
    return np.block([[z, -w], [w, z]])


def reflection_block(sector, rank, second=-1):
    """diag(kappa, second * kappa) on doubled data, exact, slot by slot."""
    half = [k for k, dim in zip(kappa_signs(rank), DataLayout(sector, rank).slot_dims)
            for _ in range(dim)]
    return np.diag(np.array(half + [second * v for v in half], dtype=object))


def charge_form_exact(sector, rank):
    """q_k = sigma o diag(kappa, -kappa)."""
    return euclid_symplectic_form(sector, rank) @ reflection_block(sector, rank)


def physical_charge_form_exact(sector):
    """q_{I,2} = q_2 o I_Sigma."""
    return charge_form_exact(sector, 2) @ data_block(sector, "trace_reversal")


def data_gram_exact(sector, rank):
    w = data_weight(sector, rank)
    return block_diag(w, w)


# -- Killing data and the F_TT image routes -----------------------------------

def killing_data_euclid(sector):
    """Euclidean traces of the Killing 1-forms living in this sector."""
    lay = DataLayout(sector, 1)
    out = []
    if sector == SCALAR1:
        v = [Q(0)] * lay.size
        v[lay.offsets[0]] = Q(1)             # f0s = psi
        v[lay.half + lay.offsets[1]] = Q(1)  # f1S = d psi
        out.append(v)
    if sector == VECTOR1:
        v = [Q(0)] * lay.size
        v[lay.offsets[1]] = Q(1)             # f0S = psi_jk
        out.append(v)
    return out


def killing_data(sector):
    """Lorentzian Killing Cauchy data (complex columns)."""
    cols = killing_data_euclid(sector)
    euclid = np.array(cols, dtype=complex).reshape(len(cols), DataLayout(sector, 1).size)
    return lorentz_block(euclid.T, sector, 1)


def gauge_orthogonal_residual(f, sector):
    """Charge pairing of rank-1 data against the sector's Killing data;
    zero means membership in the gauge-compatible subspace."""
    kd = killing_data(sector)
    if kd.shape[1] == 0:
        return 0.0
    q1 = charge_form(sector, 1)
    return float(np.max(np.abs(kd.conj().T @ q1 @ np.asarray(f, complex))))


def ftt_image_route(sector, tol=1e-10):
    """F_TT via the independent route: gauge image intersected with the
    trace kernel (Lorentzian, numerical)."""
    return _traceless_image(sector, None, tol)


def ftt_gauge_image_route(sector, tol=1e-10):
    """F_TT_gauge via the image of the Killing-orthogonal subspace."""
    kd = killing_data(sector)
    dom = None
    if kd.shape[1]:
        dom = _null(kd.conj().T @ charge_form(sector, 1), tol)
    return _traceless_image(sector, dom, tol)


def _traceless_image(sector, dom, tol):
    """Image of the gauge block (on the columns ``dom``, if given)
    intersected with the trace kernel."""
    blocks = lorentz_gauge_blocks(sector, "sym_grad", "neg_trace")
    k21 = blocks["sym_grad"]
    if k21.size == 0:
        return np.zeros((DataLayout(sector, 2).size, 0), dtype=complex)
    u, s, _ = np.linalg.svd(k21 if dom is None else k21 @ dom,
                            full_matrices=False)
    rank = _rank(s, tol)
    image = u[:, :rank]
    k20d = blocks["neg_trace"]
    if k20d.shape[0] == 0 or rank == 0:
        return image
    return image @ _null(k20d @ image, tol)


def param_labels(sector):
    """Labels of the columns of the (u, f, beta) parametrization of E_TT,
    in the order of ``PhaseSpace.e_space``."""
    return [name for name, _ in _param_columns(sector)]


def decompose(ps, data, tol=1e-10):
    """Unique (u, f, beta) coordinates of a Lorentzian E_TT datum, with
    membership flags."""
    if ps.e_space.shape[1] == 0:
        raise ValueError("sector has trivial physical space")
    coords, *_ = np.linalg.lstsq(ps.e_space, np.asarray(data, complex), rcond=None)
    resid = np.linalg.norm(ps.e_space @ coords - data)
    if resid > tol * max(1.0, np.linalg.norm(data)):
        raise ValueError(f"datum not in E_TT (residual {resid:.2e})")
    named = dict(zip(param_labels(ps.sector), coords))
    flags = {
        "e_gauge": all(abs(named.get(k, 0)) < tol for k in ("f0", "f1", "bs", "bS")),
        "f_space": all(abs(named.get(k, 0)) < tol for k in ("u0", "u1")),
        "f_gauge": all(abs(named.get(k, 0)) < tol for k in ("u0", "u1", "bS")),
        "e_bad": all(abs(named.get(k, 0)) < tol for k in ("u0", "u1", "f0", "f1", "bs")),
    }
    return named, flags


def maxwell_f_gauge(ps):
    """The invariantly-gauge part of Maxwell's F (excludes the level-zero
    line)."""
    if ps.sector == SCALAR0:
        return ps.f_space[:, :0]
    return ps.f_space


def pi_projection(sector, levels=(3, 4), rank=2):
    """Spectral projection on rank-``rank`` data removing the harmonic
    levels (eigenvalues) ``levels``: zero on a sector of those levels, the
    identity on any other.  ``states.build_covariances`` applies it without
    the matrix.

    ``levels=(4,)`` removes only the Vector(1) sector (the level-four
    subspace); the default ``(3, 4)`` also removes Scalar(1), which is what
    full gauge invariance of the modified vacuum actually requires: the
    level-three trace modes pair nontrivially with the covariances (see
    ``PhaseSpace.f_gauge_strict``), so leaving them in breaks invariance
    along the boost-type gauge directions.  On rank-1 data (gauge
    parameters) the same levels give the matching projection; Maxwell
    removes level zero.
    """
    size = DataLayout(sector, rank).size
    if sector.eigenvalue in levels:
        return np.zeros((size, size))
    return np.eye(size)


# -- the harmonic oracle in Fraction arithmetic --------------------------------
# The reference route of dsvac.harmonics: the same construction with
# rational sphere moments, the symmetrization divided by its number of
# orderings, the constraints as a dense Fraction matrix and the null vectors
# as the elimination returns them.

def mono_integral(a):
    """Sphere integral of the monomial x^a, in units of 2*pi^2."""
    if any(e % 2 for e in a):
        return Q(0)
    m = [e // 2 for e in a]
    num = Q(1)
    for mi in m:
        num *= Q(factorial(2 * mi), 4 ** mi * factorial(mi))
    return num / factorial(sum(m) + 1)


def sphere_inner(p, q):
    """Integral of p * q over the unit 3-sphere, in units of 2*pi^2."""
    blocks = {}
    for b, d in q.items():
        blocks.setdefault(_parity(b), []).append((b, d))
    total = Q(0)
    for a, c in p.items():
        for b, d in blocks.get(_parity(a), ()):
            total += c * d * mono_integral(tuple(x + y for x, y in zip(a, b)))
    return total


def sym_grad(u, rank):
    """Symmetrized tangential gradient (the symmetric part, divided by the
    number of orderings) and the unsymmetrized projection d."""
    d = _project({(i,) + idx: p_diff(p, i) for idx, p in u.items()
                  for i in range(NVAR)}, rank + 1)
    perms = list(itertools.permutations(range(rank + 1)))
    orbit = {}
    sym = {}
    for idx in d:
        key = tuple(sorted(idx))
        if key not in orbit:
            acc = {}
            for perm in perms:
                rl.accumulate(acc, d[tuple(key[p] for p in perm)].items())
            orbit[key] = p_scale(acc, Q(1, len(perms)))
        sym[idx] = orbit[key]
    return sym, d


def norm2(t, rank):
    """Integral of the fiber norm r! sum t^2 of a symmetric rank-r tensor,
    in units of 2*pi^2."""
    total = Q(0)
    for idx in itertools.combinations_with_replacement(range(NVAR), rank):
        p = t.get(idx)
        if p:
            orderings = len(set(itertools.permutations(idx)))
            total += orderings * sphere_inner(p, p)
    return factorial(rank) * total


def constraint_matrix(rank, comps, mons):
    """The library's constraint rows as a dense matrix of Fraction."""
    ncol = len(comps) * len(mons)
    rows = harmonics._constraint_rows(rank, comps, mons) or [{}]
    return [[Q(row.get(c, 0)) for c in range(ncol)] for row in rows]


def harmonic_oracle_fractions(k, family):
    """The harmonic level of ``family`` at level k, as ``harmonics.
    harmonic_oracle`` builds it, in Fraction arithmetic throughout."""
    rank = _RANK[family]
    comps = list(itertools.combinations_with_replacement(range(NVAR), rank))
    mons = monomials(k)
    elements = []
    for v in rl.nullspace(constraint_matrix(rank, comps, mons)):
        u = {}
        for n, comp in enumerate(comps):
            p = {a: c for a, c in zip(mons, v[n * len(mons):]) if c != 0}
            for idx in set(itertools.permutations(comp)):
                u[idx] = p
        elements.append(u)
    eigs = set()
    max_div = Q(0)
    for u in elements:
        norm_u = norm2(u, rank)
        sym, d = sym_grad(u, rank)
        norm_div = Q(0)
        if rank:
            div = {}
            for rest in _indices(rank - 1):
                acc = {}
                for i in range(NVAR):
                    rl.accumulate(acc, d[(i, i) + rest].items())
                div[rest] = p_scale(acc, -rank)
            norm_div = norm2(div, rank - 1)
        max_div = max(max_div, norm_div / norm_u)
        eigs.add((norm2(sym, rank + 1) - norm_div) / norm_u + _SHIFT[rank])
    if len(eigs) != 1:
        raise RuntimeError(f"{family.value} level {k} not an eigenspace: {sorted(eigs)}")
    return HarmonicRealization(family, k, elements, eigs.pop(), max_div)


def p_mul(p, q):
    out = {}
    for a, ca in p.items():
        for b, cb in q.items():
            key = tuple(x + y for x, y in zip(a, b))
            out[key] = out.get(key, Q(0)) + ca * cb
    return {a: c for a, c in out.items() if c != 0}


def sphere_integral(p):
    """Exact integral over the unit 3-sphere, in units of 2*pi^2."""
    return sum((c * mono_integral(a) for a, c in p.items()), Q(0))


def gram_quadrature_scalar(k):
    """Quadrature Gram data for the scalar sector: returns
    ((dY|dY), (ddY|ddY), (ddY|Yh), (Yh|Yh)) relative to (Y|Y) = 1."""
    p = harmonics.harmonic_oracle(k, Family.SCALAR).elements[0][()]
    norm = norm2({(): p}, 0)
    w, _ = sym_grad({(): p}, 0)  # tangential gradient Pi grad P
    hess, _ = sym_grad(w, 1)
    tr = {}
    for i in range(NVAR):
        rl.accumulate(tr, hess[(i, i)].items())
    # (ddY | Yh) = integral 2 * tr_h(ddY) * Y
    g_cross = 2 * sphere_inner(tr, p) / norm
    return norm2(w, 1) / norm, norm2(hess, 2) / norm, g_cross, Q(6)
