"""Radial ODE systems at the equator: regular solution bases and evolution.

Each (operator, sector, signature) triple reduces to a second-order system
-X'' + M1(s) X' + M0(s) X = 0 over the sector slot basis.  Euclidean systems
have regular singular points at s = +-pi/2; the basis of solutions regular
at a pole is built by exact indicial analysis + Frobenius series seeding
(the indicial matrix evaluated exactly on Python integers) and high-order
adaptive integration to the equator.  Lorentzian systems are globally
smooth and are integrated directly for the dynamical checks; the metric's
t -> -t symmetry maps backward evolution to forward evolution of reflected
data, so one forward solve covers both time signs.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm, pi

import numpy as np
from scipy.integrate import solve_ivp

from . import rational as rl
from .cauchy import _weight_diag
from .qseries import LSeries
from .sectors import SectorLabel
from .warped import EUCLIDEAN, LORENTZIAN, WarpedSector, cf_series_pole

Q = Fraction

SERIES_ORDER = 40
MATCH_RADIUS = 0.15
INTEGRATOR_TOL = 1e-12
TAIL_TOL = 1e-14


@dataclass
class RadialSystem:
    sector: SectorLabel
    operator_id: str  # 'D0' | 'D1' | 'D2'
    signature: str
    maxwell: bool
    rank: int
    slot_ranks: list
    m1: list  # exact coefficient-dict matrices
    m0: list

    @property
    def n(self):
        return len(self.slot_ranks)

    def _ab(self, s):
        if self.signature == EUCLIDEAN:
            a = np.cos(s) ** 2
            adot = -np.sin(2 * s)
        else:
            a = np.cosh(s) ** 2
            adot = np.sinh(2 * s)
        return a, adot

    @cached_property
    def _m_terms(self):
        """M1 and M0 flattened to (flat index, a power, adot power, float
        coefficient) terms, in the entries' dict order."""
        n = self.n
        return tuple(
            [(i * n + j, ia, jd, float(v))
             for i in range(n) for j in range(n)
             for (ia, jd), v in mat[i][j].items()]
            for mat in (self.m1, self.m0))

    def m_num(self, s):
        a, adot = self._ab(s)
        # Python floats: the same IEEE operations as numpy scalars, cheaper
        a, adot = float(a), float(adot)
        n = self.n
        out = []
        for terms in self._m_terms:
            acc = [0.0] * (n * n)
            for idx, ia, jd, v in terms:
                acc[idx] += v * a ** ia * (adot if jd else 1.0)
            out.append(np.array(acc).reshape(n, n))
        return out[0], out[1]

    def rhs(self, s, y):
        """First-order form for a stacked matrix of solutions."""
        n = self.n
        ncol = y.size // (2 * n)
        y = y.reshape(2 * n, ncol)
        m1, m0 = self.m_num(s)
        out = np.empty_like(y)
        out[:n] = y[n:]
        out[n:] = m1 @ y[n:] + m0 @ y[:n]
        return out.ravel()


_RANK = {"D0": 0, "D1": 1, "D2": 2}


def _assert_reflection_parity(rank, slot_ranks, m1, m0):
    """kappa M1(-s) kappa = -M1(s) and kappa M0(-s) kappa = M0(s): entries
    with matching slot parities must be odd in adot (M1) / even (M0)."""
    kap = [(-1) ** (rank - r) for r in slot_ranks]
    for i in range(len(slot_ranks)):
        for j in range(len(slot_ranks)):
            s = kap[i] * kap[j]
            for (_, jd) in m1[i][j]:
                if (-1) ** jd != -s:
                    raise AssertionError("reflection parity broken in M1")
            for (_, jd) in m0[i][j]:
                if (-1) ** jd != s:
                    raise AssertionError("reflection parity broken in M0")


@lru_cache(maxsize=None)
def build_system(operator_id, sector, signature, maxwell=False):
    rank = _RANK[operator_id]
    ws = WarpedSector(sector, signature)
    slot_ranks, m1, m0 = ws.radial_matrices(rank, maxwell=maxwell)
    _assert_reflection_parity(rank, slot_ranks, m1, m0)
    return RadialSystem(sector, operator_id, signature, maxwell, rank,
                        slot_ranks, m1, m0)


# -- indicial analysis --------------------------------------------------------

def _poly_mul(p, q):
    out = [Q(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _poly_add(p, q):
    n = max(len(p), len(q))
    out = [Q(0)] * n
    for i, a in enumerate(p):
        out[i] += a
    for i, b in enumerate(q):
        out[i] += b
    return out


def _poly_det(mat):
    n = len(mat)
    if n == 0:
        return [Q(1)]
    if n == 1:
        return mat[0][0]
    out = [Q(0)]
    for j in range(n):
        minor = [[row[c] for c in range(n) if c != j] for row in mat[1:]]
        term = _poly_mul(mat[0][j], _poly_det(minor))
        if j % 2:
            term = [-x for x in term]
        out = _poly_add(out, term)
    return out


def _poly_eval(p, x):
    tot = Q(0)
    for c in reversed(p):
        tot = tot * x + c
    return tot


def _rational_roots(p):
    """All roots with multiplicity of an exactly-factorable polynomial."""
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    lead_deg = len(p) - 1
    roots = []
    # strip zero roots
    while p and p[0] == 0:
        roots.append(Q(0))
        p = p[1:]
    while len(p) > 1:
        den = lcm(*(c.denominator for c in p))
        ip = [int(c * den) for c in p]
        a0, an = abs(ip[0]), abs(ip[-1])
        found = None
        nums = _divisors(a0)
        for q in _divisors(an):
            for pnum in nums:
                for cand in (Q(pnum, q), Q(-pnum, q)):
                    if _poly_eval(p, cand) == 0:
                        found = cand
                        break
                if found is not None:
                    break
            if found is not None:
                break
        if found is None:
            raise RuntimeError(f"indicial polynomial has irrational roots: {p}")
        roots.append(found)
        p = _poly_divide_root(p, found)
    if len(roots) != lead_deg:
        raise RuntimeError("root extraction lost degree")
    return roots


def _divisors(n):
    """Positive divisors of |n| in increasing order ([1] for 0), expanded
    from the prime factorisation of n by trial division."""
    n = abs(n)
    if n == 0:
        return [1]
    out = [1]
    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out = [d * p ** i for d in out for i in range(e + 1)]
        p += 1 if p == 2 else 2
    if n > 1:
        out += [d * n for d in out]
    return sorted(out)


def _poly_divide_root(p, r):
    """Synthetic division of p by (x - r)."""
    coeffs = list(reversed(p))
    q = []
    acc = Q(0)
    for c in coeffs[:-1]:
        acc = c + r * acc
        q.append(acc)
    return list(reversed(q))


def pole_series_matrices(system, order=SERIES_ORDER):
    """Exact Laurent series at x = pi/2 - s of P = x*N1, Q = x^2*N0 for the
    slot-graded system.  Euclidean only (the Lorentzian systems are globally
    smooth and have no pole to expand at).

    Components of solutions scale like x^(slot rank) relative to each other
    at the pole, so the substitution X = diag(x^r) V turns the mixed system
    into an honest regular-singular one:

        V'' = N1 V' + N0 V,
        N1 = D^-1 (M1_hat D - 2 D'),
        N0 = D^-1 (M1_hat D' + M0_hat D - D''),

    with M1_hat(x) = -M1(s), M0_hat(x) = M0(s) the x-coordinate forms.
    """
    if system.signature != EUCLIDEAN:
        raise ValueError("indicial analysis applies to the Euclidean systems")
    n = system.n
    ranks = system.slot_ranks
    p_mats = [[None] * n for _ in range(n)]
    q_mats = [[None] * n for _ in range(n)]
    for i in range(n):
        ri = ranks[i]
        for j in range(n):
            rj = ranks[j]
            s1 = cf_series_pole(system.m1[i][j], order + 6)
            s0 = cf_series_pole(system.m0[i][j], order + 6)
            m1h = LSeries(s1.off, [-c for c in s1.c])  # -M1(s)
            m0h = s0
            # N1[i][j] = x^(rj - ri) * M1_hat - (2 rj / x) delta_ij
            n1 = LSeries(m1h.off + rj - ri, m1h.c)
            n0 = LSeries(m0h.off + rj - ri, m0h.c)
            # M1_hat * D'/D contribution to N0: (rj/x) * M1_hat * x^(rj-ri)
            n0 = n0 + LSeries(m1h.off + rj - ri - 1, [rj * c for c in m1h.c])
            if i == j:
                n1 = n1 + LSeries(-1, [Q(-2 * rj)] + [Q(0)] * (order + 5))
                n0 = n0 + LSeries(-2, [Q(-rj * (rj - 1))] + [Q(0)] * (order + 5))
            p_mats[i][j] = LSeries(n1.off + 1, n1.c)
            q_mats[i][j] = LSeries(n0.off + 2, n0.c)
            if p_mats[i][j].c and p_mats[i][j].min_order() < 0:
                raise RuntimeError("coefficient pole worse than first order")
            if q_mats[i][j].c and q_mats[i][j].min_order() < 0:
                raise RuntimeError("coefficient pole worse than second order")
    return p_mats, q_mats


def indicial_data(system, order=SERIES_ORDER):
    """Exponents (exact) with their exact seed spaces at the north pole."""
    n = system.n
    p_mats, q_mats = pole_series_matrices(system, order)
    p0 = [[p_mats[i][j].coeff(0) for j in range(n)] for i in range(n)]
    q0 = [[q_mats[i][j].coeff(0) for j in range(n)] for i in range(n)]
    # L(rho) = rho(rho-1) I - P0 rho - Q0, entries as polynomials in rho
    lmat = []
    for i in range(n):
        row = []
        for j in range(n):
            poly = [-q0[i][j], -p0[i][j], Q(0)]
            if i == j:
                poly = _poly_add(poly, [Q(0), Q(-1), Q(1)])
            row.append(poly)
        lmat.append(row)
    det = _poly_det(lmat)
    roots = _rational_roots(det)
    uniq = {}
    for r in roots:
        uniq[r] = uniq.get(r, 0) + 1

    def l_of(rho):
        return [[_poly_eval(lmat[i][j], rho) for j in range(n)] for i in range(n)]

    out = []
    for rho, mult in sorted(uniq.items()):
        seeds = rl.nullspace(l_of(rho))
        out.append((rho, mult, seeds))
    return out, (p_mats, q_mats), lmat


def regular_exponents(system):
    """Exponents/seeds of the solutions square-integrable (hence smooth) at
    the pole.  In the graded variables the L2 cutoff is uniform: a branch is
    regular iff its graded exponent exceeds -2."""
    data, series, lmat = indicial_data(system)
    reg = []
    total_nullity = 0
    for rho, mult, seeds in data:
        if rho > -2 and seeds:
            reg.append((rho, seeds))
            total_nullity += len(seeds)
    if total_nullity != system.n:
        raise RuntimeError(
            f"regular solution count {total_nullity} != {system.n} "
            f"for {system.operator_id} {system.sector}")
    return reg, series, lmat


def frobenius_solutions(system, order=SERIES_ORDER, x0=MATCH_RADIUS):
    """Values and s-derivatives at s = pi/2 - x0 of the regular basis."""
    reg, (p_mats, q_mats), lmat = regular_exponents(system)
    n = system.n
    p_f = _series_float(p_mats, n, order)
    q_f = _series_float(q_mats, n, order)
    entries = _integer_entries(lmat)
    cols_val = []
    cols_der = []
    exponents = []
    series_out = []
    for rho, seeds in reg:
        rho_f = float(rho)
        l_shift = _indicial_at_shifts(entries, rho, order)
        others = {}
        for rho2, seeds2 in reg:
            off = rho2 - rho
            if off.denominator == 1 and int(off) > 0:
                others[int(off)] = seeds2
        for seed in seeds:
            coeffs = _frobenius_series(rho, seed, l_shift, p_f, q_f, n, order,
                                       others)
            # physical components carry the grading x^(slot rank)
            shifts = np.array([float(r) for r in system.slot_ranks])
            series = (rho_f, shifts, coeffs)
            val, der, terms = _series_at(series, x0)
            mags = [np.max(np.abs(t)) for t in terms]
            peak = max([0.0] + mags)
            tail = max([0.0] + mags[order - 2:])
            if peak > 0 and tail / peak > TAIL_TOL:
                raise RuntimeError(
                    f"Frobenius tail not converged at x0={x0}: {tail/peak:.2e}")
            cols_val.append(val)
            cols_der.append(-der)  # d/ds = -d/dx
            exponents.append(rho)
            series_out.append(series)
    return np.array(cols_val).T, np.array(cols_der).T, exponents, series_out


def _series_at(series, x):
    """Value and x-derivative at x of a graded Frobenius series (rho,
    slot shifts, coefficients), with its terms."""
    rho, shifts, coeffs = series
    val = np.zeros(len(shifts))
    der = np.zeros(len(shifts))
    terms = []
    for m, c in enumerate(coeffs):
        power = rho + m + shifts
        terms.append(c * x ** power)
        val += terms[-1]
        der += power * c * x ** (power - 1)
    return val, der, terms


def _series_float(mats, n, order):
    out = np.zeros((order + 1, n, n))
    for i in range(n):
        for j in range(n):
            s = mats[i][j]
            for m in range(order + 1):
                out[m, i, j] = float(s.coeff(m))
    return out


def _integer_entries(lmat):
    """The entries of the indicial matrix as integer coefficient lists over
    one common positive denominator."""
    den = lcm(*(c.denominator for row in lmat for p in row for c in p))
    return [[[int(c * den) for c in p] for p in row] for row in lmat], den


def _indicial_at_shifts(entries, rho, order):
    """L(rho + m) as floats, index m = 1..order, from ``_integer_entries``.

    With rho = a/q an entry sum_k b_k x^k / den is, at x = (a + m q)/q,
    sum_k b_k (a + m q)^k q^(deg - k) / (den q^deg): one int/int true
    division, which is correctly rounded, so every float equals
    float(_poly_eval(entry, rho + m)) bit for bit."""
    ints, den = entries
    a, q = rho.numerator, rho.denominator
    n = len(ints)
    out = np.zeros((order + 1, n, n))
    for m in range(1, order + 1):
        x = a + m * q
        for i in range(n):
            for j in range(n):
                acc = 0
                for k, b in enumerate(reversed(ints[i][j])):
                    acc = acc * x + b * q ** k
                out[m, i, j] = acc / (den * q ** (len(ints[i][j]) - 1))
    return out


def _frobenius_series(rho, seed, l_shift, p_f, q_f, n, order, resonances):
    """Float Frobenius recursion with exactly-handled resonances; l_shift[m]
    is L(rho + m)."""
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


@dataclass
class SolutionBasisAtEquator:
    sector: SectorLabel
    operator_id: str
    data_matrix: np.ndarray  # (2n, n) columns = (value, -d/ds value) at s=0
    conditioning: float
    exponents: list
    dense: object = field(default=None, repr=False)
    series: object = field(default=None, repr=False)
    match_radius: float = MATCH_RADIUS
    raw_data: object = field(default=None, repr=False)


def regular_basis(system, series_order=SERIES_ORDER,
                  match_radius=MATCH_RADIUS, tol=INTEGRATOR_TOL,
                  keep_dense=False):
    """Cauchy data at s=0 of the basis of solutions regular at the north
    pole (the south basis is its reflection, see ``calderon``)."""
    if system.signature != EUCLIDEAN:
        raise ValueError("regular bases are defined for the Euclidean systems")
    val, der, exponents, series = frobenius_solutions(
        system, series_order, match_radius)
    n = system.n
    s0 = pi / 2 - match_radius
    y0 = np.vstack([val, der]).ravel()
    sol = solve_ivp(system.rhs, (s0, 0.0), y0, method="DOP853",
                    rtol=tol, atol=tol, dense_output=keep_dense)
    if not sol.success:
        raise RuntimeError(f"integration failed: {sol.message}")
    y = sol.y[:, -1].reshape(2 * n, n)
    data = np.vstack([y[:n], -y[n:]])
    qmat, _ = np.linalg.qr(data)
    sv = np.linalg.svd(data, compute_uv=False)
    cond = sv[-1] / sv[0]
    return SolutionBasisAtEquator(system.sector, system.operator_id, qmat, cond, exponents,
                                  dense=sol if keep_dense else None,
                                  series=series if keep_dense else None,
                                  match_radius=match_radius,
                                  raw_data=data if keep_dense else None)


def solution_profile(basis, column=0):
    """Callable (u(s), u'(s)) for one regular solution on [0, pi/2),
    stitched from the dense integrator output and the pole series."""
    if basis.dense is None or basis.series is None:
        raise ValueError("regular_basis must be called with keep_dense=True")
    n = basis.raw_data.shape[0] // 2
    s_switch = pi / 2 - basis.match_radius

    def phi(s):
        if s <= s_switch:
            y = basis.dense.sol(s)
            return y[:n], y[n:]
        val, der, _ = _series_at(basis.series[column], pi / 2 - s)
        return val, -der

    return phi


# -- Lorentzian evolution -----------------------------------------------------

def evolve_raw(system, u0, du0, t_grid, tol=INTEGRATOR_TOL):
    """Evolve raw components (u, u-dot) of the Lorentzian system.  Returns
    arrays (nt, n) for u and u-dot.

    The system is reflection symmetric (``_assert_reflection_parity``): with
    kappa = diag((-1)^(rank - r)) over the slots, if v solves it with data
    (kappa u0, -kappa du0) then u(-t) = kappa v(t), u-dot(-t) = -kappa
    v-dot(t).  So one forward solve to max |t| serves both time signs:
    complex data are handled by linearity, and the real and imaginary parts
    and their reflections are its columns (a part with all-zero data, or a
    time sign absent from the grid, gets none)."""
    if system.signature != LORENTZIAN:
        raise ValueError("evolution is for Lorentzian systems")
    n = system.n
    u0 = np.asarray(u0, dtype=complex)
    du0 = np.asarray(du0, dtype=complex)
    t_grid = np.asarray(t_grid, dtype=float)
    out_u = np.zeros((len(t_grid), n), dtype=complex)
    out_du = np.zeros((len(t_grid), n), dtype=complex)
    for p in np.nonzero(t_grid == 0.0)[0]:
        out_u[p] = u0
        out_du[p] = du0
    kappa = np.array([(-1.0) ** (system.rank - r) for r in system.slot_ranks])
    reflect = np.concatenate([kappa, -kappa])  # its own inverse
    cols, reads = [], []
    for fac, part in ((1.0, np.concatenate([u0.real, du0.real])),
                      (1j, np.concatenate([u0.imag, du0.imag]))):
        if not part.any():
            continue
        for mask, flip in ((t_grid > 0, 1.0), (t_grid < 0, reflect)):
            if mask.any():
                cols.append(flip * part)
                reads.append((fac, mask, flip))
    if not cols:
        return out_u, out_du
    t_abs = np.abs(t_grid)
    ts = np.unique(t_abs[t_abs > 0])
    sol = solve_ivp(system.rhs, (0.0, ts[-1]), np.stack(cols, axis=1).ravel(),
                    method="DOP853", rtol=tol, atol=tol, t_eval=ts)
    if not sol.success:
        raise RuntimeError(sol.message)
    ys = sol.y.reshape(2 * n, len(cols), len(ts))
    for c, (fac, mask, flip) in enumerate(reads):
        y = flip * ys[:, c, np.searchsorted(ts, t_abs[mask])].T
        out_u[mask] += fac * y[:, :n]
        out_du[mask] += fac * y[:, n:]
    return out_u, out_du


def charge_weight(system, t):
    """Time-dependent charge weight W(t): the slot-r block of the charge's
    weight (as in ``cauchy.charge_form``) scaled by cosh(t)^(3 - 2r)."""
    w = rl.to_numpy(_weight_diag(system.sector, system.rank, lorentz_signs=True))
    return w * np.array([np.cosh(t) ** (3 - 2 * r) for r in system.slot_ranks])[:, None]


def charge_raw(system, u, du, v, dv, t):
    """Conserved charge pairing of two raw solutions at time t."""
    w = charge_weight(system, t)
    return 1j * (du.conj() @ w @ v - u.conj() @ w @ dv)
