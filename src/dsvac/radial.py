"""Radial ODE systems at the equator: regular solution bases and evolution.

Each (operator, sector, signature) triple reduces to a second-order system
-X'' + M1(s) X' + M0(s) X = 0 over the sector slot basis.  Each system is
compiled once to its first-order matrix A(s) = [[0, I], [M0(s), M1(s)]]:
the few distinct monomials a^i adot^j of its coefficients and one float
row of A per monomial, so an evaluation of A(s) is one contraction of the
monomial values with those rows, and the ODE right-hand side one matrix
product of A(s) with the stacked solution columns.

Euclidean systems have regular singular points at s = +-pi/2; the basis of
solutions regular at a pole is built by exact indicial analysis + Frobenius
series seeding (the indicial matrix evaluated exactly on Python integers)
and high-order adaptive integration to the equator, once per system and
tolerance.  The coefficient poles sit at x = pi/2 - s = 0, +-pi, so the
regular Frobenius series also converges on all of [0, pi/2]: summed to the
equator it is the energy oracle's profile (``solution_profile``), a route
independent of the integrator.  Lorentzian systems are globally smooth and
are integrated directly for the dynamical checks; the metric's t -> -t
symmetry maps backward evolution to forward evolution of reflected data, so
one forward solve covers both time signs, and a check's whole batch of
systems is one block-diagonal solve (``evolve_raw``) whose tolerance is
scaled so that every system still meets its own.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import cos, cosh, inf, lcm, pi, sin, sinh, sqrt

import numpy as np
from scipy.integrate import solve_ivp

from . import rational as rl
from .qseries import LSeries
from .sectors import SectorLabel
from .warped import EUCLIDEAN, LORENTZIAN, WarpedSector, cf_series_pole, data_weight

Q = Fraction

SERIES_ORDER = 40
EQUATOR_ORDER = 120  # the series order summed out to the equator
MATCH_RADIUS = 0.15
INTEGRATOR_TOL = 1e-12
TAIL_TOL = 1e-14
RTOL_FLOOR = 100 * np.finfo(float).eps  # scipy raises any smaller rtol to this


@dataclass(eq=False)
class RadialSystem:
    """One radial system; ``build_system`` makes one instance per key, so
    instances hash (and cache) by identity."""
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
        """a(s) and its derivative as Python floats."""
        if self.signature == EUCLIDEAN:
            return cos(s) ** 2, -sin(2 * s)
        return cosh(s) ** 2, sinh(2 * s)

    @cached_property
    def first_order(self):
        """The first-order matrix A(s) = [[0, I], [M0(s), M1(s)]] compiled
        to (monomials, coefficients): the distinct (a power, adot power)
        pairs of M1 and M0 with (0, 0) among them, and a (P, 2n * 2n) float
        array whose row p holds the coefficients of monomial p, the identity
        block under (0, 0).  A(s) = sum_p a^i_p adot^j_p row_p."""
        n = self.n
        monos = sorted({(0, 0)} | {mono for mat in (self.m1, self.m0)
                                   for row in mat for entry in row
                                   for mono in entry})
        index = {mono: p for p, mono in enumerate(monos)}
        coef = np.zeros((len(monos), 2 * n, 2 * n))
        coef[index[0, 0], :n, n:] = np.eye(n)
        for col, mat in ((0, self.m0), (n, self.m1)):
            for i in range(n):
                for j in range(n):
                    for mono, v in mat[i][j].items():
                        coef[index[mono], n + i, col + j] = float(v)
        coef = coef.reshape(len(monos), -1)
        coef.flags.writeable = False
        return tuple(monos), coef

    def m_num(self, s):
        """A(s) as a (2n, 2n) array: the monomials in Python floats, then
        one contraction with the compiled coefficients."""
        a, adot = self._ab(s)
        monos, coef = self.first_order
        dim = 2 * self.n
        flat = np.dot([a ** ia * adot ** jd for ia, jd in monos], coef)
        return flat.reshape(dim, dim)

    def rhs(self, s, y):
        """First-order form A(s) Y for a stacked matrix of solutions Y."""
        mat = self.m_num(s)
        return np.dot(mat, y.reshape(len(mat), -1)).ravel()


OPERATOR_RANK = {"D0": 0, "D1": 1, "D2": 2}


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
    rank = OPERATOR_RANK[operator_id]
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


def regular_exponents(system, order=SERIES_ORDER):
    """Exponents/seeds of the solutions square-integrable (hence smooth) at
    the pole, with the pole series to ``order``.  In the graded variables the
    L2 cutoff is uniform: a branch is regular iff its graded exponent
    exceeds -2."""
    data, series, lmat = indicial_data(system, order)
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
    """Values and s-derivatives at s = pi/2 - x0 of the regular basis, and
    its graded series (rho, slot shifts, coefficients), one per column."""
    reg, (p_mats, q_mats), lmat = regular_exponents(system, order)
    n = system.n
    p_f = _series_float(p_mats, n, order)
    q_f = _series_float(q_mats, n, order)
    entries = _integer_entries(lmat)
    cols_val = []
    cols_der = []
    series_out = []
    # physical components carry the grading x^(slot rank)
    shifts = np.array([float(r) for r in system.slot_ranks])
    for rho, seeds in reg:
        rho_f = float(rho)
        l_shift = _indicial_at_shifts(entries, rho, order)
        powers = _series_powers(rho_f, shifts, x0, order)
        others = {}
        for rho2, seeds2 in reg:
            off = rho2 - rho
            if off.denominator == 1 and int(off) > 0:
                others[int(off)] = seeds2
        for seed in seeds:
            coeffs = _frobenius_series(rho, seed, l_shift, p_f, q_f, n, order,
                                       others)
            series = (rho_f, shifts, coeffs)
            val, der, terms = _series_at(series, x0, powers)
            mags = np.abs(terms).max(axis=1).tolist()
            peak = max([0.0] + mags)
            tail = max([0.0] + mags[order - 2:])
            if peak > 0 and tail / peak > TAIL_TOL:
                raise RuntimeError(
                    f"Frobenius tail not converged at x0={x0}: {tail/peak:.2e}")
            cols_val.append(val)
            cols_der.append(-der)  # d/ds = -d/dx
            series_out.append(series)
    return np.array(cols_val).T, np.array(cols_der).T, series_out


def _series_powers(rho, shifts, x, order):
    """The exponents rho + m + shift of a graded Frobenius series, m =
    0..order by slot, with x to those powers and to those powers less one."""
    power = (rho + np.arange(order + 1))[:, None] + shifts
    return power, x ** power, x ** (power - 1)


def _series_at(series, x, powers=None):
    """Value and x-derivative at x of a graded Frobenius series (rho,
    slot shifts, coefficients), with its terms; ``powers`` are its
    ``_series_powers`` at x when already built."""
    rho, shifts, coeffs = series
    power, xp, xd = powers or _series_powers(rho, shifts, x, len(coeffs) - 1)
    terms = coeffs * xp
    dterms = power * coeffs * xd
    val = np.zeros(len(shifts))
    der = np.zeros(len(shifts))
    for t, d in zip(terms, dterms):  # a running sum in m
        val += t
        der += d
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


@dataclass(frozen=True)
class SolutionBasisAtEquator:
    data_matrix: np.ndarray  # (2n, n) columns = (value, -d/ds value) at s=0


def regular_basis(system, tol=INTEGRATOR_TOL):
    """Cauchy data at s=0 of the basis of solutions regular at the north
    pole (the south basis is its reflection, see ``calderon``): the
    Frobenius seeds at ``MATCH_RADIUS`` marched to the equator with
    tolerance ``tol``.  Built once per (system, tol); the array of the
    shared result is read-only."""
    return _regular_basis(system, tol)


@lru_cache(maxsize=None)
def _regular_basis(system, tol):
    if system.signature != EUCLIDEAN:
        raise ValueError("regular bases are defined for the Euclidean systems")
    val, der, _ = frobenius_solutions(system, SERIES_ORDER, MATCH_RADIUS)
    n = system.n
    y0 = np.vstack([val, der]).ravel()
    sol = solve_ivp(system.rhs, (pi / 2 - MATCH_RADIUS, 0.0), y0,
                    method="DOP853", rtol=tol, atol=tol)
    if not sol.success:
        raise RuntimeError(f"integration failed: {sol.message}")
    y = sol.y[:, -1].reshape(2 * n, n)
    qmat, _ = np.linalg.qr(np.vstack([y[:n], -y[n:]]))
    qmat.flags.writeable = False
    return SolutionBasisAtEquator(qmat)


def solution_profile(system):
    """Callable s -> (u(s), u'(s)) on [0, pi/2] for the first regular
    solution of a Euclidean system: its Frobenius series to
    ``EQUATOR_ORDER``, whose tail is checked at the equator, the farthest
    point from the pole."""
    *_, series = frobenius_solutions(system, EQUATOR_ORDER, pi / 2)

    def phi(s):
        val, der, _ = _series_at(series[0], pi / 2 - s)
        return val, -der

    return phi


# -- Lorentzian evolution -----------------------------------------------------

def evolve_raw(batch, t_grid, tol=INTEGRATOR_TOL):
    """Evolve the raw components (u, u-dot) of Lorentzian systems on one time
    grid.  ``batch`` is a sequence of (system, u0, du0); returns one pair of
    (nt, n) arrays u, u-dot per entry.

    Each system is reflection symmetric (``_assert_reflection_parity``):
    with kappa = diag((-1)^(rank - r)) over the slots, if v solves it with
    data (kappa u0, -kappa du0) then u(-t) = kappa v(t), u-dot(-t) = -kappa
    v-dot(t).  So one forward solve to max |t| serves both time signs:
    complex data are handled by linearity, and the real and imaginary parts
    and their reflections are a system's columns (a part with all-zero data,
    or a time sign absent from the grid, gets none).

    The systems with columns are one block-diagonal ODE (``_block_rhs``),
    solved by one DOP853 call per chunk (``_chunks``).  scipy's error norm
    is a root mean square over all D real components of a solve, so a chunk
    runs at rtol = atol = tol * sqrt(d_min / D), d_i the real components of
    block i: then sum_i (d_i / d_min) RMS_i^2 <= 1 at every accepted step,
    so every block meets the criterion it meets alone at ``tol``.  A chunk
    ends where one more block would take that below ``RTOL_FLOOR``, which
    scipy would silently raise it to; at the default ``tol`` a check's
    batch is one chunk, and a batch of one is solved at ``tol`` itself."""
    if tol < RTOL_FLOOR:
        raise ValueError(f"tolerance {tol:g} is below the integrator's floor "
                         f"{RTOL_FLOOR:.3g}")
    t_grid = np.asarray(t_grid, dtype=float)
    t_abs = np.abs(t_grid)
    ts = np.unique(t_abs[t_abs > 0])
    where = np.searchsorted(ts, t_abs)
    out, blocks = [], []
    for system, u0, du0 in batch:
        if system.signature != LORENTZIAN:
            raise ValueError("evolution is for Lorentzian systems")
        u0 = np.asarray(u0, dtype=complex)
        du0 = np.asarray(du0, dtype=complex)
        us = np.zeros((len(t_grid), system.n), dtype=complex)
        dus = np.zeros_like(us)
        us[t_grid == 0.0] = u0
        dus[t_grid == 0.0] = du0
        out.append((us, dus))
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
        if cols:
            blocks.append((system, np.stack(cols, axis=1), reads, us, dus))
    for chunk, rtol in _chunks(blocks, tol):
        sol = solve_ivp(_block_rhs(chunk), (0.0, ts[-1]),
                        np.concatenate([cols.ravel() for _, cols, *_ in chunk]),
                        method="DOP853", rtol=rtol, atol=rtol, t_eval=ts)
        if not sol.success:
            raise RuntimeError(sol.message)
        start = 0
        for system, cols, reads, us, dus in chunk:
            n = system.n
            ys = sol.y[start:start + cols.size].reshape(2 * n, -1, len(ts))
            start += cols.size
            for c, (fac, mask, flip) in enumerate(reads):
                y = flip * ys[:, c, where[mask]].T
                us[mask] += fac * y[:, :n]
                dus[mask] += fac * y[:, n:]
    return out


def _chunks(blocks, tol):
    """Consecutive runs of the (system, columns, ...) blocks, each with the
    tolerance tol * sqrt(d_min / D) over its blocks' real component counts
    d_i and their sum D, a run ending where one more block would take that
    tolerance below ``RTOL_FLOOR``."""
    chunk, d_min, total = [], inf, 0
    for block in blocks:
        d = block[1].size
        if chunk and tol * sqrt(min(d_min, d) / (total + d)) < RTOL_FLOOR:
            yield chunk, tol * sqrt(d_min / total)
            chunk, d_min, total = [], inf, 0
        chunk.append(block)
        d_min, total = min(d_min, d), total + d
    if chunk:
        yield chunk, tol * sqrt(d_min / total)


def _block_rhs(blocks):
    """Right-hand side of the block-diagonal first-order system of the
    (Lorentzian system, (2n, w) solution columns, ...) blocks: one
    contraction of the union of the systems' compiled monomials
    (``RadialSystem.first_order``) gives every block's A(t), zero-padded to
    the largest, and one batched matrix product applies them."""
    systems = [system for system, *_ in blocks]
    monos = sorted({mono for system in systems for mono in system.first_order[0]})
    index = {mono: p for p, mono in enumerate(monos)}
    dim = 2 * max(system.n for system in systems)
    width = max(cols.shape[1] for _, cols, *_ in blocks)
    coef = np.zeros((len(monos), len(blocks), dim, dim))
    slots = []  # where each block's columns sit in the padded stack
    for b, (system, cols, *_) in enumerate(blocks):
        d, w = cols.shape
        for mono, row in zip(*system.first_order):
            coef[index[mono], b, :d, :d] = row.reshape(d, d)
        slots.append(((b * dim + np.arange(d)[:, None]) * width + np.arange(w)).ravel())
    coef = coef.reshape(len(monos), -1)
    slots = np.concatenate(slots)
    stacked = np.zeros(len(blocks) * dim * width)  # the padding stays zero
    ab = systems[0]._ab  # a(t), adot(t): every system is Lorentzian

    def rhs(t, y):
        a, adot = ab(t)
        mats = np.dot([a ** i * adot ** j for i, j in monos], coef)
        stacked[slots] = y
        return np.matmul(mats.reshape(-1, dim, dim),
                         stacked.reshape(-1, dim, width)).ravel()[slots]

    return rhs


def charge_weight(system, t):
    """Time-dependent charge weight W(t): the slot-r block of the charge's
    weight (as in ``cauchy.charge_form``) scaled by cosh(t)^(3 - 2r)."""
    w = rl.to_numpy(data_weight(system.sector, system.rank, lorentz_signs=True))
    return w * np.array([np.cosh(t) ** (3 - 2 * r) for r in system.slot_ranks])[:, None]


def charge_raw(system, u, du, v, dv, t):
    """Conserved charge pairing of two raw solutions at time t."""
    w = charge_weight(system, t)
    return 1j * (du.conj() @ w @ v - u.conj() @ w @ dv)
