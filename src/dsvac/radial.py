"""Radial ODE systems at the equator: regular solution bases and evolution.

Each (operator, sector, signature) triple reduces to a second-order system
-X'' + M1(s) X' + M0(s) X = 0 over the sector slot basis.  A full sector's
M1 and M0 are its family's, reduced once with the level x = k(k+2) formal
and evaluated at its level (``build_system``), and so are its order-0 pole
coefficients; a sector with a reduced space is reduced on its own.  Each
system is compiled once to its first-order matrix A(s) = [[0, I], [M0(s), M1(s)]]:
the few distinct monomials a^i adot^j of its coefficients and one float
row of A per monomial, so an evaluation of A(s) is one contraction of the
monomial values with those rows, and the ODE right-hand side one matrix
product of A(s) with the stacked solution columns.

Euclidean systems have regular singular points at s = +-pi/2; the basis of
solutions regular at a pole is built by indicial analysis and the Frobenius
series, once per system and tolerance.  The order-0 pole coefficients P0
and Q0 (from the exact Laurent series) are certified integer matrices, and
the exponents are integers: the eigenvalues of the companion matrix of the
indicial matrix, each rounded to the nearest integer and certified exactly
by the null space of L(rho), its seed space.  So L(rho + m) is an integer
matrix at every order, evaluated in int64 and exact as floats.  The higher
pole coefficients that the recursion reads are floats: one contraction of a
system's coefficients with the Laurent series of the five monomials they
use, all read off the series of cot x and tabulated once per process.  The
coefficient poles sit at x = pi/2 - s = 0, +-pi, so the regular Frobenius
series converges on all of [0, pi/2], its terms falling like (x/pi)^m.  A
system runs one recursion, from its lowest regular exponent rho0: a higher
exponent rho is a series in x^(rho0 + m) whose seeds enter at order
rho - rho0, a resonance of rho0.  So the pole tables and L(rho0 + m) are
built once per system, ``TABLE_BLOCK`` orders at a time as the recursion
reaches them, every order is one matrix product for all seeds, and each
exponent stops at the first order at which its tail test holds where the
series is summed.  A regular basis is the series
summed to x0 = ``MATCH_RADIUS`` = 1.55 and marched the remaining pi/2 - x0
~ 0.021 to the equator at the ODE tolerance (``regular_basis``); summed to
the equator itself, the series is the energy oracle's profile
(``solution_profile``), a route independent of the integrator.
Lorentzian systems are globally smooth and are integrated directly for the
dynamical checks; the metric's t -> -t symmetry maps backward evolution to
forward evolution of reflected data, so one forward solve covers both time
signs, and a check's whole batch of systems is one block-diagonal solve
(``evolve_raw``) whose tolerance is scaled so that every system still
meets its own.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import cos, cosh, inf, pi, sin, sinh, sqrt

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import zeta

from . import rational as rl
from .qseries import LSeries
from .sectors import SectorLabel, at_level, generic_family
from .warped import EUCLIDEAN, LORENTZIAN, WarpedSector, cf_series_pole, kappa_signs

Q = Fraction

MATCH_RADIUS = 1.55  # the series carries each regular basis to x0 = pi/2 - s
ORDER_CAP = 400  # a recursion not converged by this order of rho0 raises
INTEGRATOR_TOL = 1e-12
TAIL_TOL = 1e-14
TAIL_BLOCK = 16  # orders the recursion runs between two tail tests
TABLE_BLOCK = 8 * TAIL_BLOCK  # orders of pole and L tables the recursion builds at a time
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
    family: object = None  # the family system m1 and m0 are evaluated from

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


def _check_reflection_parity(operator_id, sector, rank, slot_ranks, m1, m0):
    """kappa M1(-s) kappa = -M1(s) and kappa M0(-s) kappa = M0(s): entries
    with matching slot parities must be odd in adot (M1) / even (M0)."""
    signs = kappa_signs(rank)
    kap = [signs[r] for r in slot_ranks]
    for i in range(len(slot_ranks)):
        for j in range(len(slot_ranks)):
            s = kap[i] * kap[j]
            for name, mat, parity in (("M1", m1, -s), ("M0", m0, s)):
                if any((-1) ** jd != parity for _, jd in mat[i][j]):
                    raise RuntimeError(f"{operator_id} {sector}: reflection parity "
                                       f"broken in {name}")


@lru_cache(maxsize=None)
def build_system(operator_id, sector, signature, maxwell=False):
    """The radial system of ``operator_id`` on ``sector``, or on a family at
    the formal level (``sector`` a ``Family``: coefficients polynomial in
    x).  A full sector's M1 and M0 are its family's, built once, evaluated
    at its level entry by entry in the family's term order (a term that
    vanishes there dropped), which is the order its own reduction gives
    (the tests hold both to k = 96); a reduced sector runs the reduction
    itself."""
    rank = OPERATOR_RANK[operator_id]
    family = generic_family(sector)
    if family is not None:
        formal = build_system(operator_id, family, signature, maxwell=maxwell)
        x = sector.x
        m1, m0 = ([[{key: v for key, c in entry.items() if (v := at_level(c, x))}
                    for entry in row] for row in mat] for mat in (formal.m1, formal.m0))
        return RadialSystem(sector, operator_id, signature, maxwell, rank,
                            list(formal.slot_ranks), m1, m0, formal)
    ws = WarpedSector(sector, signature)
    slot_ranks, m1, m0 = ws.radial_matrices(rank, maxwell=maxwell)
    _check_reflection_parity(operator_id, sector, rank, slot_ranks, m1, m0)
    return RadialSystem(sector, operator_id, signature, maxwell, rank,
                        slot_ranks, m1, m0)


# -- indicial analysis --------------------------------------------------------

def pole_series_matrices(system, order):
    """Exact Laurent series at x = pi/2 - s of P = x*N1, Q = x^2*N0 for the
    slot-graded system, each entry known through x^order.  Euclidean only
    (the Lorentzian systems are globally smooth and have no pole to expand
    at).

    Components of solutions scale like x^(slot rank) relative to each other
    at the pole, so the substitution X = diag(x^r) V turns the mixed system
    into an honest regular-singular one:

        V'' = N1 V' + N0 V,
        N1 = D^-1 (M1_hat D - 2 D'),
        N0 = D^-1 (M1_hat D' + M0_hat D - D''),

    with M1_hat(x) = -M1(s), M0_hat(x) = M0(s) the x-coordinate forms.

    Entry (i, j) reads M1_hat at x^(1+d) and M0_hat at x^(2+d), d = r_j -
    r_i, so each is expanded just deep enough: ``cf_series_pole`` at depth
    N knows a^-2, the deepest pole the guards below admit, through x^(N-2).
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
            d = rj - ri
            s1 = cf_series_pole(system.m1[i][j], order + 1 - d)
            m1h = LSeries(s1.off, [-c for c in s1.c])  # -M1(s)
            m0h = cf_series_pole(system.m0[i][j], order - d)
            # N1[i][j] = x^d * M1_hat - (2 rj / x) delta_ij
            n1 = LSeries(m1h.off + d, m1h.c)
            n0 = LSeries(m0h.off + d, m0h.c)
            # M1_hat * D'/D contribution to N0: (rj/x) * M1_hat * x^d
            n0 = n0 + LSeries(m1h.off + d - 1, [rj * c for c in m1h.c])
            if i == j:
                n1 = n1 + LSeries(-1, [Q(-2 * rj)] + [Q(0)] * order)
                n0 = n0 + LSeries(-2, [Q(-rj * (rj - 1))] + [Q(0)] * order)
            p_mats[i][j] = LSeries(n1.off + 1, n1.c)
            q_mats[i][j] = LSeries(n0.off + 2, n0.c)
            if p_mats[i][j].c and p_mats[i][j].min_order() < 0:
                raise RuntimeError("coefficient pole worse than first order")
            if q_mats[i][j].c and q_mats[i][j].min_order() < 0:
                raise RuntimeError("coefficient pole worse than second order")
    return p_mats, q_mats


def pole_leading_terms(system):
    """The exact order-0 coefficients P0, Q0 of the pole series: those of
    ``pole_series_matrices`` at order 0, which fixes coefficient 0 and runs
    its pole-order guards.  A system evaluated from a family system reads
    the family's, built once, at its level."""
    if system.family is not None:
        x = system.sector.x
        return tuple([[at_level(c, x) for c in row] for row in mat]
                     for mat in _family_leading_terms(system.family))
    n = system.n
    p_mats, q_mats = pole_series_matrices(system, 0)
    return ([[p_mats[i][j].coeff(0) for j in range(n)] for i in range(n)],
            [[q_mats[i][j].coeff(0) for j in range(n)] for i in range(n)])


@lru_cache(maxsize=None)
def _family_leading_terms(family):
    return pole_leading_terms(family)


def indicial_data(system):
    """Exponents with their multiplicities and exact seed spaces at the
    north pole, and the order-0 pole coefficients (P0, Q0) of the indicial
    matrix L(rho) = rho(rho-1) I - rho P0 - Q0 as (n, n) int64 arrays.

    P0 and Q0 are certified integer matrices: an exact entry with a
    denominator raises.  The exponents, the roots of det L, are the
    eigenvalues of the companion matrix [[0, I], [Q0, I + P0]] (whose
    characteristic polynomial is det L exactly), each rounded to the nearest
    integer; an eigenvalue farther than 1e-6 max(1, |rho|) from an integer
    raises.  Each distinct integer is certified exactly by the null space of
    the integer matrix L(rho), which is its seed space and must not be
    empty; its multiplicity is the number of eigenvalues that round to it."""
    n = system.n
    p0, q0 = pole_leading_terms(system)
    if any(c.denominator != 1 for mat in (p0, q0) for row in mat for c in row):
        raise RuntimeError(f"pole coefficients P0, Q0 of {system.operator_id} "
                           f"{system.sector} are not integer matrices")
    p0, q0 = (np.array([[int(c) for c in row] for row in mat], dtype=np.int64)
              for mat in (p0, q0))
    eye = np.eye(n, dtype=np.int64)
    companion = np.block([[np.zeros((n, n)), eye], [q0, eye + p0]])
    mults = {}
    for ev in np.linalg.eigvals(companion):
        rho = round(ev.real)
        if abs(ev - rho) > 1e-6 * max(1.0, abs(ev)):
            raise RuntimeError(f"indicial exponent {ev:.6g} of {system.operator_id} "
                               f"{system.sector} is not an integer")
        mults[rho] = mults.get(rho, 0) + 1
    out = []
    for rho, mult in sorted(mults.items()):
        lrho = rho * (rho - 1) * eye - rho * p0 - q0
        seeds = rl.nullspace(lrho.tolist())
        if not seeds:
            raise RuntimeError(f"indicial matrix of {system.operator_id} "
                               f"{system.sector} is regular at rho = {rho}")
        out.append((rho, mult, seeds))
    return out, (p0, q0)


def regular_exponents(system):
    """Exponents/seeds of the solutions square-integrable (hence smooth) at
    the pole, with the integer (P0, Q0) of ``indicial_data``.  In the graded
    variables the L2 cutoff is uniform: a branch is regular iff its graded
    exponent exceeds -2."""
    data, leading = indicial_data(system)
    reg = [(rho, seeds) for rho, _, seeds in data if rho > -2]
    total_nullity = sum(len(seeds) for _, seeds in reg)
    if total_nullity != system.n:
        raise RuntimeError(
            f"regular solution count {total_nullity} != {system.n} "
            f"for {system.operator_id} {system.sector}")
    return reg, leading


# -- float pole tables --------------------------------------------------------
# Every Euclidean coefficient is a combination of five monomials a^i adot^j,
# a = sin^2 x and adot = -sin 2x at the north pole.  All five are Laurent
# series read off cot x = 1/x - 2 sum_n zeta(2n) x^(2n-1) / pi^(2n):
#   adot/a = -2 cot x,  1/a = -(cot x)',  adot/a^2 = (1/a)',
#   1/a^2 = ((1/a)'' + 4/a) / 6.

POLE_MONOMIALS = ((-2, 0), (-2, 1), (-1, 0), (-1, 1), (0, 0))


@lru_cache(maxsize=None)
def _pole_table(top):
    """(5, top + 5) floats: row p holds the Laurent coefficients of monomial
    ``POLE_MONOMIALS[p]`` at the north pole, column e that of x^(e - 4).
    Read at top = ``ORDER_CAP`` + 1, which covers every order the recursion
    may reach, so it is tabulated once per process; the array is
    read-only."""
    power = np.arange(-4, top + 4)  # three beyond top for the derivatives
    cot = np.zeros(len(power))
    cot[power == -1] = 1.0
    odd = (power > 0) & (power % 2 == 1)
    cot[odd] = -2 * zeta(power[odd] + 1.0) / pi ** (power[odd] + 1.0)

    def deriv(c):  # x-derivative; its last coefficient is not known
        out = np.zeros(len(c))
        out[:-1] = (power[:-1] + 1) * c[1:]
        return out

    inv_a = -deriv(cot)
    d_inv_a = deriv(inv_a)
    rows = np.array([(deriv(d_inv_a) + 4 * inv_a) / 6, d_inv_a, inv_a, -2 * cot,
                     power == 0])[:, :top + 5]
    rows.flags.writeable = False
    return rows


def pole_tables(system, orders=None):
    """Float tables p_f[m] = P_m, q_f[m] = Q_m of the pole series of
    ``pole_series_matrices``, one row for each order m of ``orders`` (default
    0..``ORDER_CAP``): one contraction of the system's coefficient rows over
    ``POLE_MONOMIALS`` with the monomial table, read at the graded shifts
    d_ij = r_j - r_i (the slot ranks differ by at most 2, so every column
    read is in the table):

        P = x^(1+d) M1_hat - 2 r_j delta_ij,
        Q = x^(2+d) M0_hat + r_j x^(1+d) M1_hat - r_j (r_j - 1) delta_ij,

    with M1_hat = -M1 and M0_hat = M0 as series in x.  A row does not depend
    on which other orders are asked for."""
    n = system.n
    index = {mono: p for p, mono in enumerate(POLE_MONOMIALS)}
    coef = np.zeros((2, len(POLE_MONOMIALS), n, n))
    for t, (mat, sign) in enumerate(((system.m1, -1.0), (system.m0, 1.0))):
        for i in range(n):
            for j in range(n):
                for (ia, jd), v in mat[i][j].items():
                    if (ia, jd) not in index:
                        raise ValueError(f"coefficient monomial a^{ia} adot^{jd} "
                                         "has no tabulated pole series")
                    coef[t, index[ia, jd], i, j] = sign * float(v)
    orders = np.arange(ORDER_CAP + 1) if orders is None else np.asarray(orders)
    table = _pole_table(ORDER_CAP + 1)
    ranks = np.array(system.slot_ranks)
    col = orders[:, None, None] + 4 - (ranks[None, :] - ranks[:, None])
    p_f = np.einsum("pij,pmij->mij", coef[0], table[:, col - 1])  # x^(1+d) M1_hat
    q_f = np.einsum("pij,pmij->mij", coef[1], table[:, col - 2]) + ranks * p_f
    at0 = orders == 0
    p_f[at0] -= np.diag(2.0 * ranks)
    q_f[at0] -= np.diag(ranks * (ranks - 1.0))
    return p_f, q_f


def frobenius_solutions(system, x0):
    """Values and s-derivatives at s = pi/2 - x0 of the regular basis, and
    its graded series (rho, slot shifts, coefficients), one per column.

    The system runs one recursion (``_frobenius_recursion``) from its lowest
    regular exponent rho0, on one pole table and one L(rho0 + m) table: a
    higher exponent rho is a series in x^(rho0 + m) whose seeds enter as its
    own columns at order rho - rho0.  Each exponent's columns stop at the
    first order at which the tail test holds at x0 for all of them, and
    their coefficients are read from their seed order on."""
    if not system.n:
        raise ValueError(f"{system.operator_id} {system.sector} has no slots, "
                         "so no regular basis")
    reg, (p0, q0) = regular_exponents(system)
    # physical components carry the grading x^(slot rank)
    shifts = np.array([float(r) for r in system.slot_ranks])
    rho0 = reg[0][0]

    def tables(orders):
        return (_indicial_at_shifts(p0, q0, rho0, orders), *pole_tables(system, orders))

    coeffs, stops, ratio = _frobenius_recursion(reg, tables, x0 ** (rho0 + shifts), x0)
    if ratio is not None:
        raise RuntimeError(
            f"Frobenius tail not converged for {system.operator_id} "
            f"{system.sector} at x0={x0:.6g} within the order cap "
            f"{ORDER_CAP}: tail/peak {ratio:.2e}")
    cols_val = []
    cols_der = []
    series_out = []
    columns = [(rho, stop) for (rho, seeds), stop in zip(reg, stops) for _ in seeds]
    for col, (rho, stop) in enumerate(columns):
        series = (float(rho), shifts, coeffs[rho - rho0:stop + 1, :, col])
        val, der = _series_at(series, x0)
        cols_val.append(val)
        cols_der.append(-der)  # d/ds = -d/dx
        series_out.append(series)
    return np.array(cols_val).T, np.array(cols_der).T, series_out


def _series_at(series, x):
    """Value and x-derivative at x of a graded Frobenius series (rho, slot
    shifts, coefficients), each a running sum in m."""
    rho, shifts, coeffs = series
    power = (rho + np.arange(len(coeffs)))[:, None] + shifts
    terms = coeffs * x ** power
    dterms = power * coeffs * x ** (power - 1)
    return np.add.accumulate(terms)[-1], np.add.accumulate(dterms)[-1]


def _indicial_at_shifts(p0, q0, rho, orders=None):
    """L(rho + m) = x(x-1) I - x P0 - Q0 at x = rho + m for every m of
    ``orders`` (default 0..``ORDER_CAP``), (len(orders), n, n) floats, from
    the integer P0, Q0 of ``indicial_data`` and an integer exponent rho: one
    int64 expression, whose entries stay far below 2^53 (at most 239 596
    over the 868 Euclidean systems with k <= 96), so every float is the
    exact integer."""
    if orders is None:
        orders = range(ORDER_CAP + 1)
    x = (rho + np.asarray(orders, dtype=np.int64))[:, None, None]
    return (x * (x - 1) * np.eye(len(p0), dtype=np.int64) - x * p0 - q0).astype(float)


def _frobenius_recursion(reg, tables, scale, x0):
    """Float Frobenius recursion with exactly-handled resonances for every
    regular exponent (rho, seeds) of ``reg`` at once, each column a seed,
    until each exponent's tail test holds at x0, or ``ORDER_CAP``.  Returns
    the coefficients, (order + 1, n, seeds) with the coefficient of
    x^(rho0 + m) in row m, each exponent's stop order, and None if every
    exponent converged, else the largest tail/peak ratio at the last order
    of a column of an exponent that did not.

    The series of rho is one of x^(rho0 + m) whose coefficients vanish below
    m = rho - rho0, where its seeds enter; that order is a resonance of
    rho0, so everywhere else L(rho0 + m) is invertible and all columns take
    one batched inverse.  L(rho0 + m) c_m = sum_(j<m) (P_(m-j) (rho0 + j) +
    Q_(m-j)) c_j, one product of the reversed, flattened tables
    [rho0 P + Q, P] with the stacked [c_j, j c_j].  ``tables(orders)``
    gives L(rho0 + m), P_m and Q_m for the orders asked; they are built, and
    L inverted, one block of ``TABLE_BLOCK`` orders at a time as the
    recursion reaches it, so no order past the block of the last stop is
    built.  (On a 2-vCPU VM a block cost about 60 us of calls beside 0.6 us
    per order: blocks of 16 orders made the 170 systems with k <= 24 slower
    than building all 401 orders, blocks of 128 faster; at x0 =
    ``MATCH_RADIUS`` most of them stop between orders 64 and 112.)  At a resonance the
    columns already started are solved by least squares, which must leave
    no residual (else log terms).

    Term m of a column is its graded coefficient at x0, c_m x0^m times
    ``scale`` = x0^(rho0 + slot shift).  The tail test of an exponent asks
    the largest of the last three terms of each of its columns to be within
    ``TAIL_TOL`` of that column's largest term so far, once those three are
    past the last resonance: there the least-squares solve may leave c_m = 0
    next to the terms that the tables' parity makes 0, long before the
    series has converged.  It runs once per ``TAIL_BLOCK`` orders, on all
    orders so far."""
    rho0 = reg[0][0]
    n = len(scale)
    starts = {rho - rho0: g for g, (rho, _) in enumerate(reg)}  # seed orders
    edges = np.cumsum([0] + [len(seeds) for _, seeds in reg])  # columns per exponent
    c = np.zeros((ORDER_CAP + 1, 2 * n, edges[-1]))  # rows n.. hold m c_m
    flat = c.reshape(-1, edges[-1])
    # [rho0 P + Q, P] with order m at position ORDER_CAP - m, so that
    # P_(m-j) meets c_j in one row
    table = np.zeros((n, ORDER_CAP + 1, 2 * n))
    flat_table = table.reshape(n, -1)
    end = ORDER_CAP * 2 * n  # where the table's order 0 starts
    lms = np.empty((ORDER_CAP + 1, n, n))
    inv = np.empty((ORDER_CAP + 1, 2 * n, n))  # [L^-1, m L^-1]: [c_m, m c_m]
    built = -1
    weight = scale[:, None] * x0 ** np.arange(ORDER_CAP + 1)[:, None, None]
    first = max(starts) + 3  # a resonance's c_m may be 0
    c[0, :n, :edges[1]] = _seed_columns(reg[0][1])
    for m in range(1, ORDER_CAP + 1):
        if m > built:
            top = min(-(-m // TABLE_BLOCK) * TABLE_BLOCK, ORDER_CAP)
            orders = np.arange(built + 1, top + 1)
            lms[orders], p_f, q_f = tables(orders)
            table[:, ORDER_CAP - orders] = np.concatenate(
                [rho0 * p_f + q_f, p_f], axis=2).transpose(1, 0, 2)
            plain = orders[[o > 0 and o not in starts for o in orders]]
            inv[plain, :n] = np.linalg.inv(lms[plain])
            inv[plain, n:] = plain[:, None, None] * inv[plain, :n]
            built = top
        rhs = flat_table[:, end - 2 * n * m:end] @ flat[:2 * n * m]
        if m in starts:
            g = starts[m]
            lm = lms[m]
            rhs = rhs[:, :edges[g]]  # the later columns have not started
            sol = np.linalg.lstsq(lm, rhs, rcond=None)[0]
            check = np.linalg.norm(lm @ sol - rhs, axis=0)
            bound = np.maximum(np.linalg.norm(rhs, axis=0), 1.0)
            if np.any(check > 1e-9 * bound):
                raise RuntimeError(
                    f"log terms required at resonance offset {m}")
            c[m, :n, :edges[g]] = sol
            c[m, :n, edges[g]:edges[g + 1]] = _seed_columns(reg[g][1])
            c[m, n:] = m * c[m, :n]
        else:
            np.matmul(inv[m], rhs, out=c[m])
        if m % TAIL_BLOCK and m < ORDER_CAP:
            continue
        mags = (np.abs(c[:m + 1, :n]) * weight[:m + 1]).max(axis=1)  # term sizes
        peak = np.maximum.accumulate(mags)
        tail = np.maximum(np.maximum(mags[2:], mags[1:-1]), mags[:-2])  # orders 2..
        holds = np.logical_and.reduceat(tail <= TAIL_TOL * peak[2:], edges[:-1], axis=1)
        holds[:first - 2] = False
        if holds.any(axis=0).all():
            break
    converged = holds.any(axis=0)
    stops = np.where(converged, holds.argmax(axis=0) + 2, m)
    if converged.all():
        return c[:m + 1, :n], stops, None
    cols = np.repeat(~converged, np.diff(edges))  # those of the unconverged exponents
    return c[:m + 1, :n], stops, (tail[-1, cols] / peak[-1, cols]).max()


def _seed_columns(seeds):
    """The exact seed vectors of an exponent as the float columns of an
    (n, seeds) array."""
    return np.array([[float(x) for x in seed] for seed in seeds]).T


@dataclass(frozen=True)
class SolutionBasisAtEquator:
    data_matrix: np.ndarray  # (2n, n) columns = (value, -d/ds value) at s=0


def regular_basis(system, tol=INTEGRATOR_TOL):
    """Cauchy data at s=0 of the basis of solutions regular at the north
    pole (the south basis is its reflection, see ``calderon``): the
    Frobenius series summed to x0 = ``MATCH_RADIUS`` = 1.55, each exponent
    at the order its tail test picks there, then marched the remaining
    pi/2 - x0 ~ 0.021 to the equator with tolerance ``tol``, so that ``tol``
    still reaches every basis.  Built once per (system, tol); the array of the
    shared result is read-only."""
    return _regular_basis(system, tol)


@lru_cache(maxsize=None)
def _regular_basis(system, tol):
    if system.signature != EUCLIDEAN:
        raise ValueError("regular bases are defined for the Euclidean systems")
    val, der, _ = frobenius_solutions(system, MATCH_RADIUS)
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
    solution of a Euclidean system: its Frobenius series to the order the
    tail test picks at the equator, the farthest point from the pole."""
    *_, series = frobenius_solutions(system, pi / 2)

    def phi(s):
        val, der = _series_at(series[0], pi / 2 - s)
        return val, -der

    return phi


# -- Lorentzian evolution -----------------------------------------------------

def evolve_raw(batch, t_grid, tol=INTEGRATOR_TOL):
    """Evolve the raw components (u, u-dot) of Lorentzian systems on one time
    grid.  ``batch`` is a sequence of (system, u0, du0); returns one pair of
    (nt, n) arrays u, u-dot per entry.

    Each system is reflection symmetric (``_check_reflection_parity``):
    with kappa = diag(``kappa_signs``) over the slots, if v solves it with
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
        kappa = np.array(kappa_signs(system.rank), dtype=float)[system.slot_ranks]
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
