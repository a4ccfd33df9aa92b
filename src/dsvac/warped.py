"""Exact warped-product tensor calculus over the equator, rank-generic.

Both geometries of interest are warped products over the round 3-sphere:
Euclidean  g = ds^2 + a(s) h with a = cos^2(s), and Lorentzian
g = -dt^2 + a(t) h with a = cosh^2(t).  Radial sections of symmetric
tensor bundles are stored slot-wise (slot = number of spatial indices) as
vectors over the sector bases with coefficients that are exact Laurent
polynomials in {a^i, a^i * adot}.  The profile function enters only through

    adot^2 = sig*(4a^2 - 4a),     addot = sig*(4a - 2),

with sig = -1 (cos^2) or +1 (cosh^2); the metric sign eps = g00 = -sig.

The symmetric differential and the codifferential are one slot formula each,
for every rank.  The field operators of both theories come from them at every
rank: the Lichnerowicz operator delta d - d delta, the zeroth-order terms of
one per-rank table and, for linearized gravity, the mass term.  They are
reduced to radial ODE systems and evaluated on Cauchy data by jets, all
without floating point.  Coefficients and linear expressions are sparse
exact vectors, updated in place by ``rational.accumulate``.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np
from scipy.linalg import block_diag

from . import rational as rl
from .qseries import LSeries, scaled_arg, sin_series
from .sectors import space

Q = Fraction

EUCLIDEAN = "euclidean"
LORENTZIAN = "lorentzian"

_SIG = {EUCLIDEAN: -1, LORENTZIAN: 1}


# -- coefficient field -------------------------------------------------------
# coefficient = dict[(i, j)] -> Fraction, meaning sum c * a**i * adot**j,
# with j in {0, 1}.

def cf(i=0, j=0, c=1):
    return {(i, j): Q(c)}


CF_ZERO = {}
CF_ONE = cf()


def cf_scale(t, c):
    c = Q(c)
    if c == 0:
        return {}
    return {k: c * v for k, v in t.items()}


def _mono_mul(i, j, v, sig):
    """The terms of v * a^i * adot^j for j <= 2, with adot^2 = sig*(4a^2 - 4a)."""
    if j == 2:
        return [((i + 2, 0), 4 * sig * v), ((i + 1, 0), -4 * sig * v)]
    return [((i, j), v)]


def cf_mul(t1, t2, sig):
    out = {}
    for (i1, j1), v1 in t1.items():
        for (i2, j2), v2 in t2.items():
            rl.accumulate(out, _mono_mul(i1 + i2, j1 + j2, v1 * v2, sig))
    return out


def cf_diff(t, sig):
    """d/ds using a' = adot, adot' = addot = sig*(4a-2):
    d/ds(a^i adot^j) = i a^(i-1) adot^(j+1) + j a^i addot."""
    out = {}
    for (i, j), v in t.items():
        if i:
            rl.accumulate(out, _mono_mul(i - 1, j + 1, i * v, sig))
        if j:
            rl.accumulate(out, [((i + 1, 0), 4 * sig * v), ((i, 0), -2 * sig * v)])
    return out


def cf_eval(t, a_val, adot_val):
    tot = 0
    for (i, j), v in t.items():
        tot = tot + v * a_val ** i * (adot_val ** j if j else 1)
    return tot


def cf_series_pole(t, order):
    """Laurent x-series at the north pole s = pi/2 - x (Euclidean):
    a = sin^2 x, adot = -sin 2x.

    The series of each monomial a^i adot^j is computed once per order and
    memoised by ``_pole_monomial``; a call only sums the scaled monomials."""
    out = LSeries(0, [])
    for (i, j), v in t.items():
        out = out + v * _pole_monomial(order, i, j)
    return out


@lru_cache(maxsize=None)
def _pole_monomial(order, i, j):
    """Series of a^i adot^j at the north pole (shared: do not mutate)."""
    if (i, j) == (1, 0):
        s = sin_series(order + 4)
        return s * s
    if (i, j) == (0, 1):
        return -1 * scaled_arg(sin_series, 2, order + 4)
    ser = _pole_monomial(order, 1, 0).power(i)
    return ser * _pole_monomial(order, 0, 1) if j else ser


# -- linear expressions in the unknown radial profiles -----------------------
# LinExpr = dict[(unknown_index, derivative_order)] -> coefficient dict

def _le_add_to(acc, e, c, sig):
    """acc += c * e in place (c rational or a coefficient); an entry that
    cancels is dropped, so a later term of it is appended anew."""
    for k, v in e.items():
        if c != 1:
            v = cf_scale(v, c) if isinstance(c, (int, Fraction)) else cf_mul(v, c, sig)
        if k in acc:
            if not rl.accumulate(acc[k], v.items()):
                del acc[k]
        elif v:
            acc[k] = dict(v)


def le_diff(e, sig):
    out = {}
    for (u, m), v in e.items():
        rl.accumulate(out.setdefault((u, m + 1), {}), v.items())
        dv = cf_diff(v, sig)
        if dv:
            rl.accumulate(out.setdefault((u, m), {}), dv.items())
    return {k: v for k, v in out.items() if v}


# -- warped operators --------------------------------------------------------

_FIBER_RIEM = {0: [Q(1)], 1: [Q(1), Q(1)], 2: [Q(2), Q(4), Q(1)]}

LAMBDA = 3  # cosmological constant of unit de Sitter space

# zeroth-order terms of the field operator per rank: (curvature, coefficient
# of |g)(g|)
_ZEROTH = {0: (0, 0), 1: (6, 0), 2: (16, -2)}


def fiber_weights(rank):
    """Riemannian fiber weights per slot of a rank <= 2 data space."""
    return list(_FIBER_RIEM[rank])


def kappa_signs(rank):
    """Reflection signs per slot: (-1)**(number of s indices)."""
    return [Q((-1) ** (rank - r)) for r in range(rank + 1)]


def data_weight(sector, rank, lorentz_signs=False):
    """Weight of one half of rank-``rank`` Cauchy data, an exact object
    array: the block diagonal of the slot Gram matrices times the fiber
    weights, and times the reflection signs for the Lorentzian charge."""
    sp = space(sector)
    wts = fiber_weights(rank)
    if lorentz_signs:
        wts = [w * k for w, k in zip(wts, kappa_signs(rank))]
    return block_diag(*(np.array(sp.gram(r), dtype=object).reshape(sp.dim(r), sp.dim(r))
                        * wts[r] for r in range(rank + 1)))


class WarpedSector:
    """Warped calculus for one sector and one signature."""

    def __init__(self, sector, signature):
        self.sector = sector
        self.signature = signature
        self.sig = _SIG[signature]
        self.eps = -self.sig  # g00
        self.sp = space(sector)

    # sections: dict slot -> list[LinExpr], slots 0..R

    def unknown_section(self, rank):
        sec = {}
        idx = 0
        for r in range(rank + 1):
            n = self.sp.dim(r)
            sec[r] = [{(idx + p, 0): dict(CF_ONE)} for p in range(n)]
            idx += n
        return sec, idx

    def slot_info(self, rank):
        """Flat coordinate layout: list of slot ranks per coordinate."""
        return [r for r in range(rank + 1) for _ in range(self.sp.dim(r))]

    def flat(self, section, rank):
        return [e for r in range(rank + 1) for e in section[r]]

    def _zero_slot(self, r):
        return [{} for _ in range(self.sp.dim(r))]

    def _add(self, slot, c, exprs, op=None, rank=None):
        """slot[i] += c * exprs[i], or c * (op exprs)[i] for the sector
        operator ``op`` at ``rank``; c is a rational or a coefficient."""
        rational = isinstance(c, (int, Fraction))
        if rational and c == 0:
            return
        if op is None:
            for acc, e in zip(slot, exprs):
                _le_add_to(acc, e, c, self.sig)
            return
        for acc, row in zip(slot, self.sp.op(op, rank)[0]):
            for m, e in zip(row, exprs):
                if m:
                    _le_add_to(acc, e, c * m if rational else cf_scale(c, m), self.sig)

    def d(self, z, rank):
        """Symmetric differential, rank R -> R+1.  With n = R+1, slot r of
        the image is

            (n-r)/n (z_r' - r (adot/a) z_r) + r/n d z_{r-1}
                + C(r,2)/n eps adot h.z_{r-2},

        where h. attaches h: ``hmul`` on functions, ``hsym`` on 1-forms."""
        n, sig = rank + 1, self.sig
        out = {}
        for r in range(n + 1):
            acc = out[r] = self._zero_slot(r)
            if r < n:
                self._add(acc, Q(n - r, n), [le_diff(e, sig) for e in z[r]])
                if r:
                    self._add(acc, cf(-1, 1, Q(-r * (n - r), n)), z[r])
            if r >= 1:
                self._add(acc, Q(r, n), z[r - 1], "d", r - 1)
            if r >= 2:
                self._add(acc, cf(0, 1, Q(comb(r, 2) * self.eps, n)), z[r - 2],
                          ("hmul", "hsym")[r - 2], r - 2)
        return out

    def delta(self, z, rank):
        """Codifferential, rank R -> R-1.  Slot r of the image is

            -R [eps (z_r' + (3/2)(adot/a) z_r) - 1/(r+1) a^-1 delta z_{r+1}
                - (R-1-r)/2 a^-2 adot tr z_{r+2}]."""
        sig, eps = self.sig, self.eps
        out = {}
        for r in range(rank):
            acc = out[r] = self._zero_slot(r)
            self._add(acc, -rank * eps, [le_diff(e, sig) for e in z[r]])
            self._add(acc, cf(-1, 1, Q(-3 * rank * eps, 2)), z[r])
            self._add(acc, cf(-1, 0, Q(rank, r + 1)), z[r + 1], "delta", r + 1)
            if r + 2 <= rank:
                self._add(acc, cf(-2, 1, Q(rank * (rank - 1 - r), 2)), z[r + 2],
                          "trace", r + 2)
        return out

    def metric_pair(self, z, c=1):
        """c (g| z for a rank-2 section: rank-0 section
        2c (eps z_00 + a^-1 tr z_SS)."""
        acc = self._zero_slot(0)
        self._add(acc, 2 * c * self.eps, z[0])
        self._add(acc, cf(-1, 0, 2 * c), z[2], "trace", 2)
        return {0: acc}

    def metric_mult(self, z0, c=1, out=None):
        """Add c |g) u0 = (c eps u0, 0, c a u0 h) for a rank-0 section u0
        into the rank-2 section ``out`` (a new zero section by default)."""
        if out is None:
            out = {r: self._zero_slot(r) for r in range(3)}
        self._add(out[0], c * self.eps, z0[0])
        self._add(out[2], cf(1, 0, c), z0[0], "hmul", 0)
        return out

    def trace_reversal(self, z):
        """I u = u - (1/4)(g|u) g on rank-2 sections."""
        out = {r: self._zero_slot(r) for r in range(3)}
        for r in out:
            self._add(out[r], 1, z[r])
        return self.metric_mult(self.metric_pair(z), Q(-1, 4), out)

    # -- the field operators -------------------------------------------------

    def field_operator(self, z, rank, maxwell=False):
        """The theory's hyperbolic/elliptic operator, radial form: the
        Lichnerowicz operator delta d - d delta plus the zeroth-order terms
        of ``_ZEROTH``, and for linearized gravity the mass term -2*Lambda.
        On functions and 1-forms Maxwell's are the Laplacian and Hodge."""
        out = self.delta(self.d(z, rank), rank + 1)
        dd = self.d(self.delta(z, rank), rank - 1)  # zero at rank 0
        curvature, metric = _ZEROTH[rank]
        for r in out:
            self._add(out[r], -1, dd[r])
            self._add(out[r], curvature, z[r])
        if metric:
            self.metric_mult(self.metric_pair(z), metric, out)
        for r in out:
            self._add(out[r], 0 if maxwell else -2 * LAMBDA, z[r])
        return out

    # -- reductions ----------------------------------------------------------

    def radial_matrices(self, rank, maxwell=False):
        """Reduce the field operator to -X'' + M1 X' + M0 X = 0.

        Returns (slot_ranks, M1, M0) with exact coefficient-dict matrices.
        """
        z, n = self.unknown_section(rank)
        out = self.flat(self.field_operator(z, rank, maxwell=maxwell), rank)
        where = f"D{rank}{' Maxwell' if maxwell else ''} {self.sector}"
        if len(out) != n:
            raise RuntimeError(f"{where}: {len(out)} equations for {n} unknowns")
        mats = {order: [[CF_ZERO] * n for _ in range(n)] for order in (1, 0)}
        for i, e in enumerate(out):
            for (j, order), coeff in e.items():
                if order in mats:
                    mats[order][i][j] = cf_scale(coeff, self.eps)
                elif order != 2 or coeff != ({(0, 0): Q(-self.eps)} if i == j else {}):
                    raise RuntimeError(f"{where}: unexpected order-{order} structure "
                                       f"at ({i},{j}): {coeff}")
        return self.slot_info(rank), mats[1], mats[0]

    # -- Cauchy data blocks ---------------------------------------------------

    def cauchy_block(self, op, in_rank, out_rank, elim, at=(Q(1), Q(0))):
        """Jet-evaluate a first-order operator on Cauchy data.

        Returns the raw block mapping (u(pt), u'(pt)) -> (Op u (pt),
        d/ds Op u (pt)) as an exact rational matrix when ``at`` is rational.
        Second derivatives are eliminated with the radial system of the
        input's field operator: ``elim`` is a function returning
        (slot_ranks, M1, M0), called only if a second derivative occurs.
        """
        sig = self.sig
        z, n = self.unknown_section(in_rank)
        out = self.flat(op(z), out_rank)
        a_val, adot_val = at
        m_pt = []  # M1 and M0 at the point, from the first second derivative on

        def eval_expr(e):
            row_val = [Q(0) if isinstance(a_val, Fraction) else 0.0] * (2 * n)
            for (j, order), coeff in e.items():
                c = cf_eval(coeff, a_val, adot_val)
                if order == 0:
                    row_val[j] += c
                elif order == 1:
                    row_val[n + j] += c
                elif order == 2:
                    if not m_pt:
                        _, m1, m0 = elim()
                        m_pt[:] = [[[cf_eval(x, a_val, adot_val) for x in row]
                                    for row in m] for m in (m1, m0)]
                    m1_pt, m0_pt = m_pt
                    for l in range(n):
                        row_val[l] += c * m0_pt[j][l]
                        row_val[n + l] += c * m1_pt[j][l]
                else:
                    raise RuntimeError(f"rank-{in_rank} to rank-{out_rank} operator on "
                                       f"{self.sector}: third derivative in Cauchy block")
            return row_val

        top = [eval_expr(e) for e in out]
        bot = [eval_expr(le_diff(e, sig)) for e in out]
        return top + bot
