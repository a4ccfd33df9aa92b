"""Exact warped-product tensor calculus over the equator.

Both geometries of interest are warped products over the round 3-sphere:
Euclidean  g = ds^2 + a(s) h with a = cos^2(s), and Lorentzian
g = -dt^2 + a(t) h with a = cosh^2(t).  Radial sections of symmetric
tensor bundles are stored slot-wise (slot = number of spatial indices) as
vectors over the sector bases with coefficients that are exact Laurent
polynomials in {a^i, a^i * adot}.  The profile function enters only through

    adot^2 = sig*(4a^2 - 4a),     addot = sig*(4a - 2),

with sig = -1 (cos^2) or +1 (cosh^2); the metric sign eps = g00 = -sig.

From the symmetric differential/codifferential acting slot-wise one builds
the gauge-fixed Lichnerowicz operators, reduces them to radial ODE systems,
and extracts Cauchy-surface operator blocks by jet evaluation, all without
floating point.
"""

from fractions import Fraction

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


def cf_add(*terms):
    out = {}
    for t in terms:
        for k, v in t.items():
            out[k] = out.get(k, Q(0)) + v
            if out[k] == 0:
                del out[k]
    return out


def cf_scale(t, c):
    c = Q(c)
    if c == 0:
        return {}
    return {k: c * v for k, v in t.items()}


def cf_mul(t1, t2, sig):
    out = {}
    for (i1, j1), v1 in t1.items():
        for (i2, j2), v2 in t2.items():
            i, j, v = i1 + i2, j1 + j2, v1 * v2
            if j == 2:
                # adot^2 = sig*(4a^2 - 4a)
                _acc(out, (i + 2, 0), Q(4 * sig) * v)
                _acc(out, (i + 1, 0), Q(-4 * sig) * v)
            else:
                _acc(out, (i, j), v)
    return {k: v for k, v in out.items() if v != 0}


def _acc(d, k, v):
    d[k] = d.get(k, Q(0)) + v


def cf_diff(t, sig):
    """d/ds using a' = adot, adot' = addot = sig*(4a-2)."""
    out = {}
    for (i, j), v in t.items():
        if i != 0:
            if j == 0:
                _acc(out, (i - 1, 1), i * v)
            else:
                # i*a^(i-1)*adot^2 + handled with the j-term below
                _acc(out, (i + 1, 0), Q(4 * sig) * i * v)
                _acc(out, (i, 0), Q(-4 * sig) * i * v)
        if j == 1:
            # a^i * addot
            _acc(out, (i + 1, 0), Q(4 * sig) * v)
            _acc(out, (i, 0), Q(-2 * sig) * v)
    return {k: v for k, v in out.items() if v != 0}


def cf_eval(t, a_val, adot_val):
    tot = 0
    for (i, j), v in t.items():
        tot = tot + v * a_val ** i * (adot_val ** j if j else 1)
    return tot


def cf_series_pole(t, order):
    """Laurent x-series at the north pole s = pi/2 - x (Euclidean):
    a = sin^2 x, adot = -sin 2x.

    The series of each monomial a^i adot^j is computed once per order and
    memoised in ``_POLE_CACHE``; a call only sums the scaled monomials."""
    out = LSeries(0, [])
    for (i, j), v in t.items():
        out = out + v * _pole_monomial(order, i, j)
    return out


_POLE_CACHE = {}


def _pole_monomial(order, i, j):
    """Series of a^i adot^j at the north pole (shared: do not mutate)."""
    key = (order, i, j)
    if key not in _POLE_CACHE:
        if (i, j) == (1, 0):
            s = sin_series(order + 4)
            ser = s * s
        elif (i, j) == (0, 1):
            ser = -1 * scaled_arg(sin_series, 2, order + 4)
        else:
            ser = _pole_monomial(order, 1, 0).power(i)
            if j:
                ser = ser * _pole_monomial(order, 0, 1)
        _POLE_CACHE[key] = ser
    return _POLE_CACHE[key]


# -- linear expressions in the unknown radial profiles -----------------------
# LinExpr = dict[(unknown_index, derivative_order)] -> coefficient dict

def le_scale(e, c, sig):
    if isinstance(c, (int, Fraction)):
        return {k: cf_scale(v, c) for k, v in e.items() if cf_scale(v, c)}
    return {k: cf_mul(v, c, sig) for k, v in e.items() if cf_mul(v, c, sig)}


def le_add(*exprs):
    out = {}
    for e in exprs:
        for k, v in e.items():
            out[k] = cf_add(out.get(k, {}), v)
            if not out[k]:
                del out[k]
    return out


def le_diff(e, sig):
    out = {}
    for (u, m), v in e.items():
        out[(u, m + 1)] = cf_add(out.get((u, m + 1), {}), v)
        dv = cf_diff(v, sig)
        if dv:
            out[(u, m)] = cf_add(out.get((u, m), {}), dv)
    out = {k: v for k, v in out.items() if v}
    return out


def _vec_apply(mat, vec, sig):
    """Rational matrix times a vector of LinExpr."""
    out = []
    for row in mat:
        acc = {}
        for c, e in zip(row, vec):
            if c != 0:
                acc = le_add(acc, le_scale(e, c, sig))
        out.append(acc)
    return out


# -- warped operators --------------------------------------------------------

_FIBER_RIEM = {0: [Q(1)], 1: [Q(1), Q(1)], 2: [Q(2), Q(4), Q(1)]}


def fiber_weights(rank):
    """Riemannian fiber weights per slot of a rank <= 2 data space."""
    return list(_FIBER_RIEM[rank])


def kappa_signs(rank):
    """Reflection signs per slot: (-1)**(number of s indices)."""
    return [Q((-1) ** (rank - r)) for r in range(rank + 1)]


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
        out = []
        for r in range(rank + 1):
            out.extend([r] * self.sp.dim(r))
        return out

    def flat(self, section, rank):
        out = []
        for r in range(rank + 1):
            out.extend(section[r])
        return out

    def _mat(self, name, rank):
        m, _ = self.sp.op(name, rank)
        return m

    def _zero_slot(self, r):
        return [{} for _ in range(self.sp.dim(r))]

    def d(self, z, rank):
        """Symmetric differential, rank -> rank+1."""
        sig, eps = self.sig, self.eps
        C = cf(-1, 1)  # adot/a
        adot = cf(0, 1)
        if rank == 0:
            u = z[0]
            return {
                0: [le_diff(e, sig) for e in u],
                1: _vec_apply(self._mat("d", 0), u, sig),
            }
        if rank == 1:
            w0, w1 = z[0], z[1]
            out1 = [
                le_scale(
                    le_add(le_diff(e, sig), le_scale(e, cf_scale(C, -1), sig), g),
                    Q(1, 2), sig)
                for e, g in zip(w1, _vec_apply(self._mat("d", 0), w0, sig))
            ]
            out2_a = _vec_apply(self._mat("d", 1), w1, sig)
            out2_b = _vec_apply(self._mat("hmul", 0), w0, sig)
            out2 = [le_add(x, le_scale(y, cf_scale(adot, Q(eps, 2)), sig))
                    for x, y in zip(out2_a, out2_b)]
            return {0: [le_diff(e, sig) for e in w0], 1: out1, 2: out2}
        if rank == 2:
            p, q, r2 = z[0], z[1], z[2]
            out0 = [le_diff(e, sig) for e in p]
            dp = _vec_apply(self._mat("d", 0), p, sig)
            out1 = [
                le_scale(le_add(le_scale(le_diff(e, sig), 2, sig),
                                g,
                                le_scale(e, cf_scale(C, -2), sig)), Q(1, 3), sig)
                for e, g in zip(q, dp)
            ]
            dq = _vec_apply(self._mat("d", 1), q, sig)
            hp = _vec_apply(self._mat("hmul", 0), p, sig)
            out2 = [
                le_scale(le_add(le_diff(e, sig),
                                le_scale(e, cf_scale(C, -2), sig),
                                le_scale(g, 2, sig),
                                le_scale(hh, cf_scale(adot, eps), sig)),
                         Q(1, 3), sig)
                for e, g, hh in zip(r2, dq, hp)
            ]
            dr = _vec_apply(self._mat("d", 2), r2, sig)
            hq = _vec_apply(self._mat("hsym", 1), q, sig)
            out3 = [le_add(x, le_scale(y, cf_scale(adot, eps), sig))
                    for x, y in zip(dr, hq)]
            return {0: out0, 1: out1, 2: out2, 3: out3}
        raise ValueError(f"d not implemented at rank {rank}")

    def delta(self, z, rank):
        """Codifferential, rank -> rank-1 (generic slot formula)."""
        sig, eps = self.sig, self.eps
        C = cf(-1, 1)
        adot = cf(0, 1)
        ainv = cf(-1)
        out = {}
        for r in range(rank):
            sigma = rank - 1 - r
            acc = [dict() for _ in range(self.sp.dim(r))]
            # eps*(d/ds - (r/2) C) z[r]
            for i, e in enumerate(z[r]):
                t = le_add(le_diff(e, sig), le_scale(e, cf_scale(C, Q(-r, 2)), sig))
                acc[i] = le_add(acc[i], le_scale(t, eps, sig))
            # a^{-1} * [- 1/(r+1) delta z[r+1]]
            dz = _vec_apply(self._mat("delta", r + 1), z[r + 1], sig)
            for i, e in enumerate(dz):
                acc[i] = le_add(acc[i], le_scale(e, cf_scale(ainv, Q(-1, r + 1)), sig))
            # a^{-1} * eps*(3+r)/2 * adot * z[r]
            for i, e in enumerate(z[r]):
                acc[i] = le_add(acc[i], le_scale(
                    e, cf_scale(cf(-1, 1), Q(eps * (3 + r), 2)), sig))
            # a^{-2} * (-sigma/2) * adot * trace z[r+2]
            if sigma >= 1 and r + 2 <= rank:
                tz = _vec_apply(self._mat("trace", r + 2), z[r + 2], sig)
                for i, e in enumerate(tz):
                    acc[i] = le_add(acc[i], le_scale(
                        e, cf_scale(cf(-2, 1), Q(-sigma, 2)), sig))
            out[r] = [le_scale(e, -rank, sig) for e in acc]
        return out

    def metric_pair(self, z):
        """(g| z for a rank-2 section: rank-0 section 2*(eps z_00 + a^-1 tr z_SS)."""
        sig, eps = self.sig, self.eps
        tz = _vec_apply(self._mat("trace", 2), z[2], sig)
        out = []
        for e0, et in zip(z[0], tz):
            out.append(le_add(le_scale(e0, 2 * eps, sig),
                              le_scale(et, cf(-1, 0, 2), sig)))
        return {0: out}

    def metric_mult(self, z0):
        """|g) u0 for a rank-0 section: (eps*u, 0, a*u*h)."""
        sig, eps = self.sig, self.eps
        u = z0[0]
        hu = _vec_apply(self._mat("hmul", 0), u, sig)
        return {
            0: [le_scale(e, eps, sig) for e in u],
            1: self._zero_slot(1),
            2: [le_scale(e, cf(1), sig) for e in hu],
        }

    def trace_reversal(self, z):
        """I u = u - (1/4)(g|u) g on rank-2 sections."""
        tr = self.metric_pair(z)
        att = self.metric_mult({0: [le_scale(e, Q(-1, 4), self.sig) for e in tr[0]]})
        return {r: [le_add(a, b) for a, b in zip(z[r], att[r])] for r in range(3)}

    # -- operators of the theory --------------------------------------------

    def lichnerowicz(self, z, rank):
        """D_{k,L} = delta d - d delta (+ curvature terms), radial form."""
        dd = self.delta(self.d(z, rank), rank + 1)
        out = dd
        if rank >= 1:
            ddg = self.d(self.delta(z, rank), rank - 1)
            out = {r: [le_add(a, le_scale(b, -1, self.sig))
                       for a, b in zip(out[r], ddg[r])] for r in range(rank + 1)}
        if rank == 1:
            out = {r: [le_add(a, le_scale(b, 6, self.sig))
                       for a, b in zip(out[r], z[r])] for r in range(2)}
        if rank == 2:
            gg = self.metric_mult({0: [le_scale(e, -2, self.sig)
                                       for e in self.metric_pair(z)[0]]})
            out = {r: [le_add(a, le_scale(b, 16, self.sig), g)
                       for a, b, g in zip(out[r], z[r], gg[r])] for r in range(3)}
        return out

    def gauge_fixed(self, z, rank, maxwell=False):
        """The hyperbolic/elliptic operators of the theory: Lichnerowicz
        minus 2*Lambda = 6 for linearized gravity; plain Lichnerowicz
        (Hodge on 1-forms, Laplacian on functions) for Maxwell."""
        out = self.lichnerowicz(z, rank)
        if not maxwell:
            out = {r: [le_add(a, le_scale(b, -6, self.sig))
                       for a, b in zip(out[r], z[r])] for r in out}
        return out

    # -- reductions ----------------------------------------------------------

    def radial_matrices(self, rank, maxwell=False):
        """Reduce the gauge-fixed operator to -X'' + M1 X' + M0 X = 0.

        Returns (slot_ranks, M1, M0) with exact coefficient-dict matrices.
        """
        z, n = self.unknown_section(rank)
        out = self.flat(self.gauge_fixed(z, rank, maxwell=maxwell), rank)
        assert len(out) == n
        m1 = [[CF_ZERO] * n for _ in range(n)]
        m0 = [[CF_ZERO] * n for _ in range(n)]
        eps = self.eps
        for i, e in enumerate(out):
            for (j, order), coeff in e.items():
                if order == 2:
                    expect = {(0, 0): Q(-eps)} if i == j else {}
                    if coeff != expect:
                        raise AssertionError(
                            f"unexpected second-order structure at ({i},{j}): {coeff}")
                elif order == 1:
                    m1[i][j] = cf_scale(coeff, eps)
                elif order == 0:
                    m0[i][j] = cf_scale(coeff, eps)
                else:
                    raise AssertionError("order > 2 in radial reduction")
        return self.slot_info(rank), m1, m0

    # -- Cauchy data blocks ---------------------------------------------------

    def cauchy_block(self, op, in_rank, out_rank, elim=None, at=(Q(1), Q(0)),
                     maxwell=False):
        """Jet-evaluate a first-order operator on Cauchy data.

        Returns the raw block mapping (u(pt), u'(pt)) -> (Op u (pt),
        d/ds Op u (pt)) as an exact rational matrix when ``at`` is rational.
        Second derivatives are eliminated with the radial system of the
        relevant gauge-fixed operator (pass ``elim``=(slot_ranks, M1, M0)).
        """
        sig = self.sig
        z, n = self.unknown_section(in_rank)
        out = self.flat(op(z), out_rank)
        m = len(out)
        a_val, adot_val = at
        if elim is None:
            elim = self.radial_matrices(in_rank, maxwell=maxwell)
        _, m1, m0 = elim
        m1_pt = [[cf_eval(c, a_val, adot_val) for c in row] for row in m1]
        m0_pt = [[cf_eval(c, a_val, adot_val) for c in row] for row in m0]

        def eval_expr(e):
            row_val = [Q(0) if isinstance(a_val, Fraction) else 0.0] * (2 * n)
            for (j, order), coeff in e.items():
                c = cf_eval(coeff, a_val, adot_val)
                if order == 0:
                    row_val[j] += c
                elif order == 1:
                    row_val[n + j] += c
                elif order == 2:
                    for l in range(n):
                        row_val[l] += c * m0_pt[j][l]
                        row_val[n + l] += c * m1_pt[j][l]
                else:
                    raise AssertionError("third derivative in Cauchy block")
            return row_val

        top = [eval_expr(e) for e in out]
        bot = [eval_expr(le_diff(e, sig)) for e in out]
        return top + bot
