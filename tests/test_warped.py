"""Validation of the warped-product radial reductions.

The decisive checks are exact solutions: the ten Killing 1-forms annihilated
by the Euclidean rank-1 operator, constants in the kernel of the Maxwell
scalar operator, and the metric itself as a -6 eigentensor of the rank-2
operator.  Reflection parity and formal self-adjointness with the volume
weight a^{3/2} pin the first-order coefficients independently.
"""

from fractions import Fraction

import numpy as np
import pytest

from dsvac import rational as rl
from dsvac.qseries import LSeries, scaled_arg, sin_series
from dsvac.radial import build_system
from dsvac.sectors import Family, SectorLabel, enumerate_sectors, space
from dsvac.warped import (
    EUCLIDEAN,
    LORENTZIAN,
    WarpedSector,
    cf,
    cf_diff,
    cf_eval,
    cf_mul,
    cf_scale,
    cf_series_pole,
    fiber_weights,
    kappa_signs,
)
from routes import (
    apply_radial,
    cf_add,
    cfm_add,
    cfm_diff,
    cfm_mul,
    cfm_scale,
    cfm_scale_cf,
    transpose,
)

Q = Fraction

# sample points s with exact (a, adot) not needed; rational surrogate points
# satisfying adot^2 = 4a(1-a) (Euclidean): a = 9/25, adot = +-24/25
EUCLID_POINTS = [(Q(9, 25), Q(24, 25)), (Q(9, 25), Q(-24, 25)), (Q(1), Q(0)),
                 (Q(16, 25), Q(24, 25))]
# Lorentzian: adot^2 = 4a(a-1): a = cosh^2 = 25/16 gives adot = 2*(5/4)*(3/4)
LORENTZ_POINTS = [(Q(25, 16), Q(15, 8)), (Q(25, 16), Q(-15, 8)), (Q(1), Q(0))]


def profile_eval(coeff, pt):
    return cf_eval(coeff, *pt)


def jet(coeff, pt, sig):
    d1 = cf_diff(coeff, sig)
    d2 = cf_diff(d1, sig)
    return (cf_eval(coeff, *pt), cf_eval(d1, *pt), cf_eval(d2, *pt))


def test_killing_scalar_sector():
    # phi = psi ds - sin(s)cos(s) d psi has profiles (1, adot/2)
    ws = WarpedSector(SectorLabel(Family.SCALAR, 1), EUCLIDEAN)
    act = apply_radial(ws, 1)
    profiles = [cf(0, 0, 1), cf_scale(cf(0, 1), Q(1, 2))]
    for pt in EUCLID_POINTS:
        jets = [jet(p, pt, ws.sig) for p in profiles]
        out = act([j[0] for j in jets], [j[1] for j in jets],
                  [j[2] for j in jets], *pt)
        assert out == [0, 0]


def test_killing_vector_sector():
    # phi = cos^2(s) psi_jk has profile a on the single slot
    ws = WarpedSector(SectorLabel(Family.VECTOR, 1), EUCLIDEAN)
    act = apply_radial(ws, 1)
    for pt in EUCLID_POINTS:
        j = jet(cf(1), pt, ws.sig)
        out = act([j[0]], [j[1]], [j[2]], *pt)
        assert out == [0]


def test_lorentzian_killing():
    # -psi dt + sinh(t)cosh(t) d psi: profiles (-1, adot/2); a = cosh^2
    ws = WarpedSector(SectorLabel(Family.SCALAR, 1), LORENTZIAN)
    act = apply_radial(ws, 1)
    profiles = [cf(0, 0, -1), cf_scale(cf(0, 1), Q(1, 2))]
    for pt in LORENTZ_POINTS:
        jets = [jet(p, pt, ws.sig) for p in profiles]
        out = act([j[0] for j in jets], [j[1] for j in jets],
                  [j[2] for j in jets], *pt)
        assert out == [0, 0]
    ws2 = WarpedSector(SectorLabel(Family.VECTOR, 1), LORENTZIAN)
    act2 = apply_radial(ws2, 1)
    for pt in LORENTZ_POINTS:
        j = jet(cf(1), pt, ws2.sig)
        assert act2([j[0]], [j[1]], [j[2]], *pt) == [0]


def test_maxwell_constants():
    ws = WarpedSector(SectorLabel(Family.SCALAR, 0), EUCLIDEAN)
    act = apply_radial(ws, 0, maxwell=True)
    for pt in EUCLID_POINTS:
        assert act([1], [0], [0], *pt) == [0]
    # gravity scalar operator does NOT kill constants (zeroth term -6)
    actg = apply_radial(ws, 0)
    assert actg([1], [0], [0], Q(1), Q(0)) == [-6]


def test_metric_is_minus6_eigentensor():
    # D2 (u0 * g) = (D0 u0) g; with u0 = 1 this gives D2 g = -6 g
    ws = WarpedSector(SectorLabel(Family.SCALAR, 0), EUCLIDEAN)
    act2 = apply_radial(ws, 2)
    act0 = apply_radial(ws, 0)
    # slots of Scalar(0) rank 2: (ss, SS[hY]); profile of u0*g is (u0, a*u0)
    for u0 in (cf(0, 0, 1), cf(1), cf(2), cf(1, 1)):
        prof = [u0, cf_mul(cf(1), u0, ws.sig)]
        for pt in EUCLID_POINTS:
            jets = [jet(p, pt, ws.sig) for p in prof]
            out = act2([j[0] for j in jets], [j[1] for j in jets],
                       [j[2] for j in jets], *pt)
            j0 = jet(u0, pt, ws.sig)
            r = act0([j0[0]], [j0[1]], [j0[2]], *pt)[0]
            assert out[0] == r
            assert out[1] == pt[0] * r


def test_metric_family_scalar_k():
    # same identity in a higher scalar sector, where the sS slot is active
    sec = SectorLabel(Family.SCALAR, 3)
    ws = WarpedSector(sec, EUCLIDEAN)
    act2 = apply_radial(ws, 2)
    act0 = apply_radial(ws, 0)
    for u0 in (cf(0, 0, 1), cf(1), cf(0, 1)):
        prof = [u0, {}, {}, cf_mul(cf(1), u0, ws.sig)]
        for pt in EUCLID_POINTS:
            jets = [jet(p, pt, ws.sig) for p in prof]
            out = act2([j[0] for j in jets], [j[1] for j in jets],
                       [j[2] for j in jets], *pt)
            j0 = jet(u0, pt, ws.sig)
            r = act0([j0[0]], [j0[1]], [j0[2]], *pt)[0]
            assert out == [r, 0, 0, pt[0] * r]


def test_rank1_scalar_matrices():
    # zeroth-order structure of the s-row: (lam+3)/a - 6 on w_s and
    # -lam * adot/a^2 on the divergence of w_S; the s-row also carries the
    # volume first-order term -(3/2)(adot/a) d/ds (required by the gradient
    # family test below and by self-adjointness)
    sec = SectorLabel(Family.SCALAR, 2)
    lam = sec.eigenvalue
    ws = WarpedSector(sec, EUCLIDEAN)
    slot_ranks, m1, m0 = ws.radial_matrices(1)
    assert slot_ranks == [0, 1]
    assert m1[0][0] == cf_scale(cf(-1, 1), Q(-3, 2))
    assert m1[0][1] == {}
    expect_ss = cf_add(cf(-1, 0, lam), cf(-1, 0, 3), cf(0, 0, -6))
    assert m0[0][0] == expect_ss
    assert m0[0][1] == cf(-2, 1, -lam)
    # Sigma row: -(1/2)(adot/a) d/ds, -(adot/a) on w_s, lam/a - 6 on w_S
    assert m1[1][1] == cf_scale(cf(-1, 1), Q(-1, 2))
    assert m0[1][0] == cf(-1, 1, -1)
    assert m0[1][1] == cf_add(cf(-1, 0, lam), cf(0, 0, -6))


def test_gradient_family_rank1():
    # w = d(u0) solves the rank-1 equation whenever u0 solves the rank-0
    # one; this pins the first-order term of the s-row
    for k in (1, 2, 4):
        sec = SectorLabel(Family.SCALAR, k)
        ws = WarpedSector(sec, EUCLIDEAN)
        lam = sec.eigenvalue
        act1 = apply_radial(ws, 1)
        # pick an arbitrary profile c and compute the rank-0 residual r;
        # then row_s(dc, c) must equal r' + (3/2)(adot/a) r... instead use
        # exact kernel elements: impose c'' from the rank-0 equation
        slot0, m1_0, m0_0 = ws.radial_matrices(0)
        for c in (cf(1), cf(2), cf(1, 1)):
            for pt in EUCLID_POINTS[:2]:
                a, adot = pt
                c0 = cf_eval(c, a, adot)
                c1 = cf_eval(cf_diff(c, ws.sig), a, adot)
                # solve the rank-0 ODE for c'': c'' = M1 c' + M0 c
                c2 = (cf_eval(m1_0[0][0], a, adot) * c1
                      + cf_eval(m0_0[0][0], a, adot) * c0)
                # c''' by differentiating the ODE
                dm1 = cf_diff(m1_0[0][0], ws.sig)
                dm0 = cf_diff(m0_0[0][0], ws.sig)
                c3 = (cf_eval(dm1, a, adot) * c1 + cf_eval(m1_0[0][0], a, adot) * c2
                      + cf_eval(dm0, a, adot) * c0 + cf_eval(m0_0[0][0], a, adot) * c1)
                out = act1([c1, c0], [c2, c1], [c3, c2], a, adot)
                assert out == [0, 0], (k, pt)


def test_reflection_parity():
    # kappa M1(-s) kappa = -M1(s), kappa M0(-s) kappa = M0(s):
    # entries with kappa_i*kappa_j = +1 are odd in adot (M1) / even (M0)
    for sec in (SectorLabel(Family.SCALAR, 2), SectorLabel(Family.VECTOR, 2),
                SectorLabel(Family.TENSOR, 3), SectorLabel(Family.SCALAR, 0)):
        ws = WarpedSector(sec, EUCLIDEAN)
        for rank in (0, 1, 2):
            slot_ranks, m1, m0 = ws.radial_matrices(rank)
            kap = [(-1) ** (rank - r) for r in slot_ranks]
            n = len(slot_ranks)
            for i in range(n):
                for j in range(n):
                    s = kap[i] * kap[j]
                    for (ia, jd), v in m1[i][j].items():
                        assert (-1) ** jd == -s, (sec, rank, i, j)
                    for (ia, jd), v in m0[i][j].items():
                        assert (-1) ** jd == s, (sec, rank, i, j)


def _weight_matrix(ws, rank):
    """Omega-hat: diag over slots of w_r * a^(-r) * Gram, coefficient field.

    Euclidean weights are the Riemannian fiber weights; Lorentzian ones carry
    the signature signs (w * kappa), making the operator symmetric for the
    indefinite invariant pairing.
    """
    wts = fiber_weights(rank)
    if ws.signature == LORENTZIAN:
        wts = [w * k for w, k in zip(wts, kappa_signs(rank))]
    size = sum(ws.sp.dim(r) for r in range(rank + 1))
    out = [[{} for _ in range(size)] for _ in range(size)]
    off = 0
    for r in range(rank + 1):
        g = ws.sp.gram(r)
        for i in range(ws.sp.dim(r)):
            for j in range(ws.sp.dim(r)):
                if g[i][j] != 0:
                    out[off + i][off + j] = cf(-r, 0, wts[r] * g[i][j])
        off += ws.sp.dim(r)
    return out


@pytest.mark.parametrize("signature", [EUCLIDEAN, LORENTZIAN])
def test_formal_selfadjointness(signature):
    # with Omega = a^(3/2) * Omega-hat the gauge-fixed operators satisfy
    # Omega M1 + M1^T Omega = -3 (adot/a) Omega - 2 Omega'  and
    # Omega M0 - M0^T Omega = Omega'' + Omega' M1 + Omega M1'
    # (all divided by a^(3/2), psi = (3/2) adot/a)
    for sec in (SectorLabel(Family.SCALAR, 2), SectorLabel(Family.VECTOR, 1),
                SectorLabel(Family.TENSOR, 2), SectorLabel(Family.SCALAR, 1)):
        ws = WarpedSector(sec, signature)
        sig = ws.sig
        for rank in (1, 2):
            slot_ranks, m1, m0 = ws.radial_matrices(rank)
            if not slot_ranks:
                continue
            w = _weight_matrix(ws, rank)
            psi = cf_scale(cf(-1, 1), Q(3, 2))
            wp = cfm_add(cfm_scale_cf(w, psi, sig), cfm_diff(w, sig))
            # condition 1
            lhs = cfm_add(cfm_mul(w, m1, sig), cfm_mul(transpose(m1), w, sig))
            rhs = cfm_scale(wp, -2)
            assert lhs == rhs, (sec, rank, "first-order self-adjointness")
            # condition 2
            lhs2 = cfm_add(cfm_mul(w, m0, sig),
                           cfm_scale(cfm_mul(transpose(m0), w, sig), -1))
            wpp = cfm_add(cfm_scale_cf(wp, psi, sig), cfm_diff(wp, sig))
            rhs2 = cfm_add(wpp, cfm_mul(wp, m1, sig),
                           cfm_mul(w, cfm_diff(m1, sig), sig))
            assert lhs2 == rhs2, (sec, rank, "zeroth-order self-adjointness")


def test_tt_radial_form():
    # single-slot TT reduction: -phi'' + (1/2)(adot/a) phi'
    # + ((lam-4)/a - 2) phi
    sec = SectorLabel(Family.TENSOR, 2)
    ws = WarpedSector(sec, EUCLIDEAN)
    slot_ranks, m1, m0 = ws.radial_matrices(2)
    assert slot_ranks == [2]
    assert m1[0][0] == cf_scale(cf(-1, 1), Q(1, 2))
    lam = sec.eigenvalue
    assert m0[0][0] == cf_add(cf(-1, 0, lam - 4), cf(0, 0, -2))


def test_wick_rotation_rule():
    # the Lorentzian reduction agrees with the substitution rule applied to
    # the Euclidean one: M1_L(c') = -i*phase*M1_E, M0_L = -phase*M0_E with
    # phase = i^(eps(c')-eps(c)); verified entrywise via the coefficient
    # field (a -> a, adot -> -i*adot under s -> -it, checked at rational
    # points via the parity of the adot power)
    for sec in (SectorLabel(Family.SCALAR, 2), SectorLabel(Family.VECTOR, 2),
                SectorLabel(Family.TENSOR, 2)):
        we = WarpedSector(sec, EUCLIDEAN)
        wl = WarpedSector(sec, LORENTZIAN)
        for rank in (1, 2):
            slot_ranks, m1e, m0e = we.radial_matrices(rank)
            _, m1l, m0l = wl.radial_matrices(rank)
            n = len(slot_ranks)
            for i in range(n):
                for j in range(n):
                    si = rank - slot_ranks[i]  # s-index count of row slot
                    sj = rank - slot_ranks[j]
                    # under s -> -i t: a -> a, adot -> i*adot; with component
                    # phases i^eps: M1_L = -i * i^(sj-si) * M1_E(subst),
                    # M0_L = - i^(sj-si) * M0_E(subst)
                    for (ia, jd), v in m1e[i][j].items():
                        coef = (-1j) * (1j) ** (sj - si) * (1j) ** jd * float(v)
                        assert abs(coef.imag) < 1e-12
                        got = m1l[i][j].get((ia, jd), Q(0))
                        assert abs(float(got) - coef.real) < 1e-12, (sec, rank, i, j)
                    for (ia, jd), v in m0e[i][j].items():
                        coef = -((1j) ** (sj - si)) * (1j) ** jd * float(v)
                        assert abs(coef.imag) < 1e-12
                        got = m0l[i][j].get((ia, jd), Q(0))
                        assert abs(float(got) - coef.real) < 1e-12, (sec, rank, i, j)


def _cf_series_pole_reference(t, order):
    """The pole series with every monomial recomputed from a and adot."""
    s = sin_series(order + 4)
    a_ser = s * s
    adot_ser = -1 * scaled_arg(sin_series, 2, order + 4)
    out = LSeries(0, [])
    for (i, j), v in t.items():
        term = a_ser.power(i)
        if j:
            term = term * adot_ser
        out = out + v * term
    return out


@pytest.mark.parametrize("spec", [
    (Family.SCALAR, 2, "D2", False), (Family.VECTOR, 2, "D2", False),
    (Family.TENSOR, 3, "D2", False), (Family.SCALAR, 0, "D0", True),
    (Family.SCALAR, 1, "D1", True), (Family.VECTOR, 1, "D1", True),
], ids=str)
def test_cf_series_pole_matches_direct_sum(spec):
    # the memoised monomials give exactly the series of the direct sum for
    # every coefficient entry the indicial analysis expands
    fam, k, op, mx = spec
    system = build_system(op, SectorLabel(fam, k), EUCLIDEAN, maxwell=mx)
    order = 46
    for mat in (system.m1, system.m0):
        for row in mat:
            for entry in row:
                got = cf_series_pole(entry, order)
                ref = _cf_series_pole_reference(entry, order)
                assert (got.off, got.c) == (ref.off, ref.c), (spec, entry)


# -- the rank-by-rank calculus, kept as the reference of the slot formulas ----
# Linear expressions are summed into fresh dicts, and d is written out for
# each rank.  RadialSystem sums the terms of each matrix entry in dict order,
# so the slot formulas must give the same entries in the same order.

def _ref_le_scale(e, c, sig):
    if isinstance(c, (int, Fraction)):
        return {k: cf_scale(v, c) for k, v in e.items() if cf_scale(v, c)}
    return {k: cf_mul(v, c, sig) for k, v in e.items() if cf_mul(v, c, sig)}


def _ref_le_add(*exprs):
    out = {}
    for e in exprs:
        for k, v in e.items():
            out[k] = cf_add(out.get(k, {}), v)
            if not out[k]:
                del out[k]
    return out


def _ref_le_diff(e, sig):
    out = {}
    for (u, m), v in e.items():
        out[(u, m + 1)] = cf_add(out.get((u, m + 1), {}), v)
        dv = cf_diff(v, sig)
        if dv:
            out[(u, m)] = cf_add(out.get((u, m), {}), dv)
    return {k: v for k, v in out.items() if v}


def _ref_vec_apply(mat, vec, sig):
    out = []
    for row in mat:
        acc = {}
        for c, e in zip(row, vec):
            if c != 0:
                acc = _ref_le_add(acc, _ref_le_scale(e, c, sig))
        out.append(acc)
    return out


class _RankByRank(WarpedSector):
    """The warped calculus with d written once per rank."""

    def _apply(self, name, rank, vec):
        return _ref_vec_apply(self.sp.op(name, rank)[0], vec, self.sig)

    def d(self, z, rank):
        sig, eps = self.sig, self.eps
        scale, add, diff = _ref_le_scale, _ref_le_add, _ref_le_diff
        C, adot = cf(-1, 1), cf(0, 1)
        if rank == 0:
            return {0: [diff(e, sig) for e in z[0]], 1: self._apply("d", 0, z[0])}
        if rank == 1:
            w0, w1 = z[0], z[1]
            out1 = [scale(add(diff(e, sig), scale(e, cf_scale(C, -1), sig), g), Q(1, 2), sig)
                    for e, g in zip(w1, self._apply("d", 0, w0))]
            out2 = [add(x, scale(y, cf_scale(adot, Q(eps, 2)), sig))
                    for x, y in zip(self._apply("d", 1, w1), self._apply("hmul", 0, w0))]
            return {0: [diff(e, sig) for e in w0], 1: out1, 2: out2}
        p, q, r2 = z[0], z[1], z[2]
        out1 = [scale(add(scale(diff(e, sig), 2, sig), g, scale(e, cf_scale(C, -2), sig)),
                      Q(1, 3), sig)
                for e, g in zip(q, self._apply("d", 0, p))]
        out2 = [scale(add(diff(e, sig), scale(e, cf_scale(C, -2), sig), scale(g, 2, sig),
                          scale(hh, cf_scale(adot, eps), sig)), Q(1, 3), sig)
                for e, g, hh in zip(r2, self._apply("d", 1, q), self._apply("hmul", 0, p))]
        out3 = [add(x, scale(y, cf_scale(adot, eps), sig))
                for x, y in zip(self._apply("d", 2, r2), self._apply("hsym", 1, q))]
        return {0: [diff(e, sig) for e in p], 1: out1, 2: out2, 3: out3}

    def delta(self, z, rank):
        sig, eps = self.sig, self.eps
        scale, add = _ref_le_scale, _ref_le_add
        out = {}
        for r in range(rank):
            sigma = rank - 1 - r
            acc = [add(scale(_ref_le_diff(e, sig), eps, sig),
                       scale(e, cf_scale(cf(-1, 1), Q(-r * eps, 2)), sig)) for e in z[r]]
            acc = [add(a, scale(e, cf(-1, 0, Q(-1, r + 1)), sig))
                   for a, e in zip(acc, self._apply("delta", r + 1, z[r + 1]))]
            acc = [add(a, scale(e, cf(-1, 1, Q(eps * (3 + r), 2)), sig))
                   for a, e in zip(acc, z[r])]
            if sigma >= 1:
                acc = [add(a, scale(e, cf(-2, 1, Q(-sigma, 2)), sig))
                       for a, e in zip(acc, self._apply("trace", r + 2, z[r + 2]))]
            out[r] = [scale(e, -rank, sig) for e in acc]
        return out

    def metric_pair(self, z):
        sig, eps = self.sig, self.eps
        return {0: [_ref_le_add(_ref_le_scale(e0, 2 * eps, sig), _ref_le_scale(et, cf(-1, 0, 2), sig))
                    for e0, et in zip(z[0], self._apply("trace", 2, z[2]))]}

    def metric_mult(self, z0):
        return {0: [_ref_le_scale(e, self.eps, self.sig) for e in z0[0]],
                1: self._zero_slot(1),
                2: [_ref_le_scale(e, cf(1), self.sig) for e in self._apply("hmul", 0, z0[0])]}

    def trace_reversal(self, z):
        att = self.metric_mult({0: [_ref_le_scale(e, Q(-1, 4), self.sig)
                                    for e in self.metric_pair(z)[0]]})
        return {r: [_ref_le_add(a, b) for a, b in zip(z[r], att[r])] for r in range(3)}

    def field_operator(self, z, rank, maxwell=False):
        def plus(out, other, c):
            return {r: [_ref_le_add(a, _ref_le_scale(b, c, self.sig))
                        for a, b in zip(out[r], other[r])] for r in out}

        out = self.delta(self.d(z, rank), rank + 1)
        if rank >= 1:
            out = plus(out, self.d(self.delta(z, rank), rank - 1), -1)
        if rank == 1:
            out = plus(out, z, 6)
        if rank == 2:
            gg = self.metric_mult({0: [_ref_le_scale(e, -2, self.sig)
                                       for e in self.metric_pair(z)[0]]})
            out = {r: [_ref_le_add(a, _ref_le_scale(b, 16, self.sig), g)
                       for a, b, g in zip(out[r], z[r], gg[r])] for r in range(3)}
        if not maxwell:
            out = plus(out, z, -6)
        return out


def _in_order(matrices):
    slot_ranks, m1, m0 = matrices
    return slot_ranks, [[[list(c.items()) for c in row] for row in m] for m in (m1, m0)]


@pytest.mark.parametrize("signature", [EUCLIDEAN, LORENTZIAN])
def test_slot_formulas_match_the_rank_by_rank_calculus(signature):
    # every radial system up to k = 12, in value and in the term order the
    # float matrices are summed in
    for sec in enumerate_sectors(12):
        ws, ref = WarpedSector(sec, signature), _RankByRank(sec, signature)
        for maxwell in (False, True):
            for rank in (0, 1, 2):
                assert (_in_order(ws.radial_matrices(rank, maxwell=maxwell))
                        == _in_order(ref.radial_matrices(rank, maxwell=maxwell))), (
                    sec, rank, maxwell)


def test_intertwining_jets_match_the_rank_by_rank_calculus():
    # the gauge and adjoint jets of the identities suite, at its float times
    jets = [(SectorLabel(Family.SCALAR, 2), lambda w, z: w.trace_reversal(w.d(z, 1)), 1, 2),
            (SectorLabel(Family.SCALAR, 1), lambda w, z: w.trace_reversal(w.d(z, 1)), 1, 2),
            (SectorLabel(Family.VECTOR, 2), lambda w, z: w.trace_reversal(w.d(z, 1)), 1, 2),
            (SectorLabel(Family.SCALAR, 2), lambda w, z: w.delta(z, 2), 2, 1)]
    for t in np.linspace(-2.0, 2.0, 5):
        at = (np.cosh(t) ** 2, np.sinh(2 * t))
        for sec, jet, rin, rout in jets:
            ws, ref = WarpedSector(sec, LORENTZIAN), _RankByRank(sec, LORENTZIAN)
            assert (ws.cauchy_block(lambda z: jet(ws, z), rin, rout, at=at)
                    == ref.cauchy_block(lambda z: jet(ref, z), rin, rout, at=at)), (sec, t)


def test_an_equation_count_off_the_unknowns_names_its_operator(monkeypatch):
    flat = WarpedSector.flat
    monkeypatch.setattr(WarpedSector, "flat",
                        lambda self, section, rank: flat(self, section, rank)[:-1])
    ws = WarpedSector(SectorLabel(Family.SCALAR, 2), EUCLIDEAN)
    with pytest.raises(RuntimeError,
                       match=r"D1 Maxwell Scalar\(2\): 1 equations for 2 unknowns"):
        ws.radial_matrices(1, maxwell=True)
