"""Validation of the warped-product radial reductions.

The decisive checks are exact solutions: the ten Killing 1-forms annihilated
by the Euclidean rank-1 operator, constants in the kernel of the Maxwell
scalar operator, and the metric itself as a -6 eigentensor of the rank-2
operator.  Reflection parity and formal self-adjointness with the volume
weight a^{3/2} pin the first-order coefficients independently.
"""

from fractions import Fraction

import pytest

from dsvac import rational as rl
from dsvac.qseries import LSeries, scaled_arg, sin_series
from dsvac.radial import SERIES_ORDER, build_system
from dsvac.sectors import Family, SectorLabel, space
from dsvac.warped import (
    EUCLIDEAN,
    LORENTZIAN,
    WarpedSector,
    cf,
    cf_add,
    cf_diff,
    cf_eval,
    cf_mul,
    cf_scale,
    cf_series_pole,
    cfm_add,
    cfm_diff,
    cfm_from_rational,
    cfm_mul,
    cfm_scale,
    cfm_scale_cf,
    cfm_transpose,
    fiber_weights,
    kappa_signs,
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
    act = ws.apply_radial(1)
    profiles = [cf(0, 0, 1), cf_scale(cf(0, 1), Q(1, 2))]
    for pt in EUCLID_POINTS:
        jets = [jet(p, pt, ws.sig) for p in profiles]
        out = act([j[0] for j in jets], [j[1] for j in jets],
                  [j[2] for j in jets], *pt)
        assert out == [0, 0]


def test_killing_vector_sector():
    # phi = cos^2(s) psi_jk has profile a on the single slot
    ws = WarpedSector(SectorLabel(Family.VECTOR, 1), EUCLIDEAN)
    act = ws.apply_radial(1)
    for pt in EUCLID_POINTS:
        j = jet(cf(1), pt, ws.sig)
        out = act([j[0]], [j[1]], [j[2]], *pt)
        assert out == [0]


def test_lorentzian_killing():
    # -psi dt + sinh(t)cosh(t) d psi: profiles (-1, adot/2); a = cosh^2
    ws = WarpedSector(SectorLabel(Family.SCALAR, 1), LORENTZIAN)
    act = ws.apply_radial(1)
    profiles = [cf(0, 0, -1), cf_scale(cf(0, 1), Q(1, 2))]
    for pt in LORENTZ_POINTS:
        jets = [jet(p, pt, ws.sig) for p in profiles]
        out = act([j[0] for j in jets], [j[1] for j in jets],
                  [j[2] for j in jets], *pt)
        assert out == [0, 0]
    ws2 = WarpedSector(SectorLabel(Family.VECTOR, 1), LORENTZIAN)
    act2 = ws2.apply_radial(1)
    for pt in LORENTZ_POINTS:
        j = jet(cf(1), pt, ws2.sig)
        assert act2([j[0]], [j[1]], [j[2]], *pt) == [0]


def test_maxwell_constants():
    ws = WarpedSector(SectorLabel(Family.SCALAR, 0), EUCLIDEAN)
    act = ws.apply_radial(0, maxwell=True)
    for pt in EUCLID_POINTS:
        assert act([1], [0], [0], *pt) == [0]
    # gravity scalar operator does NOT kill constants (zeroth term -6)
    actg = ws.apply_radial(0)
    assert actg([1], [0], [0], Q(1), Q(0)) == [-6]


def test_metric_is_minus6_eigentensor():
    # D2 (u0 * g) = (D0 u0) g; with u0 = 1 this gives D2 g = -6 g
    ws = WarpedSector(SectorLabel(Family.SCALAR, 0), EUCLIDEAN)
    act2 = ws.apply_radial(2)
    act0 = ws.apply_radial(0)
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
    act2 = ws.apply_radial(2)
    act0 = ws.apply_radial(0)
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
        act1 = ws.apply_radial(1)
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
            lhs = cfm_add(cfm_mul(w, m1, sig), cfm_mul(cfm_transpose(m1), w, sig))
            rhs = cfm_scale(wp, -2)
            assert lhs == rhs, (sec, rank, "first-order self-adjointness")
            # condition 2
            lhs2 = cfm_add(cfm_mul(w, m0, sig),
                           cfm_scale(cfm_mul(cfm_transpose(m0), w, sig), -1))
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
    order = SERIES_ORDER + 6
    for mat in (system.m1, system.m0):
        for row in mat:
            for entry in row:
                got = cf_series_pole(entry, order)
                ref = _cf_series_pole_reference(entry, order)
                assert (got.off, got.c) == (ref.off, ref.c), (spec, entry)
