import itertools
from fractions import Fraction
from math import factorial

import pytest

from dsvac import harmonics
from dsvac import rational as rl
from dsvac.harmonics import harmonic_oracle, p_diff, p_scale
from dsvac.sectors import Family, SectorLabel, space
from routes import (
    gram_quadrature_scalar,
    harmonic_oracle_fractions,
    mono_integral,
    p_mul,
    sphere_integral,
)

Q = Fraction


def test_sphere_integrals():
    one = {(0, 0, 0, 0): Q(1)}
    assert sphere_integral(one) == 1  # units of 2*pi^2
    x1sq = {(2, 0, 0, 0): Q(1)}
    assert sphere_integral(x1sq) == Q(1, 4)
    assert sphere_integral({(1, 0, 0, 0): Q(1)}) == 0
    # sum x_i^2 integrates like 1
    r2 = {tuple(2 if i == j else 0 for i in range(4)): Q(1) for j in range(4)}
    assert sphere_integral(r2) == 1


@pytest.mark.parametrize(
    "k,eig,mult",
    [(0, 0, 1), (1, 3, 4), (2, 8, 9), (3, 15, 16)],
)
def test_scalar_levels(k, eig, mult):
    real = harmonic_oracle(k, Family.SCALAR)
    assert real.eigenvalue == eig
    assert real.multiplicity == mult


@pytest.mark.parametrize("k,eig,mult", [(1, 4, 6), (2, 9, 16), (3, 16, 30)])
def test_vector_levels(k, eig, mult):
    real = harmonic_oracle(k, Family.VECTOR)
    assert real.eigenvalue == eig
    assert real.multiplicity == mult
    assert real.transversality == 0


@pytest.mark.parametrize("k,eig,mult", [(2, 12, 10), (3, 19, 24)])
def test_tensor_levels(k, eig, mult):
    real = harmonic_oracle(k, Family.TENSOR)
    assert real.eigenvalue == eig
    assert real.multiplicity == mult
    assert real.transversality == 0


def test_multiplicity_formula_matches_oracle():
    for fam, ks in ((Family.SCALAR, (0, 1, 2, 3)), (Family.VECTOR, (1, 2, 3)),
                    (Family.TENSOR, (2, 3))):
        for k in ks:
            assert harmonic_oracle(k, fam).multiplicity == SectorLabel(fam, k).multiplicity


@pytest.mark.parametrize("fam,k", [(Family.TENSOR, 1), (Family.VECTOR, 0),
                                   (Family.SCALAR, -1), (Family.SCALAR, 4)])
def test_oracle_rejects_levels_out_of_range(fam, k):
    # below the family minimum there is no harmonic; above 3 is off desk scale
    with pytest.raises(ValueError):
        harmonic_oracle(k, fam)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_gram_cross_check(k):
    g_dd, g_hh, g_cross, g_trtr = gram_quadrature_scalar(k)
    sec = SectorLabel(Family.SCALAR, k)
    lam = sec.eigenvalue
    assert g_dd == space(sec).gram(1)[0][0] == lam
    if k >= 2:
        g2 = space(sec).gram(2)
        assert g_hh == g2[0][0] == 2 * lam * (lam - 2)
        assert g_cross == g2[0][1] == -2 * lam
        assert g_trtr == g2[1][1] == 6


# -- reference copies of the unfactored projector and the product quadrature --

_PI_REFERENCE = [[rl.accumulate({(0, 0, 0, 0): Q(1)} if i == j else {},
                                [(tuple(int(n == i) + int(n == j) for n in range(4)), Q(-1))])
                  for j in range(4)] for i in range(4)]


def _sphere_integral_reference(p):
    total = Q(0)
    for a, c in p.items():
        if any(e % 2 for e in a):
            continue
        m = [e // 2 for e in a]
        num = Q(1)
        for mi in m:
            num *= Q(factorial(2 * mi), 4 ** mi * factorial(mi))
        total += c * num / factorial(sum(m) + 1)
    return total


def _project_reference(t, rank):
    for s in range(rank):
        out = {}
        for idx in itertools.product(range(4), repeat=rank):
            acc = {}
            for a in range(4):
                src = t.get(idx[:s] + (a,) + idx[s + 1:])
                if src:
                    rl.accumulate(acc, p_mul(_PI_REFERENCE[idx[s]][a], src).items())
            out[idx] = acc
        t = out
    return t


def _sym_grad_reference(u, rank):
    d = _project_reference({(i,) + idx: p_diff(p, i) for idx, p in u.items()
                            for i in range(4)}, rank + 1)
    perms = list(itertools.permutations(range(rank + 1)))
    sym = {}
    for idx in d:
        acc = {}
        for perm in perms:
            rl.accumulate(acc, d[tuple(idx[p] for p in perm)].items())
        sym[idx] = p_scale(acc, Q(1, len(perms)))
    return sym, d


def _norm2_reference(t, rank):
    acc = {}
    for p in t.values():
        if p:
            rl.accumulate(acc, p_mul(p, p).items())
    return factorial(rank) * _sphere_integral_reference(acc)


# the library's sphere moments are integers over this one denominator
MOMENT_DENOM = 4 ** harmonics._MOMENT_TOP * factorial(harmonics._MOMENT_TOP + 1)


def _sym_grad_reference_unscaled(u, rank):
    # the library sums the orderings without dividing by their number
    sym, d = _sym_grad_reference(u, rank)
    return {idx: p_scale(p, factorial(rank + 1)) for idx, p in sym.items()}, d


def _norm2_reference_scaled(t, rank):
    return MOMENT_DENOM * _norm2_reference(t, rank)


@pytest.mark.parametrize("fam,k,rank", [(Family.VECTOR, 3, 1), (Family.TENSOR, 2, 2)])
def test_realization_equals_reference(fam, k, rank, monkeypatch):
    real = harmonic_oracle(k, fam)
    for u in real.elements:
        sym, d = harmonics._sym_grad(u, rank)
        ref_sym, ref_d = _sym_grad_reference_unscaled(u, rank)
        assert sym == ref_sym
        assert d == ref_d
        assert harmonics._norm2(u, rank) == _norm2_reference_scaled(u, rank)
        assert harmonics._norm2(sym, rank + 1) == _norm2_reference_scaled(sym, rank + 1)
    monkeypatch.setattr(harmonics, "_sym_grad", _sym_grad_reference_unscaled)
    monkeypatch.setattr(harmonics, "_norm2", _norm2_reference_scaled)
    ref = harmonic_oracle(k, fam)
    assert real.elements == ref.elements
    assert (type(real.eigenvalue), real.eigenvalue) == (type(ref.eigenvalue), ref.eigenvalue)
    assert (type(real.transversality), real.transversality) == (
        type(ref.transversality), ref.transversality)


NINE_SECTORS = [(Family.SCALAR, k) for k in range(4)] + [
    (Family.VECTOR, k) for k in range(1, 4)] + [(Family.TENSOR, k) for k in (2, 3)]


def _exact_rank(elements):
    """Exact rank of a set of polynomial tensors, as vectors of their
    (index, monomial) coefficients: the number of elements less the
    dimension of the null space of the matrix with one column per element."""
    rows = {}
    for col, u in enumerate(elements):
        for idx, p in u.items():
            for a, c in p.items():
                rows.setdefault((idx, a), {})[col] = c
    return len(elements) - len(rl.nullspace(list(rows.values()), len(elements)))


@pytest.mark.parametrize("fam,k", NINE_SECTORS)
def test_integer_oracle_equals_fraction_route(fam, k):
    real = harmonic_oracle(k, fam)
    ref = harmonic_oracle_fractions(k, fam)
    assert (type(real.eigenvalue), real.eigenvalue) == (type(ref.eigenvalue), ref.eigenvalue)
    assert (type(real.transversality), real.transversality) == (
        type(ref.transversality), ref.transversality)
    assert real.multiplicity == ref.multiplicity
    rank = _exact_rank(real.elements)
    assert rank == _exact_rank(ref.elements) == real.multiplicity
    assert _exact_rank(real.elements + ref.elements) == rank


def test_oracle_computes_on_ints():
    # the integer oracle is the speed-up: no Fraction creeps back into a
    # coefficient of an element, a symmetrized gradient or a sphere moment
    def coefficients(t):
        return [c for p in t.values() for c in p.values()]

    for fam, k in NINE_SECTORS:
        rank = harmonics._RANK[fam]
        for u in harmonic_oracle(k, fam).elements:
            sym, d = harmonics._sym_grad(u, rank)
            for t in (u, sym, d):
                assert all(type(c) is int for c in coefficients(t))
    top = 2 * harmonics._MOMENT_TOP
    for deg in range(top + 1):
        for a in harmonics.monomials(deg):
            moment = harmonics._moment(a)
            assert type(moment) is int
            assert Q(moment, MOMENT_DENOM) == mono_integral(a)
