from fractions import Fraction

import pytest

from dsvac.harmonics import (
    gram_quadrature_scalar,
    harmonic_oracle,
    monomials,
    p_mul,
    sphere_integral,
)
from dsvac.sectors import Family, SectorLabel, gram_matrix

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
    assert g_dd == gram_matrix(sec, 1)[0][0] == lam
    if k >= 2:
        g2 = gram_matrix(sec, 2)
        assert g_hh == g2[0][0] == 2 * lam * (lam - 2)
        assert g_cross == g2[0][1] == -2 * lam
        assert g_trtr == g2[1][1] == 6
