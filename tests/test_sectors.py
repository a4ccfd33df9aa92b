from fractions import Fraction

import numpy as np
import pytest

from dsvac.sectors import Family, SectorLabel, SectorSpace, enumerate_sectors, space
from routes import eye, spatial_op, transpose

Q = Fraction


def test_enumerate_minima():
    assert enumerate_sectors(0) == [SectorLabel(Family.SCALAR, 0)]
    assert enumerate_sectors(1) == [
        SectorLabel(Family.SCALAR, 0),
        SectorLabel(Family.SCALAR, 1),
        SectorLabel(Family.VECTOR, 1),
    ]
    # family minima give Scalar 0..2, Vector 1..2, TensorTT 2
    labels = enumerate_sectors(2)
    assert len(labels) == 6
    assert SectorLabel(Family.TENSOR, 2) in labels


def test_family_minima_enforced():
    with pytest.raises(ValueError):
        SectorLabel(Family.VECTOR, 0)
    with pytest.raises(ValueError):
        SectorLabel(Family.TENSOR, 1)


def test_eigenvalues():
    assert SectorLabel(Family.SCALAR, 2).eigenvalue == 8
    assert SectorLabel(Family.VECTOR, 1).eigenvalue == 4
    assert SectorLabel(Family.TENSOR, 2).eigenvalue == 12


def test_degenerate_bases():
    # k=0 scalar loses dY and ddY, k=1 scalar loses ddY, k=1 vector loses dV
    assert space(SectorLabel(Family.SCALAR, 0)).basis[1] == ()
    assert space(SectorLabel(Family.SCALAR, 0)).basis[2] == ("hY",)
    assert space(SectorLabel(Family.SCALAR, 1)).basis[2] == ("hY",)
    assert space(SectorLabel(Family.SCALAR, 2)).basis[2] == ("ddY", "hY")
    assert space(SectorLabel(Family.VECTOR, 1)).basis[2] == ()
    assert space(SectorLabel(Family.VECTOR, 2)).basis[2] == ("dV",)


def test_rank3_degeneracies():
    # exact Gram reduction discovers: dddY = -hdY at k=1, dddY = -4 hdY at
    # k=2, ddV = -hV at k=2, dT = 0 at k=2
    s1 = space(SectorLabel(Family.SCALAR, 1))
    assert s1.basis[3] == ("hdY",)
    assert s1._rewrite[3]["dddY"] == {"hdY": Q(-1)}
    s2 = space(SectorLabel(Family.SCALAR, 2))
    assert s2.basis[3] == ("hdY",)
    assert s2._rewrite[3]["dddY"] == {"hdY": Q(-4)}
    v2 = space(SectorLabel(Family.VECTOR, 2))
    assert v2.basis[3] == ("hV",)
    assert v2._rewrite[3]["ddV"] == {"hV": Q(-1)}
    t2 = space(SectorLabel(Family.TENSOR, 2))
    assert t2.basis[3] == ()
    s3 = space(SectorLabel(Family.SCALAR, 3))
    assert s3.basis[3] == ("dddY", "hdY")


def test_delta_d_scalar_eigen():
    # delta d on scalars is the Laplacian: 8 on Scalar(2)
    sec = SectorLabel(Family.SCALAR, 2)
    d = spatial_op("d", sec, 0)
    delta = spatial_op("delta", sec, 1)
    comp = delta @ d
    assert comp.rows() == [[Q(8)]]


def test_htrace_of_hY():
    # (h| (Y h) = 6 Y in every scalar sector
    for k in (0, 1, 2, 5):
        sec = SectorLabel(Family.SCALAR, k)
        ht = spatial_op("htrace", sec, 2)
        names = space(sec).basis[2]
        col = names.index("hY")
        assert ht.rows()[0][col] == 6


def test_delta_on_transverse_vector():
    sec = SectorLabel(Family.VECTOR, 1)
    delta = spatial_op("delta", sec, 1)
    assert delta.rows() == []  # rank-0 space empty in vector sector


def test_identities_exact():
    # delta(hmul(u)) = -2 d u and htrace(d w) = -2 delta w, exactly
    for k in (0, 1, 2, 3, 7):
        sec = SectorLabel(Family.SCALAR, k)
        lhs = spatial_op("delta", sec, 2) @ spatial_op("hmul", sec, 0)
        rhs = -2 * np.array(spatial_op("d", sec, 0).rows())
        assert np.array_equal(lhs.rows(), rhs)
        if k >= 1:
            lhs2 = spatial_op("htrace", sec, 2) @ spatial_op("d", sec, 1)
            rhs2 = -2 * np.array(spatial_op("delta", sec, 1).rows())
            assert np.array_equal(lhs2.rows(), rhs2)


def test_triple_d_identity():
    # delta d d = 2 d (D0L - 2) on scalars (rank-consistent reading of the
    # third sphere identity); at k=3 the factor is 2*(15-2) = 26
    for k in (2, 3, 6):
        sec = SectorLabel(Family.SCALAR, k)
        lam = sec.eigenvalue
        lhs = (
            spatial_op("delta", sec, 2)
            @ spatial_op("d", sec, 1)
            @ spatial_op("d", sec, 0)
        )
        rhs = 2 * (lam - 2) * np.array(spatial_op("d", sec, 0).rows())
        assert np.array_equal(lhs.rows(), rhs)


def test_intertwining():
    # D_{j+1,L} d = d D_{j,L} holds on every sector (diagonal here, but the
    # composition law and rank bookkeeping must agree)
    for sec in enumerate_sectors(4):
        for rank in (0, 1, 2):
            try:
                d = spatial_op("d", sec, rank)
            except ValueError:
                continue
            lhs = spatial_op("lich", sec, rank + 1) @ d
            rhs = d @ spatial_op("lich", sec, rank)
            assert lhs.rows() == rhs.rows()


def test_commutator_rank1():
    # delta d - d delta = D1L - 4 on 1-forms
    for sec in enumerate_sectors(5):
        sp = space(sec)
        if sp.dim(1) == 0:
            continue
        dd = spatial_op("delta", sec, 2) @ spatial_op("d", sec, 1)
        if sp.dim(0) > 0:
            ddag = spatial_op("d", sec, 0) @ spatial_op("delta", sec, 1)
            comm = np.array(dd.rows()) - np.array(ddag.rows())
        else:
            comm = np.array(dd.rows())
        assert np.array_equal(comm, (sec.eigenvalue - 4) * eye(sp.dim(1)))


def test_gram_properties():
    for sec in enumerate_sectors(6):
        sp = space(sec)
        for rank in range(3):
            g = space(sec).gram(rank)
            n = sp.dim(rank)
            if n == 0:
                continue
            assert g == transpose(g)
            # positive definite via leading principal minors
            for m in range(1, n + 1):
                sub = [row[:m] for row in g[:m]]
                det = _det(sub)
                assert det > 0


def _det(a):
    n = len(a)
    if n == 1:
        return a[0][0]
    work = [list(r) for r in a]
    det = Q(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if work[i][c] != 0), None)
        if piv is None:
            return Q(0)
        if piv != c:
            work[c], work[piv] = work[piv], work[c]
            det = -det
        det *= work[c][c]
        for i in range(c + 1, n):
            f = work[i][c] / work[c][c]
            work[i] = [x - f * y for x, y in zip(work[i], work[c])]
    return det


def test_gram_adjunction():
    # Gram-adjoint of d equals delta exactly: G_{r+1} d = (delta G...)^T,
    # i.e. (d u | v) = (u | delta v)
    for sec in enumerate_sectors(5):
        sp = space(sec)
        for rank in (0, 1, 2):
            if sp.dim(rank) == 0 or sp.dim(rank + 1) == 0:
                continue
            d = np.array(spatial_op("d", sec, rank).rows())
            delta = np.array(spatial_op("delta", sec, rank + 1).rows())
            lhs = d.T @ np.array(space(sec).gram(rank + 1))
            rhs = np.array(space(sec).gram(rank)) @ delta
            assert np.array_equal(lhs, rhs)


def test_inapplicable_operator_pairs():
    sec = SectorLabel(Family.SCALAR, 2)
    with pytest.raises(ValueError):
        spatial_op("hmul", sec, 1)  # |h) only acts on rank 0
    with pytest.raises(ValueError):
        spatial_op("delta", sec, 0)  # nothing below rank 0
    with pytest.raises(ValueError):
        spatial_op("nonsense", sec, 1)


def test_multiplicities_low_k():
    assert SectorLabel(Family.SCALAR, 0).multiplicity == 1
    assert SectorLabel(Family.SCALAR, 1).multiplicity == 4
    assert SectorLabel(Family.SCALAR, 2).multiplicity == 9
    assert SectorLabel(Family.VECTOR, 1).multiplicity == 6
    assert not SectorLabel(Family.SCALAR, 4).multiplicity_verified


@pytest.mark.parametrize("sector", [SectorLabel(Family.SCALAR, 3),
                                    SectorLabel(Family.VECTOR, 2)], ids=str)
def test_operator_matrices_are_built_once_and_immutable(sector):
    sp = space(sector)
    for name, rank in (("d", 0), ("d", 1), ("d", 2), ("delta", 1),
                       ("delta", 2), ("htrace", 2), ("hmul", 0), ("hsym", 1)):
        mat, tr = sp.op(name, rank)
        assert sp.op(name, rank)[0] is mat
        assert isinstance(mat, tuple) and all(isinstance(r, tuple) for r in mat)
        assert SectorSpace(sector).op(name, rank) == (mat, tr)
