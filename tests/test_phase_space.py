import numpy as np
import pytest

from dsvac import cauchy as cy
from dsvac.calderon import principal_angle
from dsvac.phase_space import charge_kernel_check, phase_space_sector, pi_projection
from dsvac.sectors import Family, SectorLabel, enumerate_sectors
from routes import decompose, ftt_gauge_image_route, ftt_image_route, param_labels

SECTORS = enumerate_sectors(5)


@pytest.fixture(scope="module")
def spaces():
    return {sec: phase_space_sector(sec) for sec in SECTORS}


def test_dimensions(spaces):
    dims = {str(sec): ps.dims for sec, ps in spaces.items()}
    assert dims["Scalar(0)"] == (0, 0, 0, 0, 0)
    assert dims["Scalar(1)"] == (1, 0, 1, 1, 0)
    assert dims["Scalar(3)"] == (2, 0, 2, 2, 0)
    assert dims["VectorTransverse(1)"] == (1, 0, 1, 0, 1)
    assert dims["VectorTransverse(2)"] == (2, 0, 2, 2, 0)
    assert dims["TensorTT(2)"] == (2, 2, 0, 0, 0)


def test_total_level4_dimension(spaces):
    total = sum(ps.ett4.shape[1] * sec.multiplicity for sec, ps in spaces.items())
    assert total == 6


def test_direct_sums(spaces):
    for sec, ps in spaces.items():
        if ps.ett.shape[1] == 0:
            continue
        # E_TT = E_gauge + F_TT and F_TT = F_gauge + E_4, transversally
        parts = [p for p in (ps.ett_gauge, ps.ftt_gauge, ps.ett4) if p.shape[1]]
        stacked = np.hstack(parts)
        assert stacked.shape[1] == ps.ett.shape[1]
        assert principal_angle(stacked, ps.ett) < 1e-10
        sv = np.linalg.svd(stacked, compute_uv=False)
        assert sv[-1] / sv[0] > 1e-6  # transversality margin


def test_ftt_routes_agree(spaces):
    for sec, ps in spaces.items():
        alt = ftt_image_route(sec)
        assert alt.shape[1] == ps.ftt.shape[1], sec
        if alt.shape[1]:
            assert principal_angle(alt, ps.ftt) < 1e-10, sec
        # the image of the Killing-orthogonal subspace is the STRICT gauge
        # part: in Scalar(1) it misses the trace line (which the level
        # characterization keeps)
        altg = ftt_gauge_image_route(sec)
        assert altg.shape[1] == ps.ftt_gauge_strict.shape[1], sec
        if altg.shape[1]:
            assert principal_angle(altg, ps.ftt_gauge_strict) < 1e-10, sec


def test_decompose_flags(spaces):
    ps = spaces[SectorLabel(Family.VECTOR, 1)]
    named, flags = decompose(ps, ps.ett[:, 0])
    assert flags["ett4"] and flags["ftt"]
    assert not flags["ftt_gauge"]
    ps = spaces[SectorLabel(Family.TENSOR, 2)]
    named, flags = decompose(ps, ps.ett[:, 0])
    assert flags["ett_gauge"]
    ps = spaces[SectorLabel(Family.SCALAR, 2)]
    named, flags = decompose(ps, ps.ett @ np.array([1.0, 2.0]))
    assert flags["ftt"] and flags["ftt_gauge"] and not flags["ett_gauge"]
    with pytest.raises(ValueError):
        bad = np.zeros(ps.ett.shape[0]); bad[0] = 1.0
        decompose(ps, bad)


def test_decompose_uniqueness(spaces):
    rng = np.random.default_rng(7)
    for sec in (SectorLabel(Family.SCALAR, 3), SectorLabel(Family.VECTOR, 2)):
        ps = spaces[sec]
        c = rng.normal(size=ps.ett.shape[1])
        named, _ = decompose(ps, ps.ett @ c)
        rec = ps.ett @ np.array([named[l] for l in param_labels(sec)])
        assert np.linalg.norm(rec - ps.ett @ c) < 1e-10


def test_pi_projection(spaces):
    for sec, ps in spaces.items():
        pi4 = pi_projection(sec, levels=(4,))
        if sec == SectorLabel(Family.VECTOR, 1):
            assert np.max(np.abs(pi4)) == 0
            assert np.max(np.abs(pi4 @ ps.ett4)) == 0
        else:
            assert np.max(np.abs(pi4 - np.eye(len(pi4)))) == 0
        pi34 = pi_projection(sec)
        if sec in (SectorLabel(Family.VECTOR, 1), SectorLabel(Family.SCALAR, 1)):
            assert np.max(np.abs(pi34)) == 0
        else:
            assert np.max(np.abs(pi34 - np.eye(len(pi34)))) == 0


def test_pi_intertwines_gauge_block(spaces):
    # the rank-2 and rank-1 spectral projections intertwine with the gauge
    # block: pi2 K21 = K21 pi1 (both kill exactly the same sectors)
    for sec in spaces:
        k21 = cy.lorentz_gauge_blocks(sec, "sym_grad")["sym_grad"]
        if k21.size == 0:
            continue
        for levels in ((4,), (3, 4)):
            lhs = pi_projection(sec, levels) @ k21
            rhs = k21 @ pi_projection(sec, levels, rank=1)
            assert np.max(np.abs(lhs - rhs)) == 0.0, (sec, levels)


def test_strict_gauge_part(spaces):
    # the strictly invariant gauge part drops the Scalar(1) trace line
    for sec, ps in spaces.items():
        if sec == SectorLabel(Family.SCALAR, 1):
            assert ps.ftt_gauge.shape[1] == 1
            assert ps.ftt_gauge_strict.shape[1] == 0
            assert ps.ett3.shape[1] == 1
        else:
            assert ps.ftt_gauge_strict.shape[1] == ps.ftt_gauge.shape[1]
            assert ps.ett3.shape[1] == 0


def test_charge_kernel(spaces):
    for sec, ps in spaces.items():
        if ps.ett.shape[1] == 0:
            continue
        rep = charge_kernel_check(ps)
        assert rep["kernel_dim"] == ps.ftt.shape[1], sec
        assert rep["kernel_angle"] < 1e-10, sec
        if sec.family is Family.TENSOR:
            assert rep["quotient_sv"] is not None and rep["quotient_sv"] > 1e-6


def test_charge_kernel_at_large_k():
    # all of E_TT is charge-null here; on the raw columns the compressed
    # form's singular values (~1e-10) passed the absolute rank cut as noise
    ps = phase_space_sector(SectorLabel(Family.SCALAR, 19))
    rep = charge_kernel_check(ps)
    assert rep["kernel_dim"] == ps.ftt.shape[1] == ps.ett.shape[1]
    assert rep["kernel_angle"] < 1e-10
