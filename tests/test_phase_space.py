import re

import numpy as np
import pytest

from dsvac import cauchy as cy
from dsvac import maxwell, phase_space
from dsvac.calderon import principal_angle
from dsvac.phase_space import charge_kernel_check, phase_space_sector
from dsvac.sectors import Family, SectorLabel, enumerate_sectors
from routes import decompose, ftt_gauge_image_route, ftt_image_route, param_labels, pi_projection

SECTORS = enumerate_sectors(5)


@pytest.fixture(scope="module")
def spaces():
    return {sec: phase_space_sector(sec) for sec in SECTORS}


def _dim_fixture(sector):
    """Hand-audited dimensions (E_TT, E_gauge, F_TT, F_gauge, E_4)."""
    fam, k = sector.family, sector.k
    if fam is Family.TENSOR:
        return (2, 2, 0, 0, 0)
    if fam is Family.SCALAR:
        if k == 0:
            return (0, 0, 0, 0, 0)
        if k == 1:
            return (1, 0, 1, 1, 0)
        return (2, 0, 2, 2, 0)
    if k == 1:
        return (1, 0, 1, 0, 1)
    return (2, 0, 2, 2, 0)


def test_dimensions(spaces):
    dims = {str(sec): ps.dims for sec, ps in spaces.items()}
    assert dims["Scalar(0)"] == (0, 0, 0, 0, 0)
    assert dims["Scalar(1)"] == (1, 0, 1, 1, 0)
    assert dims["Scalar(3)"] == (2, 0, 2, 2, 0)
    assert dims["VectorTransverse(1)"] == (1, 0, 1, 0, 1)
    assert dims["VectorTransverse(2)"] == (2, 0, 2, 2, 0)
    assert dims["TensorTT(2)"] == (2, 2, 0, 0, 0)
    for sec, ps in spaces.items():
        assert ps.dims == _dim_fixture(sec), sec


# (module whose entry point calls the builder, entry point, theory, sector)
_BUILDERS = [
    (phase_space, phase_space_sector, cy.GRAVITY, SectorLabel(Family.SCALAR, 2)),
    (phase_space, phase_space_sector, cy.GRAVITY, SectorLabel(Family.VECTOR, 1)),
    (maxwell, maxwell.maxwell_phase_space, cy.MAXWELL, SectorLabel(Family.SCALAR, 2)),
    (maxwell, maxwell.maxwell_phase_space, cy.MAXWELL, maxwell.SCALAR0),
]


def _guard_message(theory, sector):
    return f"{theory.name} phase space of {re.escape(str(sector))}"


@pytest.mark.parametrize("module, build, theory, sector", _BUILDERS)
def test_a_column_off_e_names_theory_and_sector(module, build, theory, sector,
                                                 monkeypatch):
    # push every column along a unit vector that a constraint row reads
    rows = [row for name in theory.constraints
            for row in cy.data_block(sector, name, theory.maxwell)]
    j = next(j for row in rows for j, v in enumerate(row) if v)
    real = phase_space._build_phase_space

    def pushed(sec, th, columns):
        return real(sec, th, [(role, [x + (1 if i == j else 0) for i, x in enumerate(col)])
                              for role, col in columns])

    monkeypatch.setattr(module, "_build_phase_space", pushed)
    with pytest.raises(RuntimeError,
                       match=_guard_message(theory, sector) + ": a .* column leaves E"):
        build(sector)


@pytest.mark.parametrize("module, build, theory, sector", _BUILDERS)
def test_a_column_count_off_the_null_space_names_theory_and_sector(
        module, build, theory, sector, monkeypatch):
    real = phase_space._build_phase_space
    for change in (lambda cols: cols[:-1], lambda cols: cols + cols[:1]):
        monkeypatch.setattr(module, "_build_phase_space",
                            lambda sec, th, cols: real(sec, th, change(cols)))
        with pytest.raises(RuntimeError, match=_guard_message(theory, sector)
                           + r": \d+ columns for E of dimension \d+"):
            build(sector)


def test_total_level4_dimension(spaces):
    total = sum(ps.e_bad.shape[1] * sec.multiplicity for sec, ps in spaces.items())
    assert total == 6


def test_direct_sums(spaces):
    for sec, ps in spaces.items():
        if ps.e_space.shape[1] == 0:
            continue
        # E_TT = E_gauge + F_TT and F_TT = F_gauge + E_4, transversally
        parts = [p for p in (ps.e_gauge, ps.f_gauge, ps.e_bad) if p.shape[1]]
        stacked = np.hstack(parts)
        assert stacked.shape[1] == ps.e_space.shape[1]
        assert principal_angle(stacked, ps.e_space) < 1e-10
        sv = np.linalg.svd(stacked, compute_uv=False)
        assert sv[-1] / sv[0] > 1e-6  # transversality margin


def test_ftt_routes_agree(spaces):
    for sec, ps in spaces.items():
        alt = ftt_image_route(sec)
        assert alt.shape[1] == ps.f_space.shape[1], sec
        if alt.shape[1]:
            assert principal_angle(alt, ps.f_space) < 1e-10, sec
        # the image of the Killing-orthogonal subspace is the STRICT gauge
        # part: in Scalar(1) it misses the trace line (which the level
        # characterization keeps)
        altg = ftt_gauge_image_route(sec)
        assert altg.shape[1] == ps.f_gauge_strict.shape[1], sec
        if altg.shape[1]:
            assert principal_angle(altg, ps.f_gauge_strict) < 1e-10, sec


def test_decompose_flags(spaces):
    ps = spaces[SectorLabel(Family.VECTOR, 1)]
    named, flags = decompose(ps, ps.e_space[:, 0])
    assert flags["e_bad"] and flags["f_space"]
    assert not flags["f_gauge"]
    ps = spaces[SectorLabel(Family.TENSOR, 2)]
    named, flags = decompose(ps, ps.e_space[:, 0])
    assert flags["e_gauge"]
    ps = spaces[SectorLabel(Family.SCALAR, 2)]
    named, flags = decompose(ps, ps.e_space @ np.array([1.0, 2.0]))
    assert flags["f_space"] and flags["f_gauge"] and not flags["e_gauge"]
    with pytest.raises(ValueError):
        bad = np.zeros(ps.e_space.shape[0]); bad[0] = 1.0
        decompose(ps, bad)


def test_decompose_uniqueness(spaces):
    rng = np.random.default_rng(7)
    for sec in (SectorLabel(Family.SCALAR, 3), SectorLabel(Family.VECTOR, 2)):
        ps = spaces[sec]
        c = rng.normal(size=ps.e_space.shape[1])
        named, _ = decompose(ps, ps.e_space @ c)
        rec = ps.e_space @ np.array([named[l] for l in param_labels(sec)])
        assert np.linalg.norm(rec - ps.e_space @ c) < 1e-10


def test_pi_projection(spaces):
    for sec, ps in spaces.items():
        pi4 = pi_projection(sec, levels=(4,))
        if sec == SectorLabel(Family.VECTOR, 1):
            assert np.max(np.abs(pi4)) == 0
            assert np.max(np.abs(pi4 @ ps.e_bad)) == 0
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
            assert ps.f_gauge.shape[1] == 1
            assert ps.f_gauge_strict.shape[1] == 0
            assert ps.e_trace.shape[1] == 1
        else:
            assert ps.f_gauge_strict.shape[1] == ps.f_gauge.shape[1]
            assert ps.e_trace.shape[1] == 0


def test_charge_kernel(spaces):
    for sec, ps in spaces.items():
        rep = charge_kernel_check(ps)
        assert rep["kernel_dim"] == ps.f_space.shape[1], sec
        assert rep["kernel_angle"] < 1e-10, sec
        if sec.family is Family.TENSOR:
            assert rep["quotient_sv"] is not None and rep["quotient_sv"] > 1e-6


def test_charge_kernel_at_large_k():
    # all of E_TT is charge-null here; on the raw columns the compressed
    # form's singular values (~1e-10) passed the absolute rank cut as noise
    ps = phase_space_sector(SectorLabel(Family.SCALAR, 19))
    rep = charge_kernel_check(ps)
    assert rep["kernel_dim"] == ps.f_space.shape[1] == ps.e_space.shape[1]
    assert rep["kernel_angle"] < 1e-10
