"""Batch verification driver: configuration, execution plan, reports.

Every enabled suite emits one record per check per applicable sector, each
tagged with the claim it certifies.  Reports are deterministic for a given
build and configuration (fixed sector order, fixed seeds); the timestamp and
runtime fields are the only volatile entries and are ignored by the diff.
"""

import json
import platform
import random
import sys
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from . import __version__
from . import rational as rl
from . import cauchy as cy
from .calderon import (
    calderon_invertible,
    calderon_quotient,
    lorentzify,
    principal_angle,
    quotient_matrices,
)
from .collocation import collocation_regular_basis
from .harmonics import harmonic_oracle
from .maxwell import (
    SCALAR0,
    maxwell_charge_kernel,
    maxwell_compressed_extrema,
    maxwell_covariances,
    maxwell_full_gauge_residual,
    maxwell_phase_space,
    maxwell_projector_pair,
    maxwell_rank0_pair,
    maxwell_sectors,
    maxwell_sum_rule_residual,
    spectra_disjoint,
)
from .phase_space import charge_kernel_check, phase_space_sector
from .radial import build_system, charge_raw, evolve_raw, regular_basis
from .sectors import Family, SectorLabel, enumerate_sectors
from .states import (
    alpha_unitarity_residual,
    build_covariances,
    compressed_extrema,
    full_gauge_residual,
    gauge_pairing_residual,
    hermiticity_residual,
    norm_squared,
    racah_antiunitarity_residual,
    sum_rule_residual,
    time_reversal_residual,
    tt_energy_quadrature,
    wigner_involution_residual,
)
from .warped import EUCLIDEAN, LORENTZIAN, WarpedSector

SCHEMA_VERSION = 1
ALL_SUITES = ("identities", "calderon", "phase_space", "states", "gauge",
              "symmetry", "maxwell", "oracle")
KILLING_SECTORS = (SectorLabel(Family.SCALAR, 1), SectorLabel(Family.VECTOR, 1))


@dataclass
class RunConfig:
    k_max: int = 12
    tol_verdict: float = 1e-9
    tol_linear_algebra: float = 1e-12
    tol_ode: float = 1e-12
    margin: float = 1e-6
    suites: tuple = ALL_SUITES
    alpha_values: tuple = (0.3, 1.0)
    k_dynamics: int = 8
    seed: int = 2026
    jobs: int = 1
    output: str = ""
    fmt: str = "json"

    def validate(self):
        if self.k_max < 0:
            raise ValueError("k_max must be >= 0")
        gravity = set(self.suites) - {"maxwell", "oracle"}
        if gravity and self.k_max < 2:
            raise ValueError("k_max >= 2 required when gravity suites are enabled")
        unknown = set(self.suites) - set(ALL_SUITES)
        if unknown:
            raise ValueError(f"unknown suites: {sorted(unknown)}")
        if self.fmt not in ("json", "csv"):
            raise ValueError(f"unknown format {self.fmt!r}")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")


@dataclass
class CheckRecord:
    suite: str
    check_id: str
    claim: str
    sector: str
    residual: float
    verdict: str  # pass | fail | structural | skipped
    runtime: float = 0.0
    extra: dict = field(default_factory=dict)


class _Collector:
    def __init__(self):
        self.records = []
        self._t0 = time.perf_counter()

    def add(self, suite, check_id, claim, sector, residual, ok, extra=None):
        now = time.perf_counter()
        dt, self._t0 = now - self._t0, now
        self.records.append(CheckRecord(
            suite, check_id, claim, str(sector), _f(residual),
            "pass" if ok else "fail", round(dt, 6), extra or {}))

    def structural(self, suite, check_id, claim, sector, note):
        self.records.append(CheckRecord(suite, check_id, claim, str(sector),
                                        0.0, "structural", 0.0, {"note": note}))


def _f(x):
    return float(x) if x is not None else 0.0


def _build_pair_task(args):
    """Worker entry for the sector pool (module level for pickling)."""
    kind, sec, tol = args
    if kind == "pair2":
        return kind, sec, calderon_invertible(sec, "D2", tol=tol)
    if sec in KILLING_SECTORS:
        return kind, sec, calderon_quotient(sec, "D1", tol=tol)
    return kind, sec, calderon_invertible(sec, "D1", tol=tol)


class _Artifacts:
    """Shared per-sector constructions, built lazily and cached.

    With ``jobs > 1`` the projector constructions (the dominant cost) are
    dispatched up front to a process pool, one task per (operator, sector);
    the library objects are immutable, so results are simply collected.
    """

    def __init__(self, config):
        self.config = config
        self.sectors = enumerate_sectors(config.k_max)
        self._cache = {}
        if config.jobs > 1:
            self._prewarm(config.jobs)

    def _prewarm(self, jobs):
        from concurrent.futures import ProcessPoolExecutor
        tasks = [("pair2", sec, self.config.tol_ode) for sec in self.sectors]
        tasks += [("pair1", sec, self.config.tol_ode) for sec in self.sectors
                  if cy.DataLayout(sec, 1).size]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for kind, sec, pair in pool.map(_build_pair_task, tasks):
                self._cache[("pair2e" if kind == "pair2" else "pair1", sec)] = pair

    def pair2(self, sec):
        return self._get(("pair2", sec), lambda: lorentzify(self.pair2_euclid(sec)))

    def pair2_euclid(self, sec):
        return self._get(("pair2e", sec), lambda: calderon_invertible(
            sec, "D2", tol=self.config.tol_ode))

    def pair1(self, sec):
        def make():
            if sec in KILLING_SECTORS:
                return calderon_quotient(sec, "D1", tol=self.config.tol_ode)
            return calderon_invertible(sec, "D1", tol=self.config.tol_ode)
        return self._get(("pair1", sec), make)

    def space(self, sec):
        return self._get(("ps", sec), lambda: phase_space_sector(sec))

    def cov(self, sec, variant="euclidean_vacuum", alpha=0.0):
        return self._get(("cov", sec, variant, alpha), lambda: build_covariances(
            sec, variant, alpha=alpha, projector_pair=self.pair2(sec)))

    def _get(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]


# -- suites -------------------------------------------------------------------

def _suite_oracle(art, col, cfg):
    expected = {
        (Family.SCALAR, 0): (0, 1), (Family.SCALAR, 1): (3, 4),
        (Family.SCALAR, 2): (8, 9), (Family.SCALAR, 3): (15, 16),
        (Family.VECTOR, 1): (4, 6), (Family.VECTOR, 2): (9, 16),
        (Family.VECTOR, 3): (16, 30),
        (Family.TENSOR, 2): (12, 10), (Family.TENSOR, 3): (19, 24),
    }
    for (fam, k), (eig, mult) in sorted(expected.items(), key=lambda x: (x[0][0], x[0][1])):
        real = harmonic_oracle(k, fam)
        rel = abs(float(real.eigenvalue) - eig) / max(eig, 1)
        ok = rel <= 1e-10 and real.multiplicity == mult
        col.add("oracle", "harmonic-eigenvalue", "harmonic-spectra",
                SectorLabel(fam, k), rel, ok,
                {"eigenvalue": float(real.eigenvalue),
                 "multiplicity": real.multiplicity,
                 "multiplicity_formula": SectorLabel(fam, k).multiplicity})
    for sec in art.sectors:
        if not sec.multiplicity_verified:
            col.structural("oracle", "multiplicity-formula", "harmonic-spectra", sec,
                           "closed formula unverified beyond desk scale")
            break
    # method independence: collocation versus Frobenius on random sectors
    rng = random.Random(cfg.seed)
    candidates = [(s, "D2", False) for s in art.sectors]
    candidates += [(s, "D1", True) for s in maxwell_sectors(cfg.k_max)
                   if cy.DataLayout(s, 1).size]
    picks = rng.sample(candidates, min(5, len(candidates)))
    for sec, op, mx in picks:
        system = build_system(op, sec, EUCLIDEAN, maxwell=mx)
        frob = regular_basis(system, tol=cfg.tol_ode).data_matrix
        coll, gap = collocation_regular_basis(system)
        ang = principal_angle(frob, coll)
        col.add("oracle", f"method-independence-{op}{'M' if mx else ''}",
                "method-independence", sec, ang, ang <= 1e-9,
                {"spectral_gap": float(gap)})


def _suite_identities(art, col, cfg):
    # exact operator identities (already rational-exact; assert and record)
    worst = 0.0
    for sec in art.sectors:
        k21 = cy.sym_grad_block(sec)
        kdag = cy.sym_div_block(sec)
        z = rl.matmul(kdag, k21)
        worst = max(worst, max((abs(float(v)) for row in z for v in row),
                               default=0.0))
    col.add("identities", "gauge-complex", "gauge-complex-exactness", "-", worst,
            worst == 0.0)
    worst = 0.0
    for sec in art.sectors:
        lhs = rl.matmul(cy.neg_trace_block(sec), cy.sym_grad_block(sec))
        rhs = rl.scale(cy.div_block(sec), -2)
        diff = rl.sub(lhs, rhs) if lhs else []
        worst = max(worst, max((abs(float(v)) for row in diff for v in row),
                               default=0.0))
    col.add("identities", "trace-gauge-composition", "trace-gauge-relation", "-", worst,
            worst == 0.0)
    # trace-fixing identity on harmonic-gauge data (Lorentzian floats)
    worst = 0.0
    for sec in art.sectors:
        if cy.DataLayout(sec, 0).size == 0:
            continue
        blocks = cy.lorentz_gauge_blocks(sec)
        s0 = cy.trace_fix_block(sec)
        resid = blocks["neg_trace"] @ blocks["sym_grad"] @ s0 - blocks["neg_trace"]
        worst = max(worst, float(np.max(np.abs(resid))))
    col.add("identities", "trace-fixing", "trace-fixing-identity", "-", worst, worst <= 1e-8)
    # charge conservation and evolution intertwining
    rng = np.random.default_rng(cfg.seed)
    t_grid = np.linspace(-2.0, 2.0, 5)
    worst_q = 0.0
    for sec in enumerate_sectors(min(cfg.k_dynamics, cfg.k_max)):
        for op, mx in (("D2", False), ("D1", False), ("D0", False),
                       ("D1", True), ("D0", True)):
            if op == "D2" and sec.family is Family.TENSOR and sec.k < 2:
                continue
            system = build_system(op, sec, LORENTZIAN, maxwell=mx)
            if system.n == 0:
                continue
            u0 = rng.normal(size=system.n)
            du0 = rng.normal(size=system.n)
            us, dus = evolve_raw(system, u0, du0, t_grid, tol=cfg.tol_ode)
            q0 = charge_raw(system, u0 + 0j, du0 + 0j, u0 + 0j, du0 + 0j, 0.0)
            scale = max(float(np.max(np.abs(us)) ** 2 + np.max(np.abs(dus)) ** 2), 1.0)
            drift = max(abs(charge_raw(system, us[i], dus[i], us[i], dus[i], t)
                            - q0) / scale for i, t in enumerate(t_grid))
            worst_q = max(worst_q, drift)
    col.add("identities", "charge-conservation", "charge-conservation", "-",
            worst_q, worst_q <= 1e-8, {"t_max": 2.0, "k_max": cfg.k_dynamics})
    worst_i = 0.0
    for sec in (SectorLabel(Family.SCALAR, 2), SectorLabel(Family.SCALAR, 1),
                SectorLabel(Family.VECTOR, 2)):
        worst_i = max(worst_i, _intertwining_residual(sec, rng, t_grid,
                                                      cfg.tol_ode))
    col.add("identities", "gauge-evolution-intertwining", "gauge-evolution-compatibility",
            "-", worst_i, worst_i <= 1e-8)
    worst_i = _adjoint_intertwining_residual(SectorLabel(Family.SCALAR, 2),
                                             rng, t_grid, cfg.tol_ode)
    col.add("identities", "adjoint-evolution-intertwining", "adjoint-evolution-compatibility",
            "-", worst_i, worst_i <= 1e-8)


def _intertwining_residual(sector, rng, t_grid, tol):
    sys1 = build_system("D1", sector, LORENTZIAN)
    sys2 = build_system("D2", sector, LORENTZIAN)
    ws = WarpedSector(sector, LORENTZIAN)

    def k21_raw(t):
        a, adot = np.cosh(t) ** 2, np.sinh(2 * t)
        return np.array(ws.cauchy_block(
            lambda z: ws.trace_reversal(ws.d(z, 1)), 1, 2, at=(a, adot)),
            dtype=float)

    w0 = rng.normal(size=sys1.n)
    dw0 = rng.normal(size=sys1.n)
    u1, du1 = evolve_raw(sys1, w0, dw0, t_grid, tol=tol)
    raw2 = k21_raw(0.0) @ np.concatenate([w0, dw0])
    u2, du2 = evolve_raw(sys2, raw2[:sys2.n], raw2[sys2.n:], t_grid, tol=tol)
    worst = 0.0
    for i, t in enumerate(t_grid):
        lhs = k21_raw(t) @ np.concatenate([u1[i].real, du1[i].real])
        rhs = np.concatenate([u2[i].real, du2[i].real])
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def _adjoint_intertwining_residual(sector, rng, t_grid, tol):
    sys2 = build_system("D2", sector, LORENTZIAN)
    sys1 = build_system("D1", sector, LORENTZIAN)
    ws = WarpedSector(sector, LORENTZIAN)

    def kdag_raw(t):
        a, adot = np.cosh(t) ** 2, np.sinh(2 * t)
        return np.array(ws.cauchy_block(
            lambda z: ws.delta(z, 2), 2, 1, at=(a, adot)), dtype=float)

    g0 = rng.normal(size=sys2.n)
    dg0 = rng.normal(size=sys2.n)
    u2, du2 = evolve_raw(sys2, g0, dg0, t_grid, tol=tol)
    raw1 = kdag_raw(0.0) @ np.concatenate([g0, dg0])
    u1, du1 = evolve_raw(sys1, raw1[:sys1.n], raw1[sys1.n:], t_grid, tol=tol)
    worst = 0.0
    for i, t in enumerate(t_grid):
        lhs = kdag_raw(t) @ np.concatenate([u2[i].real, du2[i].real])
        rhs = np.concatenate([u1[i].real, du1[i].real])
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def _suite_calderon(art, col, cfg):
    tol = cfg.tol_verdict
    for sec in art.sectors:
        pair = art.pair2_euclid(sec)
        n2 = pair.c_plus.shape[0]
        r_sum = float(np.max(np.abs(pair.c_plus + pair.c_minus - np.eye(n2))))
        r_idem = float(max(np.max(np.abs(pair.c_plus @ pair.c_plus - pair.c_plus)),
                           np.max(np.abs(pair.c_minus @ pair.c_minus - pair.c_minus))))
        col.add("calderon", "projector-sum", "projector-algebra", sec, r_sum,
                r_sum <= 1e-10)
        col.add("calderon", "projector-idempotent", "projector-algebra", sec, r_idem,
                r_idem <= tol)
        q = rl.to_numpy(cy.charge_form(sec, 2))
        r_adj = float(np.max(np.abs(pair.c_plus.T @ q - q @ pair.c_plus)))
        col.add("calderon", "q-adjointness", "charge-adjointness", sec, r_adj, r_adj <= tol,
                {"conditioning": pair.conditioning})
    # kernel bookkeeping for the rank-1 operator
    total = 0
    for sec in KILLING_SECTORS:
        pair = art.pair1(sec)
        qi = pair.quotient_info
        total += qi.kernel.shape[1] * sec.multiplicity
        w = qi.subspace
        r_sum = float(np.max(np.abs(pair.c_plus + pair.c_minus - w)))
        cp, cm = quotient_matrices(pair)
        r_q = 0.0
        if cp.shape[0]:
            r_q = float(max(np.max(np.abs(cp + cm - np.eye(cp.shape[0]))),
                            np.max(np.abs(cp @ cp - cp))))
        ok = r_sum <= tol and r_q <= tol
        col.add("calderon", "quotient-identities", "kernel-quotient", sec,
                max(r_sum, r_q), ok,
                {"kernel_dim": qi.kernel.shape[1],
                 "domain_dim": qi.subspace.shape[1],
                 "quotient_dim": qi.quotient_dim})
    col.add("calderon", "two-sided-regular-count", "kernel-quotient", "-",
            abs(total - 10), total == 10, {"total_with_multiplicity": total})
    # gauge intertwining of the projector pairs
    worst = 0.0
    for sec in art.sectors:
        if cy.DataLayout(sec, 1).size == 0:
            continue
        pair2 = art.pair2(sec)
        pair1 = lorentzify(art.pair1(sec))
        k21 = cy.lorentz_gauge_blocks(sec)["sym_grad"]
        if pair1.quotient_info is None:
            resid = float(np.max(np.abs(pair2.c_plus @ k21 - k21 @ pair1.c_plus)))
        else:
            w = pair1.quotient_info.subspace
            resid = float(np.max(np.abs(pair2.c_plus @ (k21 @ w)
                                        - k21 @ pair1.c_plus)))
        worst = max(worst, resid)
    col.add("calderon", "projector-gauge-intertwining", "gauge-intertwining", "-",
            worst, worst <= tol)
    # large-k envelope: the Dirichlet-to-Neumann entry of the TT projector
    for k in range(max(8, 2), cfg.k_max + 1):
        sec = SectorLabel(Family.TENSOR, k)
        pair = art.pair2_euclid(sec)
        dtn = abs(pair.c_plus[1, 0])
        root = float(np.sqrt(float(sec.eigenvalue)))
        ratio = 2 * dtn / root  # c+ = [[1, ...],[nu/2...]] structure
        ok = 0.5 <= ratio <= 2.0
        col.add("calderon", "dtn-envelope", "sanity-envelope", sec,
                abs(np.log(ratio)), ok, {"ratio": ratio})


def _suite_phase_space(art, col, cfg):
    tol = cfg.tol_verdict
    total4 = 0
    for sec in art.sectors:
        ps = art.space(sec)
        total4 += ps.ett4.shape[1] * sec.multiplicity
        if ps.ett.shape[1] == 0:
            col.add("phase_space", "direct-sums", "phase-space-splitting", sec, 0.0, True,
                    {"dims": ps.dims})
            continue
        parts = [p for p in (ps.ett_gauge, ps.ftt_gauge, ps.ett4) if p.shape[1]]
        stacked = np.hstack(parts)
        ang = principal_angle(stacked, ps.ett)
        sv = np.linalg.svd(stacked, compute_uv=False)
        margin = float(sv[-1] / sv[0])
        ok = (stacked.shape[1] == ps.ett.shape[1] and ang <= 1e-10
              and margin >= cfg.margin)
        col.add("phase_space", "direct-sums", "phase-space-splitting", sec, ang, ok,
                {"dims": ps.dims, "transversality": margin})
        rep = charge_kernel_check(ps)
        ok = (rep["kernel_angle"] <= 1e-10
              and rep["kernel_dim"] == ps.ftt.shape[1])
        col.add("phase_space", "charge-kernel", "charge-kernel-theorem", sec,
                rep["kernel_angle"], ok,
                {"kernel_dim": rep.get("kernel_dim"),
                 "quotient_sv": rep.get("quotient_sv")})
    col.add("phase_space", "level-four-total", "phase-space-splitting", "-",
            abs(total4 - 6), total4 == 6, {"total_with_multiplicity": total4})


def _suite_states(art, col, cfg):
    tol = cfg.tol_verdict
    for sec in art.sectors:
        cov = art.cov(sec)
        herm = hermiticity_residual(cov)
        sr = sum_rule_residual(cov)
        col.add("states", "hermiticity", "vacuum-sum-rule", sec, herm,
                herm <= cfg.tol_linear_algebra)
        col.add("states", "sum-rule", "vacuum-sum-rule", sec, sr, sr <= 1e-10)
        ps = art.space(sec)
        if sec.family is Family.TENSOR:
            ext_p = compressed_extrema(cov, ps.ett_gauge, +1)
            ext_m = compressed_extrema(cov, ps.ett_gauge, -1)
            low = min(ext_p[0], ext_m[0])
            col.add("states", "positivity-gauge-sector", "gauge-sector-positivity", sec,
                    max(0.0, -low), low >= -tol,
                    {"min_eig": low, "max_eig": max(ext_p[1], ext_m[1])})
    sec = SectorLabel(Family.VECTOR, 1)
    ps, cov = art.space(sec), art.cov(sec)
    f = ps.ett4[:, 0]
    nrm = norm_squared(sec, f)
    vp = float(np.real(f.conj() @ cov.lambda_plus @ f))
    vm = float(np.real(f.conj() @ cov.lambda_minus @ f))
    col.add("states", "negativity-level-four", "level-four-negativity", sec,
            max(vp, vm) / nrm, vp <= tol and vm <= tol
            and (vp + vm) / nrm <= -cfg.margin,
            {"lambda_plus": vp / nrm, "lambda_minus": vm / nrm})
    energy, boundary, lam_val = tt_energy_quadrature(2, ode_tol=cfg.tol_ode)
    resid = abs(energy - boundary) / abs(boundary)
    ok = resid <= 1e-8 and abs(lam_val - boundary) <= 1e-9 * abs(boundary)
    col.add("states", "energy-quadrature", "gauge-sector-positivity", SectorLabel(Family.TENSOR, 2),
            resid, ok, {"energy": energy, "boundary": boundary})


def _suite_gauge(art, col, cfg):
    tol = cfg.tol_verdict
    worst = 0.0
    for sec in art.sectors:
        ps = art.space(sec)
        resid = gauge_pairing_residual(art.cov(sec), ps.ett, ps.ftt_gauge_strict)
        worst = max(worst, resid)
    col.add("gauge", "weak-invariance", "weak-gauge-invariance", "-", worst, worst <= tol)
    # strong invariance fails: level-four witness...
    sec = SectorLabel(Family.VECTOR, 1)
    f = art.space(sec).ett4[:, 0]
    val = abs(np.real(f.conj() @ art.cov(sec).lambda_plus @ f))
    nrm = norm_squared(sec, f)
    col.add("gauge", "strong-invariance-failure", "strong-invariance-failure", sec, val / nrm,
            val >= 1e-3 * nrm, {"pairing": val / nrm})
    # ... and the level-three anomaly: the Scalar(1) trace line also pairs
    sec3 = SectorLabel(Family.SCALAR, 1)
    f3 = art.space(sec3).ett3[:, 0]
    val3 = abs(np.real(f3.conj() @ art.cov(sec3).lambda_plus @ f3))
    nrm3 = norm_squared(sec3, f3)
    col.add("gauge", "level-three-anomaly", "strong-invariance-anomaly", sec3,
            val3 / nrm3, val3 >= 1e-3 * nrm3, {"pairing": val3 / nrm3})
    # modified vacuum: sum rule on E_TT, positivity on E_TT, full invariance
    worst_sr = worst_pos = worst_full = 0.0
    for sec in art.sectors:
        ps = art.space(sec)
        cov = art.cov(sec, "modified")
        worst_sr = max(worst_sr, sum_rule_residual(cov, on=ps.ett))
        if ps.ett.shape[1]:
            for sign in (+1, -1):
                ext = compressed_extrema(cov, ps.ett, sign)
                worst_pos = max(worst_pos, -ext[0])
        worst_full = max(worst_full, full_gauge_residual(cov, ps))
    col.add("gauge", "modified-sum-rule", "modified-sum-rule", "-", worst_sr,
            worst_sr <= 1e-10)
    col.add("gauge", "modified-positivity", "modified-positivity", "-",
            max(0.0, worst_pos), worst_pos <= tol)
    col.add("gauge", "modified-full-invariance", "modified-full-invariance", "-", worst_full,
            worst_full <= tol)
    # the single-level variant keeps the level-three pairing: report it
    cov4 = art.cov(sec3, "modified4")
    resid4 = full_gauge_residual(cov4, art.space(sec3))
    col.add("gauge", "modified4-residual-invariance", "single-level-projection-gap",
            sec3, resid4, resid4 > 1e-3,
            {"note": "projection off level four alone is not fully gauge "
                     "invariant; the level-three trace modes must also be "
                     "removed"})


def _suite_symmetry(art, col, cfg):
    tol = cfg.tol_verdict
    worst_s = worst_z = worst_t = 0.0
    for sec in art.sectors:
        worst_s = max(worst_s, racah_antiunitarity_residual(sec))
        worst_z = max(worst_z, wigner_involution_residual(sec))
    for sec in (SectorLabel(Family.TENSOR, 2), SectorLabel(Family.SCALAR, 2),
                SectorLabel(Family.VECTOR, 1)):
        worst_t = max(worst_t, time_reversal_residual(art.cov(sec)))
    col.add("symmetry", "racah-antiunitarity", "racah-reversal", "-", worst_s,
            worst_s <= cfg.tol_linear_algebra)
    col.add("symmetry", "wigner-involution", "time-reversal", "-", worst_z,
            worst_z == 0.0)
    col.add("symmetry", "time-reversal-invariance", "time-reversal", "-",
            worst_t, worst_t <= 1e-10)
    for alpha in art.config.alpha_values:
        worst_u = worst_sr = worst_pos = 0.0
        neg_ok = True
        for sec in art.sectors:
            worst_u = max(worst_u, alpha_unitarity_residual(sec, alpha))
            cov = art.cov(sec, "alpha", alpha)
            worst_sr = max(worst_sr, sum_rule_residual(cov))
            ps = art.space(sec)
            if sec.family is Family.TENSOR:
                for sign in (+1, -1):
                    ext = compressed_extrema(cov, ps.ett_gauge, sign)
                    worst_pos = max(worst_pos, -ext[0])
            if ps.ett4.shape[1]:
                f = ps.ett4[:, 0]
                nrm = norm_squared(sec, f)
                tot = float(np.real(f.conj() @ (cov.lambda_plus
                                                + cov.lambda_minus) @ f))
                neg_ok = neg_ok and tot / nrm <= -cfg.margin
        col.add("symmetry", f"alpha-unitarity[{alpha}]", "bogoliubov-family", "-",
                worst_u, worst_u <= cfg.tol_linear_algebra)
        col.add("symmetry", f"alpha-sum-rule[{alpha}]", "bogoliubov-family", "-",
                worst_sr, worst_sr <= 1e-10)
        col.add("symmetry", f"alpha-sign-dichotomy[{alpha}]",
                "bogoliubov-family", "-", max(0.0, worst_pos),
                worst_pos <= cfg.tol_verdict and neg_ok)
    col.structural("symmetry", "o4-invariance", "O(4)", "-",
                   "block-diagonal per sector with level-independent "
                   "coefficients; invariance holds by construction")
    col.structural("symmetry", "hadamard-property", "hadamard-smoothing",
                   "-", "inherited by construction: the modification is a "
                        "finite-rank smoothing perturbation")


def _suite_maxwell(art, col, cfg):
    tol = cfg.tol_verdict
    msecs = maxwell_sectors(cfg.k_max)
    col.add("maxwell", "spectra-disjoint", "hodge-spectra", "-",
            0.0, spectra_disjoint(max(cfg.k_max, 20)))
    total_zero = 0
    for sec in msecs:
        pair = lorentzify(maxwell_projector_pair(sec, tol=cfg.tol_ode))
        n = pair.c_plus.shape[0]
        r_sum = float(np.max(np.abs(pair.c_plus + pair.c_minus - np.eye(n))))
        r_idem = float(np.max(np.abs(pair.c_plus @ pair.c_plus - pair.c_plus)))
        col.add("maxwell", "projector-identities", "projector-algebra", sec,
                max(r_sum, r_idem), r_sum <= 1e-10 and r_idem <= tol)
        ps = maxwell_phase_space(sec)
        total_zero += ps.e_zero.shape[1] * sec.multiplicity
        cov = maxwell_covariances(sec, projector_pair=pair)
        sr = maxwell_sum_rule_residual(cov)
        col.add("maxwell", "sum-rule", "maxwell-state-signs", sec, sr, sr <= 1e-10)
        ck = maxwell_charge_kernel(ps)
        col.add("maxwell", "charge-kernel", "maxwell-charge-kernel", sec, ck, ck <= 1e-10)
        if sec.family is Family.VECTOR:
            ext = maxwell_compressed_extrema(cov, ps.e_gauge, +1)
            col.add("maxwell", "positivity-gauge", "maxwell-state-signs", sec,
                    max(0.0, -ext[0]), ext[0] >= -tol)
        covm = maxwell_covariances(sec, "modified", projector_pair=pair)
        fg = maxwell_full_gauge_residual(covm, ps)
        srm = maxwell_sum_rule_residual(covm, on=ps.e_space)
        pos_ok = True
        worst_neg = 0.0
        if ps.e_space.shape[1]:
            for sign in (+1, -1):
                ext = maxwell_compressed_extrema(covm, ps.e_space, sign)
                worst_neg = max(worst_neg, -ext[0])
                pos_ok = pos_ok and ext[0] >= -tol
        col.add("maxwell", "modified-state", "maxwell-modified-state", sec,
                max(fg, srm, worst_neg), fg <= tol and srm <= 1e-10 and pos_ok)
    col.add("maxwell", "zero-mode-total", "maxwell-zero-mode", "-", abs(total_zero - 1),
            total_zero == 1, {"total_with_multiplicity": total_zero})
    # quotient bookkeeping at level zero
    pair0 = maxwell_rank0_pair(SCALAR0, tol=cfg.tol_ode)
    qi = pair0.quotient_info
    col.add("maxwell", "rank0-quotient", "kernel-quotient", SCALAR0,
            0.0, qi.kernel.shape[1] == 1 and qi.quotient_dim == 0,
            {"kernel_dim": qi.kernel.shape[1], "quotient_dim": qi.quotient_dim})
    # negativity on the zero mode
    ps0 = maxwell_phase_space(SCALAR0)
    cov0 = maxwell_covariances(SCALAR0, projector_pair=lorentzify(
        maxwell_projector_pair(SCALAR0, tol=cfg.tol_ode)))
    f = ps0.e_zero[:, 0]
    g = rl.to_numpy(cy.data_gram(SCALAR0, 1))
    nrm = float(np.real(f.conj() @ g @ f))
    vp = float(np.real(f.conj() @ cov0.lambda_plus @ f)) / nrm
    vm = float(np.real(f.conj() @ cov0.lambda_minus @ f)) / nrm
    col.add("maxwell", "negativity-zero-mode", "maxwell-state-signs", SCALAR0,
            max(vp, vm), vp <= tol and vm <= tol and vp + vm <= -cfg.margin,
            {"lambda_plus": vp, "lambda_minus": vm})
    # the level-zero Lorentzian profile
    system = build_system("D1", SCALAR0, LORENTZIAN, maxwell=True)
    t_grid = np.linspace(-2, 2, 17)
    us, _ = evolve_raw(system, np.array([1.0]), np.array([0.0]), t_grid,
                       tol=cfg.tol_ode)
    prof_resid = float(np.max(np.abs(us[:, 0].real - 1 / np.cosh(t_grid) ** 3)))
    col.add("maxwell", "zero-mode-profile", "zero-mode-profile", SCALAR0,
            prof_resid, prof_resid <= 1e-8)


_SUITE_FNS = {
    "oracle": _suite_oracle,
    "identities": _suite_identities,
    "calderon": _suite_calderon,
    "phase_space": _suite_phase_space,
    "states": _suite_states,
    "gauge": _suite_gauge,
    "symmetry": _suite_symmetry,
    "maxwell": _suite_maxwell,
}


def run(config):
    """Execute the enabled suites; returns the report dictionary."""
    config.validate()
    t_start = time.perf_counter()
    art = _Artifacts(config)
    col = _Collector()
    # maxwell first: simpler system, earlier signal
    order = [s for s in ("maxwell",) if s in config.suites]
    order += [s for s in ALL_SUITES if s in config.suites and s != "maxwell"]
    for suite in order:
        _SUITE_FNS[suite](art, col, config)
    records = [asdict(r) for r in col.records]
    summary = {}
    for r in records:
        summary[r["verdict"]] = summary.get(r["verdict"], 0) + 1
    return {
        "schema_version": SCHEMA_VERSION,
        "config": {k: (list(v) if isinstance(v, tuple) else v)
                   for k, v in asdict(config).items()},
        "environment": {
            "python": sys.version.split()[0],
            "platform": platform.system(),
            "package_version": __version__,
        },
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "total_runtime_s": round(time.perf_counter() - t_start, 3),
        "summary": summary,
        "records": records,
    }


def has_failures(report):
    return report["summary"].get("fail", 0) > 0


def to_json(report):
    return json.dumps(report, indent=2, sort_keys=False) + "\n"


def to_csv(report):
    cols = ["suite", "check_id", "claim", "sector", "residual", "verdict",
            "runtime"]
    lines = [",".join(cols)]
    for r in report["records"]:
        lines.append(",".join(str(r[c]) for c in cols))
    return "\n".join(lines) + "\n"


VOLATILE_FIELDS = ("runtime",)


def diff_reports(old, new, drift_factor=10.0):
    """Structured diff: verdict flips, residual drift, added/removed checks."""
    if old.get("schema_version") != new.get("schema_version"):
        raise ValueError("schema version mismatch")

    def key(r):
        return (r["suite"], r["check_id"], r["sector"])

    old_map = {key(r): r for r in old["records"]}
    new_map = {key(r): r for r in new["records"]}
    out = {"verdict_changes": [], "residual_drift": [], "added": [],
           "removed": []}
    for k, r_new in new_map.items():
        r_old = old_map.get(k)
        if r_old is None:
            out["added"].append(list(k))
            continue
        if r_old["verdict"] != r_new["verdict"]:
            out["verdict_changes"].append(
                {"check": list(k), "old": r_old["verdict"],
                 "new": r_new["verdict"]})
        ro, rn = r_old["residual"], r_new["residual"]
        floor = 1e-15
        if max(rn, floor) / max(ro, floor) > drift_factor or \
                max(ro, floor) / max(rn, floor) > drift_factor:
            if max(ro, rn) > 1e-14:
                out["residual_drift"].append(
                    {"check": list(k), "old": ro, "new": rn})
    for k in old_map:
        if k not in new_map:
            out["removed"].append(list(k))
    out["empty"] = not any(out[k] for k in
                           ("verdict_changes", "residual_drift", "added",
                            "removed"))
    return out
