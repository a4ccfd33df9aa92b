"""Batch verification driver: configuration, execution plan, reports.

Every enabled suite emits one record per check per applicable sector, each
tagged with the claim it certifies.  Reports are deterministic for a given
build and configuration (fixed sector order, fixed seeds); the timestamp and
runtime fields are the only volatile entries and are ignored by the diff.
"""

import json
import math
import platform
import random
import sys
import time
from dataclasses import dataclass, field, asdict
from functools import partial

import numpy as np

from . import __version__
from . import cauchy as cy
from .calderon import (
    lorentzify,
    principal_angle,
    projector_pair,
    quotient_matrices,
)
from .cauchy import GRAVITY, MAXWELL, charge_raw
from .collocation import collocation_regular_basis
from .harmonics import harmonic_oracle
from .maxwell import (
    maxwell_covariances,
    maxwell_phase_space,
    maxwell_projector_pair,
    maxwell_sectors,
    spectra_disjoint,
)
from .phase_space import charge_kernel_check, phase_space_sector
from .radial import RTOL_FLOOR, build_system, evolve_raw, regular_basis
from .sectors import (
    SCALAR0,
    SCALAR1,
    VECTOR1,
    Family,
    SectorLabel,
    enumerate_sectors,
    reduced_levels,
)
from .states import (
    alpha_unitarity_residual,
    build_covariances,
    extrema,
    full_gauge_residual,
    gauge_pairing_residual,
    hermiticity_residual,
    max_abs,
    norm_squared,
    racah_antiunitarity_residual,
    sum_rule_residual,
    time_reversal_residual,
    tt_energy_quadrature,
    wigner_involution_residual,
    worst,
)
from .warped import EUCLIDEAN, LORENTZIAN

SCHEMA_VERSION = 1
ALL_SUITES = ("identities", "calderon", "phase_space", "states", "gauge",
              "symmetry", "maxwell", "oracle")

# the alpha covariances u lambda u reach e^(2|alpha|) times the vacuum's
# largest entry, whose log grows like 4.8 ln k (12.1 at k_max 12, 18.8 at
# 48): they overflow a float from |alpha| ~ 349 at k_max 12, 345.5 at 48
ALPHA_MAX = 300


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
        """Raise ValueError for a configuration no run can honour: a field of
        the wrong type, a tolerance or margin that is not finite and
        positive, a ``tol_ode`` below the integrator's floor (which scipy
        would raise it to), a negative level or seed, no suite (a run that
        checks nothing would pass), an unknown suite or format, an alpha
        beyond ``ALPHA_MAX`` (its covariances would overflow a float), and a
        repeated alpha (its checks would share one id)."""
        for name in ("k_max", "k_dynamics", "seed", "jobs"):
            if not (_is_number(getattr(self, name), int) and getattr(self, name) >= 0):
                raise ValueError(f"{name} must be an integer >= 0")
        for name in ("tol_verdict", "tol_linear_algebra", "tol_ode", "margin"):
            # compared, not converted: an int beyond the float range (a JSON
            # config can hold one) is rejected, where math.isfinite would
            # raise OverflowError
            value = getattr(self, name)
            if not (_is_number(value) and 0 < value <= sys.float_info.max):
                raise ValueError(f"{name} must be a finite positive number")
        if self.tol_ode < RTOL_FLOOR:
            raise ValueError(f"tol_ode must be >= {RTOL_FLOOR:.3g}, the integrator's floor")
        if not (isinstance(self.alpha_values, tuple) and all(
                _is_number(a) and abs(a) <= ALPHA_MAX for a in self.alpha_values)):
            raise ValueError(f"alpha_values must be a list of numbers with |alpha| <= "
                             f"{ALPHA_MAX} (beyond it the covariances overflow a float)")
        if len(set(map(float, self.alpha_values))) < len(self.alpha_values):
            raise ValueError("alpha_values must not repeat a value")
        if not (isinstance(self.suites, tuple) and self.suites
                and all(isinstance(s, str) for s in self.suites)):
            raise ValueError("suites must be a non-empty list of suite names")
        if not isinstance(self.output, str):
            raise ValueError("output must be a path")
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


def _is_number(value, kind=(int, float)):
    """A JSON number of the given kind; ``True`` and ``False`` are not."""
    return isinstance(value, kind) and not isinstance(value, bool)


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
            suite, check_id, claim, str(sector), float(residual),
            "pass" if ok else "fail", round(dt, 6), extra or {}))

    def add_worst(self, suite, check_id, claim, sectors, residual, bound,
                  ok=True, extra=None):
        """One record for a claim checked sector by sector: the largest
        residual (``worst``) against ``bound``, with the first sector that
        attains it in ``extra`` (a negative largest one too); ``ok`` is any
        further condition of the verdict.  Every residual is evaluated
        once, in order."""
        sectors = list(sectors)
        values = [residual(sec) for sec in sectors]
        top = worst(values, -math.inf)
        where = next((str(sec) for sec, r in zip(sectors, values)
                      if r == top or math.isnan(r)), None)
        resid = worst(values)
        self.add(suite, check_id, claim, "-", resid, resid <= bound and ok,
                 {**(extra or {}), "worst_sector": where, "bound": bound})

    def structural(self, suite, check_id, claim, sector, note):
        self.records.append(CheckRecord(suite, check_id, claim, str(sector),
                                        0.0, "structural", 0.0, {"note": note}))


def _builders():
    """Per theory name: Euclidean pair (sector, operator_id), phase space,
    covariances.  Maxwell's pair and covariances go through its one-line
    wrappers, layers the benchmark traces by name.  Read from the module's
    names at call time, in the parent and in workers."""
    return {
        GRAVITY.name: (partial(projector_pair, GRAVITY),
                       phase_space_sector, build_covariances),
        MAXWELL.name: (maxwell_projector_pair, maxwell_phase_space,
                       maxwell_covariances),
    }


# Pair tasks per future of the sector pool.  The executor hands its
# workers one chunk more than there are workers ahead of time, and those can
# no longer be cancelled, so the join may wait for them: small chunks keep
# that wait short (0.01-0.08 s in five runs at k_max 24 with --jobs 2 on a
# 2-vCPU VM), and several tasks still share one round trip to a worker.
_CHUNK = 4


def _pairs(chunk, builders):
    """(cache key, Euclidean pair) of each (theory, operator_id, sector, tol)
    task of ``chunk``."""
    return [(("pair", theory, operator_id, sec),
             builders[theory][0](sec, operator_id, tol=tol))
            for theory, operator_id, sec, tol in chunk]


def _build_pair_task(chunk):
    """Worker entry for the sector pool (module level for pickling): the
    pairs of one chunk of tasks.  The theory travels by name: a pickled
    ``Theory`` is a copy, not the one of ``cauchy``."""
    return _pairs(chunk, _builders())


class _Artifacts:
    """Shared per-sector constructions of both theories, built lazily and
    cached, each at most once per run.

    With ``jobs`` N > 1, N processes compute and this one is one of them.
    The Euclidean projector pairs of both theories that the enabled suites
    read (the dominant cost), one task per (theory, operator, sector), go in
    chunks of ``_CHUNK`` to N - 1 forked workers at construction, which
    returns at once.  ``run`` then executes the suites that read no pair
    (``pair_free``) while the workers build, and joins the pool with
    ``_prewarm``, which builds here the chunks no worker has started.  The
    library objects are immutable, so results are simply collected.
    ``close`` stops the pool, if the join has not.
    """

    def __init__(self, config):
        self.config = config
        self.sectors = enumerate_sectors(config.k_max)
        self._cache = {}
        self._builders = _builders()
        # (theory, operator) -> (the suites that read its pairs, sectors)
        wanted = {
            (GRAVITY.name, "D2"): (("calderon", "states", "gauge", "symmetry"),
                                   self.sectors),
            (GRAVITY.name, "D1"): (("calderon",), [
                sec for sec in self.sectors if cy.DataLayout(sec, 1).size]),
            (MAXWELL.name, "D1"): (("maxwell",), maxwell_sectors(config.k_max)),
            (MAXWELL.name, "D0"): (("maxwell",), [SCALAR0]),
        }
        self.pair_free = tuple(s for s in config.suites if not any(
            s in readers for readers, _ in wanted.values()))
        tasks = [(theory, op, sec, config.tol_ode)
                 for (theory, op), (readers, secs) in wanted.items()
                 if set(readers) & set(config.suites) for sec in secs]
        chunks = [tasks[i:i + _CHUNK] for i in range(0, len(tasks), _CHUNK)]
        self._pool, self._chunks = None, []
        if config.jobs > 1 and chunks:
            from concurrent.futures import ProcessPoolExecutor
            # with the fork start method every worker is launched up front
            self._pool = ProcessPoolExecutor(
                max_workers=min(config.jobs - 1, len(chunks)))
            try:
                self._chunks = [(self._pool.submit(_build_pair_task, chunk), chunk)
                                for chunk in chunks]
            except BaseException:
                self.close()
                raise

    def _prewarm(self):
        """Join the pool: build here, from the back, every chunk no worker
        has started, while the workers take theirs from the front; then
        collect the workers' pairs and stop the pool."""
        if self._pool is None:
            return
        for future, chunk in reversed(self._chunks):
            if future.cancel():
                self._cache.update(_pairs(chunk, self._builders))
        for future, _ in self._chunks:
            if not future.cancelled():
                self._cache.update(future.result())
        self.close()

    def close(self):
        """Stop the pool, dropping the chunks no worker has started, and
        wait for its workers to exit."""
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)
            self._pool = None

    def pair_euclid(self, sec, operator_id="D2", theory=GRAVITY):
        build = self._builders[theory.name][0]
        return self._get(("pair", theory.name, operator_id, sec), lambda: build(
            sec, operator_id, tol=self.config.tol_ode))

    def pair(self, sec, theory=GRAVITY):
        """The Lorentzian pair of the theory's field operator."""
        return self._get(("pairL", theory.name, sec), lambda: lorentzify(
            self.pair_euclid(sec, f"D{theory.rank}", theory)))

    def space(self, sec, theory=GRAVITY):
        build = self._builders[theory.name][1]
        return self._get(("ps", theory.name, sec), lambda: build(sec))

    def cov(self, sec, variant="euclidean_vacuum", alpha=0.0, theory=GRAVITY):
        build = self._builders[theory.name][2]
        return self._get(("cov", theory.name, sec, variant, alpha), lambda: build(
            sec, variant, alpha=alpha, projector_pair=self.pair(sec, theory)))

    def _get(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]


# -- residual vocabulary ------------------------------------------------------

# Fixed bounds of the suites; the configurable ones are the tol_* fields and
# margin of RunConfig.
ROUNDOFF_BOUND = 1e-10      # float round-off of exact identities, of sum rules
                            # relative to the charge, and of principal angles
                            # between subspaces built exactly
INTEGRATION_BOUND = 1e-8    # residuals that carry integration or quadrature error
PAIRING_FLOOR = 1e-3        # a pairing per unit data norm this large is nonzero
DTN_RATIO = (0.5, 2.0)      # envelope of the TT Dirichlet-to-Neumann entry
SPECTRAL_GAP_CAP = 1e12     # a collocation spectral gap beyond this is round-off
                            # (its denominator is), so it is recorded as the cap


def _pairing(cov, f):
    """lambda+(f, f) and lambda-(f, f) of one datum, per unit data norm."""
    nrm = norm_squared(cov.sector, f, cov.theory.rank)
    return tuple(float(np.real(f.conj() @ lam @ f)) / nrm
                 for lam in (cov.lambda_plus, cov.lambda_minus))


def _add_negativity(col, suite, check_id, claim, cov, f, cfg):
    """Record that both covariances are strictly negative on the datum f."""
    vp, vm = _pairing(cov, f)
    tol = cfg.tol_verdict
    col.add(suite, check_id, claim, cov.sector, worst((vp, vm), -math.inf),
            vp <= tol and vm <= tol and vp + vm <= -cfg.margin,
            {"lambda_plus": vp, "lambda_minus": vm})


def _projector_algebra(cp, cm):
    """Residuals of c+ + c- = 1 and of c+, c- idempotent (the worse one)."""
    return (max_abs(cp + cm - np.eye(len(cp))),
            worst((max_abs(cp @ cp - cp), max_abs(cm @ cm - cm))))


def _add_phase_space(col, suite, kernel_claim, ps, cfg):
    """Record E = E_gauge + F_gauge + E_bad (direct, transversal at ``cfg.margin``)
    and the charge kernel on E = F, of F's dimension; E = 0 records dims only."""
    if ps.e_space.shape[1] == 0:
        col.add(suite, "direct-sums", "phase-space-splitting", ps.sector, 0.0, True,
                {"dims": ps.dims})
        return
    stacked = np.hstack((ps.e_gauge, ps.f_gauge, ps.e_bad))
    ang = principal_angle(stacked, ps.e_space)
    sv = np.linalg.svd(stacked, compute_uv=False)
    margin = float(sv[-1] / sv[0])
    col.add(suite, "direct-sums", "phase-space-splitting", ps.sector, ang,
            stacked.shape[1] == ps.e_space.shape[1] and ang <= ROUNDOFF_BOUND
            and margin >= cfg.margin, {"dims": ps.dims, "transversality": margin})
    rep = charge_kernel_check(ps)
    col.add(suite, "charge-kernel", kernel_claim, ps.sector, rep["kernel_angle"],
            rep["kernel_angle"] <= ROUNDOFF_BOUND and rep["kernel_dim"] == ps.f_space.shape[1],
            {"kernel_dim": rep["kernel_dim"], "quotient_sv": rep["quotient_sv"]})


def _add_gauge_positivity(col, suite, check_id, claim, cov, ps, cfg):
    """Record that both covariances are positive on E_gauge, where it is not 0."""
    if ps.e_gauge.shape[1]:
        low, high = extrema(cov, ps.e_gauge)
        col.add(suite, check_id, claim, ps.sector, worst((-low,)), low >= -cfg.tol_verdict,
                {"min_eig": low, "max_eig": high})


def _modified_state(cov, ps, cfg):
    """A modified state's claims on E as (residual, bound): sum rule,
    positivity, full gauge invariance."""
    return {"modified-sum-rule": (sum_rule_residual(cov, on=ps.e_space), ROUNDOFF_BOUND),
            "modified-positivity": (-extrema(cov, ps.e_space)[0], cfg.tol_verdict),
            "modified-full-invariance": (full_gauge_residual(cov, ps), cfg.tol_verdict)}


# -- suites -------------------------------------------------------------------

def _suite_oracle(art, col, cfg):
    # the closed formulas of the sector labels against the polynomial
    # harmonics, at desk scale
    for sec in sorted(enumerate_sectors(3)):
        real = harmonic_oracle(sec.k, sec.family)
        eig = float(sec.eigenvalue)
        rel = abs(float(real.eigenvalue) - eig) / max(eig, 1.0)
        ok = rel <= ROUNDOFF_BOUND and real.multiplicity == sec.multiplicity
        col.add("oracle", "harmonic-eigenvalue", "harmonic-spectra", sec, rel, ok,
                {"eigenvalue": float(real.eigenvalue),
                 "multiplicity": real.multiplicity,
                 "multiplicity_formula": sec.multiplicity})
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
                "method-independence", sec, ang, ang <= cfg.tol_verdict,
                {"spectral_gap": min(float(gap), SPECTRAL_GAP_CAP)})


def _at_every_level(identity):
    """Whether the exact identity ``identity(sector) = 0`` on data blocks
    holds at every level: on each family's formal blocks, as a polynomial
    identity in x (a full sector's blocks are these evaluated at its
    level), and on each reduced level's own blocks."""
    sectors = [*Family, *(SectorLabel(f, k) for f in Family for k in reduced_levels(f))]
    return not any(v for sec in sectors for v in identity(sec).flat)


def _suite_identities(art, col, cfg):
    # exact operator identities (already rational-exact; assert and record),
    # each also checked at every level
    block = cy.data_block
    for check_id, claim, identity in (
            ("gauge-complex", "gauge-complex-exactness",
             lambda sec: block(sec, "sym_div") @ block(sec, "sym_grad")),
            ("trace-gauge-composition", "trace-gauge-relation",
             lambda sec: block(sec, "neg_trace") @ block(sec, "sym_grad")
             + 2 * block(sec, "div"))):
        col.add_worst("identities", check_id, claim, art.sectors,
                      lambda sec, identity=identity: max_abs(identity(sec)), 0.0,
                      extra={"every_level": _at_every_level(identity)})
    # trace fixing: neg_trace o sym_grad o S0 = neg_trace, S0 = -(1/12) grad o
    # neg_trace; exact, since the Lorentzian blocks' Wick phases cancel along it
    col.add_worst("identities", "trace-fixing", "trace-fixing-identity",
                  [sec for sec in art.sectors if cy.DataLayout(sec, 0).size],
                  lambda sec: max_abs(block(sec, "neg_trace") @ block(sec, "sym_grad")
                                      @ block(sec, "grad") @ block(sec, "neg_trace") / -12
                                      - block(sec, "neg_trace")), 0.0)
    # charge conservation and evolution intertwining, all on one random stream
    rng = np.random.default_rng(cfg.seed)
    t_grid = np.linspace(-2.0, 2.0, 5)
    k_dyn = min(cfg.k_dynamics, cfg.k_max)
    systems = {f"{sec} {op}{' Maxwell' if mx else ''}":
               build_system(op, sec, LORENTZIAN, maxwell=mx)
               for sec in enumerate_sectors(k_dyn)
               for op, mx in (("D2", False), ("D1", False), ("D0", False),
                              ("D1", True), ("D0", True))}
    drift = _charge_drifts({label: system for label, system in systems.items()
                            if system.n}, rng, t_grid, cfg.tol_ode)
    col.add_worst("identities", "charge-conservation", "charge-conservation",
                  drift, drift.get, INTEGRATION_BOUND,
                  extra={"t_max": 2.0, "k_max": k_dyn})
    gauge = _intertwining_residuals((SectorLabel(Family.SCALAR, 2), SCALAR1,
                                     SectorLabel(Family.VECTOR, 2)),
                                    "sym_grad", rng, t_grid, cfg.tol_ode)
    col.add_worst("identities", "gauge-evolution-intertwining",
                  "gauge-evolution-compatibility", gauge, gauge.get, INTEGRATION_BOUND)
    adjoint = _intertwining_residuals((SectorLabel(Family.SCALAR, 2),), "sym_div", rng,
                                      t_grid, cfg.tol_ode)
    col.add_worst("identities", "adjoint-evolution-intertwining",
                  "adjoint-evolution-compatibility", adjoint, adjoint.get,
                  INTEGRATION_BOUND)


def _charge_drifts(systems, rng, t_grid, tol):
    """Per label of ``systems``, the largest change of the charge of random
    complex data along the Lorentzian evolution, relative to the size of the
    trajectory.  The data are drawn in order, then evolved as one batch.
    The charge of real data is 0 whatever they are (the weight is
    symmetric), so real data would test nothing."""
    def draw(n):
        return rng.normal(size=n) + 1j * rng.normal(size=n)

    batch = [(system, draw(system.n), draw(system.n)) for system in systems.values()]
    drift = {}
    for label, (system, u0, du0), (us, dus) in zip(systems, batch,
                                                   evolve_raw(batch, t_grid, tol=tol)):
        q0 = charge_raw(system, u0, du0, u0, du0, 0.0)
        scale = max(max_abs(us) ** 2 + max_abs(dus) ** 2, 1.0)
        drift[label] = worst(abs(charge_raw(system, us[i], dus[i], us[i], dus[i], t) - q0)
                             / scale for i, t in enumerate(t_grid))
    return drift


def _intertwining_residuals(sectors, name, rng, t_grid, tol):
    """Per sector of ``sectors``, the largest mismatch between evolving
    random source data and then applying the Lorentzian jet of block
    ``name``, and applying it first and evolving the image as target data.
    The data are drawn in order, then every source and target system is
    evolved in one batch."""
    _, rank_s, rank_t, _ = cy.BLOCK_JETS[name]

    def block_raw(sector, t):
        at = (np.cosh(t) ** 2, np.sinh(2 * t))
        return np.array(cy.jet_block(sector, name, LORENTZIAN, at=at), dtype=float)

    batch = []
    for sector in sectors:
        sys_s = build_system(f"D{rank_s}", sector, LORENTZIAN, maxwell=False)
        sys_t = build_system(f"D{rank_t}", sector, LORENTZIAN, maxwell=False)
        w0 = rng.normal(size=sys_s.n)
        dw0 = rng.normal(size=sys_s.n)
        raw = block_raw(sector, 0.0) @ np.concatenate([w0, dw0])
        batch += [(sys_s, w0, dw0), (sys_t, raw[:sys_t.n], raw[sys_t.n:])]
    paths = evolve_raw(batch, t_grid, tol=tol)
    return {sector: worst(max_abs(block_raw(sector, t)
                                  @ np.concatenate([us[i].real, dus[i].real])
                                  - np.concatenate([ut[i].real, dut[i].real]))
                          for i, t in enumerate(t_grid))
            for sector, (us, dus), (ut, dut) in zip(sectors, paths[::2], paths[1::2])}


def _suite_calderon(art, col, cfg):
    tol = cfg.tol_verdict
    for sec in art.sectors:
        pair = art.pair_euclid(sec)
        cp = pair.c_plus
        r_sum, r_idem = _projector_algebra(cp, pair.c_minus)
        col.add("calderon", "projector-sum", "projector-algebra", sec, r_sum,
                r_sum <= ROUNDOFF_BOUND)
        col.add("calderon", "projector-idempotent", "projector-algebra", sec, r_idem,
                r_idem <= tol)
        # the form's entries grow like k^4: measure relative to its scale
        q = cy.charge_form(sec, 2)
        r_abs = max_abs(cp.T @ q - q @ cp)
        r_adj = r_abs / (np.linalg.norm(q, 2) * np.linalg.norm(cp, 2))
        col.add("calderon", "q-adjointness", "charge-adjointness", sec, r_adj, r_adj <= tol,
                {"conditioning": pair.conditioning, "absolute": r_abs})
    # kernel bookkeeping for the rank-1 operator
    total = 0
    for sec in GRAVITY.quotient_sectors["D1"]:
        pair = art.pair_euclid(sec, "D1")
        qi = pair.quotient_info
        total += qi.kernel.shape[1] * sec.multiplicity
        resid = worst((max_abs(pair.c_plus + pair.c_minus - qi.subspace),
                       *_projector_algebra(*quotient_matrices(pair))))
        col.add("calderon", "quotient-identities", "kernel-quotient", sec,
                resid, resid <= tol,
                {"kernel_dim": qi.kernel.shape[1],
                 "domain_dim": qi.subspace.shape[1],
                 "quotient_dim": qi.quotient_dim})
    col.add("calderon", "two-sided-regular-count", "kernel-quotient", "-",
            abs(total - 10), total == 10, {"total_with_multiplicity": total})
    # gauge intertwining of the projector pairs
    col.add_worst("calderon", "projector-gauge-intertwining", "gauge-intertwining",
                  [sec for sec in art.sectors if cy.DataLayout(sec, 1).size],
                  partial(_gauge_intertwining_residual, art), tol)
    # large-k envelope: the Dirichlet-to-Neumann entry of the TT projector
    for k in range(8, cfg.k_max + 1):
        sec = SectorLabel(Family.TENSOR, k)
        pair = art.pair_euclid(sec)
        dtn = abs(pair.c_plus[1, 0])
        root = float(np.sqrt(float(sec.eigenvalue)))
        # c+ = [[1/2, 1/(2L)], [L/2, 1/2]] with L = k(k+2)/(k+1), so the
        # ratio L / sqrt(eigenvalue) tends to 1
        ratio = 2 * dtn / root
        col.add("calderon", "dtn-envelope", "sanity-envelope", sec,
                abs(np.log(ratio)), DTN_RATIO[0] <= ratio <= DTN_RATIO[1],
                {"ratio": ratio})


def _gauge_intertwining_residual(art, sector):
    """c2+ K = K c1+ for the gauge block K, on the charge-orthogonal domain
    of the rank-1 pair where that pair is a quotient one.  The block's
    entries grow with the level: relative to ||c2+||_2 ||K||_2."""
    pair2 = art.pair(sector)
    pair1 = lorentzify(art.pair_euclid(sector, "D1"))
    k21 = GRAVITY.gauge_block(sector)
    dom = k21 if pair1.quotient_info is None else k21 @ pair1.quotient_info.subspace
    return (max_abs(pair2.c_plus @ dom - k21 @ pair1.c_plus)
            / (np.linalg.norm(pair2.c_plus, 2) * np.linalg.norm(k21, 2)))


def _suite_phase_space(art, col, cfg):
    total4 = 0
    for sec in art.sectors:
        ps = art.space(sec)
        total4 += ps.e_bad.shape[1] * sec.multiplicity
        _add_phase_space(col, "phase_space", "charge-kernel-theorem", ps, cfg)
    col.add("phase_space", "level-four-total", "phase-space-splitting", "-",
            abs(total4 - 6), total4 == 6, {"total_with_multiplicity": total4})


def _suite_states(art, col, cfg):
    for sec in art.sectors:
        cov = art.cov(sec)
        herm = hermiticity_residual(cov)
        sr = sum_rule_residual(cov)
        col.add("states", "hermiticity", "vacuum-sum-rule", sec, herm,
                herm <= cfg.tol_linear_algebra)
        col.add("states", "sum-rule", "vacuum-sum-rule", sec, sr, sr <= ROUNDOFF_BOUND)
        _add_gauge_positivity(col, "states", "positivity-gauge-sector",
                              "gauge-sector-positivity", cov, art.space(sec), cfg)
    _add_negativity(col, "states", "negativity-level-four", "level-four-negativity",
                    art.cov(VECTOR1), art.space(VECTOR1).e_bad[:, 0], cfg)
    sec = SectorLabel(Family.TENSOR, 2)
    energy, boundary, lam_val = tt_energy_quadrature(art.cov(sec))
    resid = abs(energy - boundary) / abs(boundary)
    ok = (resid <= INTEGRATION_BOUND
          and abs(lam_val - boundary) <= cfg.tol_verdict * abs(boundary))
    col.add("states", "energy-quadrature", "gauge-sector-positivity", sec,
            resid, ok, {"energy": energy, "boundary": boundary})


def _suite_gauge(art, col, cfg):
    col.add_worst("gauge", "weak-invariance", "weak-gauge-invariance", art.sectors,
                  lambda sec: gauge_pairing_residual(art.cov(sec), art.space(sec).e_space,
                                                     art.space(sec).f_gauge_strict),
                  cfg.tol_verdict)
    # strong invariance fails: the level-four witness, and the level-three
    # anomaly (the Scalar(1) trace line also pairs)
    for check_id, claim, sec, f in (
            ("strong-invariance-failure", "strong-invariance-failure", VECTOR1,
             art.space(VECTOR1).e_bad[:, 0]),
            ("level-three-anomaly", "strong-invariance-anomaly", SCALAR1,
             art.space(SCALAR1).e_trace[:, 0])):
        val = abs(_pairing(art.cov(sec), f)[0])
        col.add("gauge", check_id, claim, sec, val, val >= PAIRING_FLOOR, {"pairing": val})
    modified = {sec: _modified_state(art.cov(sec, "modified"), art.space(sec), cfg)
                for sec in art.sectors}
    for check_id, (_, bound) in modified[art.sectors[0]].items():
        col.add_worst("gauge", check_id, check_id, art.sectors,
                      lambda sec: modified[sec][check_id][0], bound)
    # the single-level variant keeps the level-three pairing: report it
    resid4 = full_gauge_residual(art.cov(SCALAR1, "modified4"), art.space(SCALAR1))
    col.add("gauge", "modified4-residual-invariance", "single-level-projection-gap",
            SCALAR1, resid4, resid4 > PAIRING_FLOOR,
            {"note": "projection off level four alone is not fully gauge "
                     "invariant; the level-three trace modes must also be "
                     "removed"})


def _suite_symmetry(art, col, cfg):
    col.add_worst("symmetry", "racah-antiunitarity", "racah-reversal", art.sectors,
                  racah_antiunitarity_residual, cfg.tol_linear_algebra)
    col.add_worst("symmetry", "wigner-involution", "time-reversal", art.sectors,
                  wigner_involution_residual, 0.0)
    col.add_worst("symmetry", "time-reversal-invariance", "time-reversal",
                  (SectorLabel(Family.TENSOR, 2), SectorLabel(Family.SCALAR, 2), VECTOR1),
                  lambda sec: time_reversal_residual(art.cov(sec)), ROUNDOFF_BOUND)
    # the ids read float(alpha): alpha 1 of a config file and 1.0 of the flag
    # name one check
    for alpha in map(float, art.config.alpha_values):
        covs = {sec: art.cov(sec, "alpha", alpha) for sec in art.sectors}
        # lambda_alpha(f, f) = lambda(uf, uf) for the real diagonal
        # u = exp(alpha S): its sign is read per unit norm of uf, since per
        # unit norm of f it decays like e^(-2 alpha) below any margin
        neg_ok = all(sum(_pairing(art.cov(sec), np.exp(alpha * cy.reflection(sec, 2))
                                  * art.space(sec).e_bad[:, 0])) <= -cfg.margin
                     for sec in art.sectors if art.space(sec).e_bad.shape[1])
        col.add_worst("symmetry", f"alpha-unitarity[{alpha}]", "bogoliubov-family",
                      art.sectors, partial(alpha_unitarity_residual, alpha=alpha),
                      cfg.tol_linear_algebra)
        col.add_worst("symmetry", f"alpha-sum-rule[{alpha}]", "bogoliubov-family",
                      art.sectors, lambda sec: sum_rule_residual(covs[sec]), ROUNDOFF_BOUND)
        col.add_worst("symmetry", f"alpha-sign-dichotomy[{alpha}]", "bogoliubov-family",
                      [sec for sec in art.sectors if sec.family is Family.TENSOR],
                      lambda sec: -extrema(covs[sec], art.space(sec).e_gauge)[0],
                      cfg.tol_verdict, ok=neg_ok)
    col.structural("symmetry", "o4-invariance", "O(4)", "-",
                   "block-diagonal per sector with level-independent "
                   "coefficients; invariance holds by construction")
    col.structural("symmetry", "hadamard-property", "hadamard-smoothing",
                   "-", "inherited by construction: the modification is a "
                        "finite-rank smoothing perturbation")


def _suite_maxwell(art, col, cfg):
    col.add("maxwell", "spectra-disjoint", "hodge-spectra", "-",
            0.0, spectra_disjoint(max(cfg.k_max, 20)))
    total_zero = 0
    for sec in maxwell_sectors(cfg.k_max):
        pair = art.pair(sec, MAXWELL)
        r_sum, r_idem = _projector_algebra(pair.c_plus, pair.c_minus)
        col.add("maxwell", "projector-identities", "projector-algebra", sec,
                worst((r_sum, r_idem)), r_sum <= ROUNDOFF_BOUND and r_idem <= cfg.tol_verdict)
        ps = art.space(sec, MAXWELL)
        total_zero += ps.e_bad.shape[1] * sec.multiplicity
        cov = art.cov(sec, theory=MAXWELL)
        sr = sum_rule_residual(cov)
        col.add("maxwell", "sum-rule", "maxwell-state-signs", sec, sr, sr <= ROUNDOFF_BOUND)
        _add_phase_space(col, "maxwell", "maxwell-charge-kernel", ps, cfg)
        _add_gauge_positivity(col, "maxwell", "positivity-gauge", "maxwell-state-signs",
                              cov, ps, cfg)
        claims = _modified_state(art.cov(sec, "modified", theory=MAXWELL), ps, cfg).values()
        col.add("maxwell", "modified-state", "maxwell-modified-state", sec,
                worst(r for r, _ in claims), all(r <= bound for r, bound in claims))
    col.add("maxwell", "zero-mode-total", "maxwell-zero-mode", "-", abs(total_zero - 1),
            total_zero == 1, {"total_with_multiplicity": total_zero})
    # quotient bookkeeping at level zero
    qi = art.pair_euclid(SCALAR0, "D0", MAXWELL).quotient_info
    col.add("maxwell", "rank0-quotient", "kernel-quotient", SCALAR0,
            0.0, qi.kernel.shape[1] == 1 and qi.quotient_dim == 0,
            {"kernel_dim": qi.kernel.shape[1], "quotient_dim": qi.quotient_dim})
    _add_negativity(col, "maxwell", "negativity-zero-mode", "maxwell-state-signs",
                    art.cov(SCALAR0, theory=MAXWELL),
                    art.space(SCALAR0, MAXWELL).e_bad[:, 0], cfg)
    # the level-zero Lorentzian profile
    system = build_system("D1", SCALAR0, LORENTZIAN, maxwell=True)
    t_grid = np.linspace(-2, 2, 17)
    (us, _), = evolve_raw([(system, np.array([1.0]), np.array([0.0]))], t_grid,
                          tol=cfg.tol_ode)
    prof_resid = max_abs(us[:, 0].real - 1 / np.cosh(t_grid) ** 3)
    col.add("maxwell", "zero-mode-profile", "zero-mode-profile", SCALAR0,
            prof_resid, prof_resid <= INTEGRATION_BOUND)


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
    """Execute the enabled suites; returns the report dictionary.

    The suites that read no projector pair run first, while the sector pool
    (``jobs > 1``) builds the pairs; then the pool is joined and the others
    run.  Records are emitted in one order whatever ``jobs`` is, not in the
    order of execution: maxwell's first, then those of ``ALL_SUITES``.  No
    pool worker outlives the call, also when a suite raises."""
    config.validate()
    t_start = time.perf_counter()
    art = _Artifacts(config)
    # the order records are emitted in; its pair-free suites execute first
    order = [s for s in ("maxwell",) if s in config.suites]
    order += [s for s in ALL_SUITES if s in config.suites and s != "maxwell"]
    collected = {}

    def execute(suites):
        for suite in suites:
            col = _Collector()
            _SUITE_FNS[suite](art, col, config)
            collected[suite] = col.records

    try:
        execute(s for s in order if s in art.pair_free)
        art._prewarm()
        execute(s for s in order if s not in art.pair_free)
    finally:
        art.close()
    records = [asdict(r) for suite in order for r in collected[suite]]
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


def _diffable(record):
    """A record the diff can read: string suite, check_id, sector and
    verdict, and a numeric (not bool) residual."""
    return (isinstance(record, dict)
            and all(isinstance(record.get(k), str)
                    for k in ("suite", "check_id", "sector", "verdict"))
            and isinstance(record.get("residual"), (int, float))
            and not isinstance(record["residual"], bool))


def diff_reports(old, new, drift_factor=10.0):
    """Structured diff: verdict flips, residual drift, added/removed checks.
    Raises ValueError for a drift factor that is not a finite number >= 1
    (a NaN one would flag no drift at all), for a report that is not an
    object with a list of records the diff can read (``_diffable``), and for
    one with two records of one key (the diff would see only one of them)."""
    if not (math.isfinite(drift_factor) and drift_factor >= 1):
        raise ValueError(f"drift factor must be a finite number >= 1, not {drift_factor}")
    for name, rep in (("old", old), ("new", new)):
        if not (isinstance(rep, dict) and isinstance(rep.get("records"), list)
                and all(_diffable(r) for r in rep["records"])):
            raise ValueError(f"{name} report is not an object with a list of records, "
                             "each with string suite, check_id, sector and verdict "
                             "and a numeric residual")
    if old.get("schema_version") != new.get("schema_version"):
        raise ValueError("schema version mismatch")

    def key(r):
        return (r["suite"], r["check_id"], r["sector"])

    def by_key(name, records):
        out = {}
        for r in records:
            if key(r) in out:
                raise ValueError(f"{name} report is not an object with one record per "
                                 f"(suite, check_id, sector): {list(key(r))} repeats")
            out[key(r)] = r
        return out

    old_map = by_key("old", old["records"])
    new_map = by_key("new", new["records"])
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
        fo, fn = worst((ro,), 1e-15), worst((rn,), 1e-15)  # floored
        # every ratio with a NaN compares false: a residual that turns NaN,
        # or stops being NaN, has drifted
        if math.isnan(ro) != math.isnan(rn) or (
                (fn / fo > drift_factor or fo / fn > drift_factor) and worst((ro, rn)) > 1e-14):
            out["residual_drift"].append({"check": list(k), "old": ro, "new": rn})
    for k in old_map:
        if k not in new_map:
            out["removed"].append(list(k))
    out["empty"] = not any(out[k] for k in
                           ("verdict_changes", "residual_drift", "added",
                            "removed"))
    return out
