"""Acceptance suite: the ten exit criteria at their stated tolerances.

One test per criterion; each prints a single pass/fail line (run pytest with
-s to see them).  The heavy artifacts are built once per session through the
default report configuration (harmonic truncation k_max = 12).
"""

import numpy as np
import pytest

from dsvac.maxwell import maxwell_sectors
from dsvac.report import RunConfig, run

K_MAX = 12


@pytest.fixture(scope="module")
def report():
    return run(RunConfig(k_max=K_MAX))


def _records(report, suite, check_id=None):
    out = [r for r in report["records"] if r["suite"] == suite]
    if check_id is not None:
        out = [r for r in out if r["check_id"] == check_id]
    return out


def _announce(num, name, ok, detail=""):
    line = f"[acceptance] criterion {num:2d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_spectra(report):
    recs = _records(report, "oracle", "harmonic-eigenvalue")
    ok = bool(recs) and all(r["verdict"] == "pass" for r in recs)
    mults = {(r["sector"], r["extra"]["multiplicity"]) for r in recs}
    ok = ok and ("Scalar(1)", 4) in mults and ("VectorTransverse(1)", 6) in mults
    worst = max(r["residual"] for r in recs)
    _announce(1, "harmonic spectra and multiplicities (k<=3)", ok,
              f"max rel err {worst:.1e}")


def test_criterion_2_calderon(report):
    sums = _records(report, "calderon", "projector-sum")
    idem = _records(report, "calderon", "projector-idempotent")
    qadj = _records(report, "calderon", "q-adjointness")
    n_sectors = len({r["sector"] for r in sums})
    ok = (all(r["verdict"] == "pass" for r in sums + idem + qadj)
          and n_sectors == 36)  # Scalar 0..12, Vector 1..12, TT 2..12
    worst = max(r["residual"] for r in sums + idem + qadj)
    _announce(2, "Calderon identities on every rank-2 sector", ok,
              f"{n_sectors} sectors, worst residual {worst:.1e}")


def test_criterion_3_kernel_bookkeeping(report):
    count = _records(report, "calderon", "two-sided-regular-count")
    quo = _records(report, "calderon", "quotient-identities")
    ok = (count and count[0]["verdict"] == "pass"
          and count[0]["extra"]["total_with_multiplicity"] == 10
          and all(r["verdict"] == "pass" for r in quo) and len(quo) == 2)
    _announce(3, "two-sided regular solutions: 4 + 6 = 10, quotient identities",
              ok)


def test_criterion_4_phase_space(report):
    sums = _records(report, "phase_space", "direct-sums")
    kern = _records(report, "phase_space", "charge-kernel")
    tot = _records(report, "phase_space", "level-four-total")
    ok = (all(r["verdict"] == "pass" for r in sums + kern)
          and tot[0]["extra"]["total_with_multiplicity"] == 6
          and tot[0]["verdict"] == "pass")
    _announce(4, "phase-space direct sums, level-four total = 6, charge kernel",
              ok)


def test_criterion_5_state_signs(report):
    pos = _records(report, "states", "positivity-gauge-sector")
    neg = _records(report, "states", "negativity-level-four")
    ok = (len(pos) == K_MAX - 1  # TT sectors k = 2..12
          and all(r["verdict"] == "pass" for r in pos + neg))
    lows = min(r["extra"]["min_eig"] for r in pos)
    _announce(5, "covariance signs: >=0 on TT part, <0 on level four", ok,
              f"min gauge-sector eigenvalue {lows:.1e}")


def test_criterion_6_gauge_invariance(report):
    weak = _records(report, "gauge", "weak-invariance")
    strong = _records(report, "gauge", "strong-invariance-failure")
    mod_pos = _records(report, "gauge", "modified-positivity")
    mod_full = _records(report, "gauge", "modified-full-invariance")
    ok = all(r["verdict"] == "pass"
             for r in weak + strong + mod_pos + mod_full)
    # the documented discrepancy record must be present (projecting off
    # level four alone is not fully invariant)
    disc = _records(report, "gauge", "modified4-residual-invariance")
    ok = ok and disc and disc[0]["verdict"] == "pass"
    _announce(6, "gauge invariance: weak pass, strong fails, modified full",
              ok, f"weak {weak[0]['residual']:.1e}, "
                  f"witness {strong[0]['residual']:.2f}")


def test_criterion_7_sum_rules(report):
    sr = _records(report, "states", "sum-rule")
    alpha_sr = [r for r in _records(report, "symmetry")
                if r["check_id"].startswith("alpha-sum-rule")]
    alpha_u = [r for r in _records(report, "symmetry")
               if r["check_id"].startswith("alpha-unitarity")]
    ok = (len(sr) == 36 and len(alpha_sr) == 2 and len(alpha_u) == 2
          and all(r["verdict"] == "pass" for r in sr + alpha_sr + alpha_u))
    _announce(7, "sum rules (vacuum and Bogoliubov family), charge unitarity",
              ok)


def test_criterion_8_dynamics(report):
    charge = _records(report, "identities", "charge-conservation")
    inter = _records(report, "identities", "gauge-evolution-intertwining")
    inter2 = _records(report, "identities", "adjoint-evolution-intertwining")
    fix = _records(report, "identities", "trace-fixing")
    ok = all(r["verdict"] == "pass" for r in charge + inter + inter2 + fix)
    _announce(8, "Lorentzian dynamics: charge conservation, intertwining, "
                 "trace fixing", ok,
              f"charge drift {charge[0]['residual']:.1e}")


def test_criterion_9_maxwell(report):
    recs = _records(report, "maxwell")
    ok = all(r["verdict"] == "pass" for r in recs)
    zero = _records(report, "maxwell", "zero-mode-total")
    prof = _records(report, "maxwell", "zero-mode-profile")
    sums = _records(report, "maxwell", "direct-sums")
    ok = (ok and zero[0]["extra"]["total_with_multiplicity"] == 1
          and {r["sector"] for r in sums} == {str(s) for s in maxwell_sectors(K_MAX)}
          and len(sums) == 25)
    _announce(9, "Maxwell twin suite, direct sums on all 25 sectors, zero mode dim 1, "
                 "cosh^-3 profile", ok,
              f"profile residual {prof[0]['residual']:.1e}")


def test_criterion_10_method_independence(report):
    recs = [r for r in _records(report, "oracle")
            if r["check_id"].startswith("method-independence")]
    ok = len(recs) == 5 and all(r["verdict"] == "pass" for r in recs)
    worst = max(r["residual"] for r in recs)
    _announce(10, "Frobenius vs collocation projector agreement (5 sectors)",
              ok, f"worst principal angle {worst:.1e}")
