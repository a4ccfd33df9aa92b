import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import dsvac.cli as cli
import dsvac.radial as radial
import dsvac.report as report
from dsvac.cli import main
from dsvac.maxwell import maxwell_phase_space, maxwell_sectors
from dsvac.phase_space import phase_space_sector
from dsvac.report import RunConfig, diff_reports, has_failures, run, to_csv, to_json
from dsvac.sectors import Family, SectorLabel, enumerate_sectors
from routes import block_dims


@pytest.fixture(scope="module")
def small_report():
    cfg = RunConfig(k_max=3, suites=("maxwell", "oracle"), k_dynamics=2)
    return run(cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(k_max=1).validate()  # gravity suites need k_max >= 2
    RunConfig(k_max=1, suites=("maxwell",)).validate()
    with pytest.raises(ValueError):
        RunConfig(suites=("nonsense",)).validate()
    with pytest.raises(ValueError):
        RunConfig(fmt="xml").validate()
    with pytest.raises(ValueError):
        RunConfig(k_max=-1, suites=("maxwell",)).validate()
    with pytest.raises(ValueError, match="non-empty"):
        RunConfig(suites=()).validate()  # a run that checks nothing would pass


def test_report_structure(small_report):
    rep = small_report
    assert rep["schema_version"] == 1
    assert rep["records"]
    suites = {r["suite"] for r in rep["records"]}
    assert suites == {"maxwell", "oracle"}
    verdicts = {r["verdict"] for r in rep["records"]}
    assert verdicts <= {"pass", "fail", "structural", "skipped"}
    assert not has_failures(rep)


def test_suite_filtering(small_report):
    # gravity-only machinery is never invoked for a maxwell/oracle run
    assert all(r["suite"] in ("maxwell", "oracle")
               for r in small_report["records"])


def _canon(rep):
    out = {k: v for k, v in rep.items()
           if k not in ("timestamp", "total_runtime_s")}
    out["records"] = [{k: v for k, v in r.items() if k != "runtime"}
                      for r in rep["records"]]
    return json.dumps(out, sort_keys=True)


def test_determinism():
    cfg = RunConfig(k_max=2, suites=("maxwell",), k_dynamics=2)
    rep1, rep2 = run(cfg), run(cfg)
    assert _canon(rep1) == _canon(rep2)


def test_record_keys_unique(small_report):
    keys = [(r["suite"], r["check_id"], r["sector"])
            for r in small_report["records"]]
    assert len(keys) == len(set(keys))


@pytest.mark.parametrize("suite", ["states", "gauge", "symmetry",
                                   "phase_space", "identities"])
def test_single_suite_runs(suite):
    rep = run(RunConfig(k_max=2, suites=(suite,), k_dynamics=2))
    assert rep["records"]
    assert not has_failures(rep)
    keys = [(r["suite"], r["check_id"], r["sector"]) for r in rep["records"]]
    assert len(keys) == len(set(keys))


def test_worker_pool_matches_serial():
    # a real fork of every suite: the Maxwell tasks must reach the Maxwell
    # builder by name, and the per-sector caches the parent fills must give
    # what the workers build in their own processes; with one, two and
    # three jobs every record is the same, in the same order
    runs = [json.loads(_canon(run(RunConfig(k_max=3, jobs=jobs)))) for jobs in (1, 2, 3)]
    for rep in runs:
        rep["config"].pop("jobs")
    assert runs[0]["records"]
    assert runs[1] == runs[0] and runs[2] == runs[0]


@pytest.mark.parametrize("suite", ["oracle", "calderon"])
def test_no_worker_outlives_a_suite_that_raises(suite, tmp_path, monkeypatch, capsys):
    # oracle reads no pair and raises while the pool builds; calderon
    # raises after the join
    import multiprocessing

    def broken(art, col, cfg):
        raise ZeroDivisionError("boom")

    monkeypatch.setitem(report._SUITE_FNS, suite, broken)
    out = tmp_path / "r.json"
    assert main(["run", "--k-max", "3", "--suites", "oracle,calderon", "--jobs", "2",
                 "--out", str(out)]) == 3
    assert "internal error: ZeroDivisionError: boom" in capsys.readouterr().err
    assert multiprocessing.active_children() == []


def test_csv_projection(small_report):
    text = to_csv(small_report)
    lines = text.strip().split("\n")
    assert lines[0].startswith("suite,check_id,claim,sector")
    assert len(lines) == len(small_report["records"]) + 1


def test_diff_identical(small_report):
    delta = diff_reports(small_report, small_report)
    assert delta["empty"]


def test_diff_flags_changes(small_report):
    import copy
    other = copy.deepcopy(small_report)
    other["records"][0]["verdict"] = "fail"
    other["records"][1]["residual"] = (other["records"][1]["residual"] + 1e-3) * 100
    delta = diff_reports(small_report, other)
    assert len(delta["verdict_changes"]) == 1
    assert delta["residual_drift"]
    # new checks appear in the added section
    extra = copy.deepcopy(small_report)
    extra["records"].append(dict(small_report["records"][0], check_id="novel"))
    delta2 = diff_reports(small_report, extra)
    assert delta2["added"] == [[small_report["records"][0]["suite"], "novel",
                                small_report["records"][0]["sector"]]]
    # a failing residual that turns NaN has drifted, either way round; two
    # NaNs have not
    failing = copy.deepcopy(small_report)
    failing["records"][0].update(verdict="fail", residual=1.0)
    nan = copy.deepcopy(failing)
    nan["records"][0]["residual"] = float("nan")
    record = failing["records"][0]
    for old, new in ((failing, nan), (nan, failing)):
        delta3 = diff_reports(old, new)
        assert [d["check"] for d in delta3["residual_drift"]] == [
            [record["suite"], record["check_id"], record["sector"]]]
        assert not delta3["empty"]
    assert diff_reports(nan, copy.deepcopy(nan))["empty"]


def test_diff_schema_mismatch(small_report):
    import copy
    other = copy.deepcopy(small_report)
    other["schema_version"] = 99
    with pytest.raises(ValueError):
        diff_reports(small_report, other)


def test_cli_run_and_diff(tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    code = main(["run", "--k-max", "2", "--suites", "maxwell",
                 "--k-dynamics", "2", "--out", str(out1)])
    assert code == 0
    rep = json.loads(out1.read_text())
    assert rep["config"]["k_max"] == 2
    out2 = tmp_path / "r2.json"
    code = main(["run", "--k-max", "2", "--suites", "maxwell",
                 "--k-dynamics", "2", "--out", str(out2)])
    assert code == 0
    code = main(["diff", str(out1), str(out2)])
    assert code == 0
    delta = json.loads(capsys.readouterr().out)
    assert delta["empty"]


_RECORD = {"suite": "oracle", "check_id": "c", "sector": "-", "verdict": "pass",
           "residual": 0.0}


@pytest.mark.parametrize("bad", [
    [], {"schema_version": 1}, {"schema_version": 1, "records": [{"suite": "oracle"}]},
    {"schema_version": 1, "records": [{**_RECORD, "residual": None}]},
    {"schema_version": 1, "records": [{**_RECORD, "residual": "x"}]},
    {"schema_version": 1, "records": [{**_RECORD, "residual": True}]},
    {"schema_version": 1, "records": [{**_RECORD, "sector": ["Scalar(2)"]}]},
    {"schema_version": 1, "records": [_RECORD, dict(_RECORD, residual=1.0)]},
], ids=["list", "no-records", "record-without-keys", "residual-null", "residual-string",
        "residual-bool", "sector-list", "key-repeated"])
@pytest.mark.parametrize("side", ["old", "new"])
def test_diff_of_a_malformed_report_exits_2(bad, side, small_report, tmp_path, capsys):
    # exit 1 means a failed check: a report that is not one is a usage error,
    # and so is a record field of the wrong type (the diff would raise a
    # TypeError comparing or keying on it) or a repeated record key (the diff
    # would see only one of its records)
    good, other = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(to_json(small_report))
    other.write_text(json.dumps(bad))
    paths = [str(other), str(good)] if side == "old" else [str(good), str(other)]
    assert main(["diff", *paths]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"diff error: {side} report is not an object")
    assert "Traceback" not in err


@pytest.mark.parametrize("factor", ["nan", "inf", "0.5", "-10"])
def test_diff_drift_factor_must_be_finite_and_at_least_one(factor, small_report,
                                                          tmp_path, capsys):
    # a residual going from ~1e-15 to 1.0 is a drift under any factor >= 1;
    # a NaN factor compares false with every ratio and would report none
    import copy
    drifted = copy.deepcopy(small_report)
    drifted["records"][0]["residual"] = 1.0
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(to_json(small_report))
    new.write_text(to_json(drifted))
    assert main(["diff", str(old), str(new), "--drift-factor", factor]) == 2
    assert capsys.readouterr().err.startswith("diff error: drift factor must be")
    assert main(["diff", str(old), str(new), "--drift-factor", "1"]) == 0
    assert not json.loads(capsys.readouterr().out)["empty"]


def test_cli_config_rejection(tmp_path):
    # gravity suites at k_max=1 are rejected with exit code 2
    assert main(["run", "--k-max", "1", "--out", str(tmp_path / "x.json")]) == 2
    # so is a negative k_max, also for suites without the gravity bound
    assert main(["run", "--k-max", "-1", "--suites", "maxwell",
                 "--out", str(tmp_path / "y.json")]) == 2
    # so is an empty suite list, from a config file as from the flag
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"suites": []}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "z.json")]) == 2


@pytest.mark.parametrize("flags,config", [
    ([], {"k_max": "3"}),
    ([], [2]),
    (["--tol-ode", "-1"], None),
    (["--tol-ode", "0"], None),
    (["--k-dynamics", "-1"], None),
    (["--margin", "nan"], None),
    (["--tol-verdict", "inf"], None),
    (["--suites", ","], None),
    (["--alpha", "0.3,0.3"], None),
    ([], {"alpha_values": [1, 1.0]}),
    (["--alpha", "800"], None),
    ([], {"alpha_values": [0.3, -800]}),
    (["--alpha", "350"], None),
    ([], {"alpha_values": [0.3, -350]}),
    ([], {"tol_verdict": 10**400}),
], ids=["k_max-string", "config-not-object", "tol_ode-negative", "tol_ode-zero",
        "k_dynamics-negative", "margin-nan", "tol_verdict-inf", "suites-empty",
        "alpha-repeated", "alpha-repeated-int-and-float", "alpha-cosh-overflows",
        "alpha-cosh-overflows-in-config", "alpha-covariance-overflows",
        "alpha-covariance-overflows-in-config", "tol_verdict-int-beyond-float"])
def test_bad_config_exits_2(flags, config, tmp_path, monkeypatch):
    # validation alone must reject these (a zero tolerance never returns), so
    # starting a run fails the test
    def no_run(cfg):
        raise AssertionError("a run started")

    monkeypatch.setattr(cli, "run", no_run)
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        flags = flags + ["--config", str(path)]
    assert main(["run", "--suites", "maxwell", *flags,
                 "--out", str(tmp_path / "r.json")]) == 2


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="counts the process's threads in /proc/self/task")
@pytest.mark.parametrize("imports,preset,expected", [
    ("dsvac.cli", {}, dict.fromkeys(BLAS_THREAD_VARIABLES, "1")),
    ("dsvac.cli", {"OPENBLAS_NUM_THREADS": "2"}, {"OPENBLAS_NUM_THREADS": "2"}),
    ("dsvac.cli", {"OMP_NUM_THREADS": "8"}, {"OMP_NUM_THREADS": "8"}),
    ("numpy, dsvac.cli", {}, {}),
], ids=["unset-pins-one", "openblas-kept", "omp-alone-kept", "after-numpy-untouched"])
def test_the_cli_pins_one_blas_thread_unless_one_is_set(imports, preset, expected):
    # a BLAS pool of helper threads spins on the cores of the sector pool;
    # after a matmul large enough to wake it, a pinned process is one thread
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    env["PYTHONPATH"] = str(Path(report.__file__).parents[1])
    env.update(preset)
    code = (f"import os, json, {imports}, numpy as np; a = np.ones((600, 600)); a @ a; "
            f"print(json.dumps({{k: os.environ[k] for k in {BLAS_THREAD_VARIABLES!r} "
            "if k in os.environ}), len(os.listdir('/proc/self/task')))")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    variables, threads = done.stdout.rsplit(maxsplit=1)
    assert json.loads(variables) == expected
    if expected.get("OPENBLAS_NUM_THREADS") == "1":
        assert threads == "1"


def test_importing_the_package_loads_no_numpy():
    # the BLAS pin of dsvac.cli holds only while numpy is not yet loaded, and
    # `import dsvac` runs before it: the package loads sectors and rational
    env = dict(os.environ, PYTHONPATH=str(Path(report.__file__).parents[1]))
    code = "import sys, dsvac; print('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


def test_alpha_ids_do_not_depend_on_how_alpha_was_written(tmp_path, capsys):
    # alpha 1 from a config file and 1.0 from the flag name the same checks
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"alpha_values": [1]}))
    out_config, out_flag = tmp_path / "config.json", tmp_path / "flag.json"
    common = ["run", "--k-max", "2", "--suites", "symmetry"]
    assert main([*common, "--config", str(path), "--out", str(out_config)]) == 0
    assert main([*common, "--alpha", "1", "--out", str(out_flag)]) == 0
    ids = [r["check_id"] for r in json.loads(out_config.read_text())["records"]]
    assert [i for i in ids if i.startswith("alpha-")] == [
        "alpha-unitarity[1.0]", "alpha-sum-rule[1.0]", "alpha-sign-dichotomy[1.0]"]
    capsys.readouterr()
    assert main(["diff", str(out_config), str(out_flag)]) == 0
    assert json.loads(capsys.readouterr().out)["empty"]


def test_alpha_checks_hold_beyond_round_off_at_large_alpha():
    # u = cosh(alpha) + sinh(alpha) S lost its entries e^-|alpha| to
    # cancellation: alpha 5 read 1.5e-12, alpha 8 1.7e-10, and from 19 on the
    # entry had the wrong sign or was 0; exp(alpha S) keeps them to round-off.
    # The bad datum f pairs to -1.875 e^(-2 alpha) per unit norm of f, below
    # the margin from alpha ~ 7.2: its sign is read per unit norm of uf
    alphas = (-300.0, 5.0, 8.0, 19.0, 20.0, 300.0)
    rep = run(RunConfig(k_max=4, suites=("symmetry",), alpha_values=alphas))
    verdicts = {r["check_id"]: r["verdict"] for r in rep["records"]}
    for alpha in alphas:
        for check in ("alpha-unitarity", "alpha-sum-rule", "alpha-sign-dichotomy"):
            assert verdicts[f"{check}[{alpha}]"] == "pass", (check, alpha)


def test_tol_ode_below_the_integrator_floor_exits_2(tmp_path, monkeypatch, capsys):
    # scipy would run any rtol below 100 eps at 100 eps, with a warning only
    monkeypatch.setattr(cli, "run", lambda cfg: pytest.fail("a run started"))
    assert main(["run", "--k-max", "2", "--k-dynamics", "2",
                 "--suites", "identities,maxwell", "--tol-ode", "1e-14",
                 "--out", str(tmp_path / "r.json")]) == 2
    assert f"{radial.RTOL_FLOOR:.3g}" in capsys.readouterr().err
    RunConfig(tol_ode=radial.RTOL_FLOOR).validate()


def test_nan_residual_fails_an_aggregated_check(monkeypatch):
    # max(0.0, nan) is 0.0, so a NaN in one sector must be kept explicitly
    real = report.racah_antiunitarity_residual
    bad = SectorLabel(Family.SCALAR, 1)
    monkeypatch.setattr(report, "racah_antiunitarity_residual",
                        lambda sec: math.nan if sec == bad else real(sec))
    rep = run(RunConfig(k_max=2, suites=("symmetry",), k_dynamics=2))
    rec = next(r for r in rep["records"] if r["check_id"] == "racah-antiunitarity")
    assert rec["verdict"] == "fail"
    assert math.isnan(rec["residual"])
    assert rec["extra"]["worst_sector"] == str(bad)


def test_aggregated_check_names_its_worst_sector(monkeypatch):
    real = report.racah_antiunitarity_residual
    bad = SectorLabel(Family.VECTOR, 2)
    monkeypatch.setattr(report, "racah_antiunitarity_residual",
                        lambda sec: 1e-3 if sec == bad else real(sec))
    rep = run(RunConfig(k_max=3, suites=("symmetry",), k_dynamics=2))
    rec = next(r for r in rep["records"] if r["check_id"] == "racah-antiunitarity")
    assert (rec["sector"], rec["residual"], rec["verdict"]) == ("-", 1e-3, "fail")
    assert rec["extra"] == {"worst_sector": str(bad), "bound": 1e-12}


def test_add_worst_floors_at_zero_and_evaluates_every_sector_in_order():
    col = report._Collector()
    seen = []

    def residual(sec):
        seen.append(sec)
        return {"a": -2.0, "b": -1.0, "c": -1.0, "d": -3.0}[sec]

    col.add_worst("s", "c", "claim", "abcd", residual, 0.0, extra={"note": 1})
    col.add_worst("s", "empty", "claim", (), residual, 0.0, ok=False)
    floored, empty = col.records
    assert seen == list("abcd")
    assert (floored.sector, floored.residual, floored.verdict) == ("-", 0.0, "pass")
    assert floored.extra == {"note": 1, "worst_sector": "b", "bound": 0.0}
    assert (empty.residual, empty.verdict) == (0.0, "fail")
    assert empty.extra["worst_sector"] is None


def test_harmonic_eigenvalue_checks_the_closed_formulas(monkeypatch):
    # the oracle measures the spectra; a wrong closed formula must fail
    import dsvac.sectors as sectors
    monkeypatch.setitem(sectors._EIG_SHIFT, Family.VECTOR, 2)
    rep = run(RunConfig(k_max=0, suites=("oracle",)))
    verdicts = {r["sector"]: r["verdict"] for r in rep["records"]
                if r["check_id"] == "harmonic-eigenvalue"}
    assert len(verdicts) == 9
    assert {sec for sec, v in verdicts.items() if v == "fail"} == {
        f"VectorTransverse({k})" for k in (1, 2, 3)}


def test_q_adjointness_is_relative_to_the_form_scale():
    # the charge form's entries grow like k^4; at Scalar(23) the absolute
    # residual exceeds the verdict tolerance while the relative one is ~1e-15
    cfg = RunConfig(k_max=2, suites=("calderon",))
    art = report._Artifacts(cfg)
    art.sectors = [SectorLabel(Family.SCALAR, 23)]
    col = report._Collector()
    report._suite_calderon(art, col, cfg)
    rec = next(r for r in col.records if r.check_id == "q-adjointness")
    assert rec.verdict == "pass"
    assert rec.residual <= 1e-14
    assert "absolute" in rec.extra


@pytest.mark.slow
def test_gauge_intertwining_is_certified_to_k48(tmp_path):
    # relative to ||c2+|| ||K||; the absolute residual grows with the level
    out = tmp_path / "r.json"
    done = subprocess.run(
        [sys.executable, "-m", "dsvac.cli", "run", "--k-max", "48", "--jobs", "2",
         "--suites", "calderon", "--out", str(out)],
        env={**os.environ, "PYTHONPATH": str(Path(report.__file__).parents[1])})
    assert done.returncode == 0
    rec = next(r for r in json.loads(out.read_text())["records"]
               if r["check_id"] == "projector-gauge-intertwining")
    assert rec["verdict"] == "pass"
    assert rec["extra"]["worst_sector"] in {str(sec) for sec in enumerate_sectors(48)}


@pytest.mark.slow
def test_every_suite_passes_to_k96(tmp_path):
    # every regular basis is the series to MATCH_RADIUS = 1.55 (one
    # recursion per system) plus a 0.021 march, so the k >= 43 sectors
    # hold; the march from 0.15 failed 217 checks here, all at k >= 52
    out = tmp_path / "r.json"
    done = subprocess.run(
        [sys.executable, "-m", "dsvac.cli", "run", "--k-max", "96", "--jobs", "2",
         "--seed", "2026", "--out", str(out)],
        env={**os.environ, "PYTHONPATH": str(Path(report.__file__).parents[1])})
    assert done.returncode == 0
    rep = json.loads(out.read_text())
    assert not has_failures(rep)
    sums = {r["sector"] for r in rep["records"]
            if (r["suite"], r["check_id"]) == ("maxwell", "direct-sums")}
    assert sums == {str(sec) for sec in maxwell_sectors(96)}


def test_internal_error_exit_code(tmp_path, monkeypatch, capsys):
    # an exception inside a suite is exit 3, not a failed check (exit 1)
    def broken(art, col, cfg):
        raise ZeroDivisionError("boom")

    monkeypatch.setitem(report._SUITE_FNS, "oracle", broken)
    out = tmp_path / "r.json"
    assert main(["run", "--k-max", "0", "--suites", "oracle",
                 "--out", str(out)]) == 3
    assert "internal error: ZeroDivisionError: boom" in capsys.readouterr().err
    assert not out.exists()


def test_oracle_at_k_max_zero(tmp_path):
    # fewer than five method-independence candidates: all of them are checked
    out = tmp_path / "r.json"
    assert main(["run", "--k-max", "0", "--suites", "oracle",
                 "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    sampled = [r for r in rep["records"]
               if r["check_id"].startswith("method-independence")]
    assert [r["sector"] for r in sampled] == ["Scalar(0)", "Scalar(0)"]
    assert not has_failures(rep)


def test_spectral_gaps_beyond_the_cap_are_recorded_as_the_cap(monkeypatch):
    # TensorTT(37) D2 has the largest collocation gap of the k <= 48
    # candidates (6.6e15) and Scalar(0) D1 Maxwell the k_max = 0 one
    # (6.8e12): beyond 1e12 the digits are round-off, so both read the cap;
    # an infinite gap reads it too, so the report stays standard JSON
    cfg = RunConfig(k_max=0, suites=("oracle",))
    art = report._Artifacts(cfg)
    art.sectors = [SectorLabel(Family.TENSOR, 37)]
    real = report.collocation_regular_basis
    for infinite in (False, True):
        gaps = []

        def spy(system):
            basis, gap = real(system)
            gaps.append(gap)
            return basis, math.inf if infinite else gap

        monkeypatch.setattr(report, "collocation_regular_basis", spy)
        col = report._Collector()
        report._suite_oracle(art, col, cfg)
        recs = [r for r in col.records if r.check_id.startswith("method-independence")]
        assert sorted(r.sector for r in recs) == ["Scalar(0)", "TensorTT(37)"]
        assert min(gaps) > report.SPECTRAL_GAP_CAP
        assert all(r.verdict == "pass" for r in recs)
        assert [r.extra["spectral_gap"] for r in recs] == [report.SPECTRAL_GAP_CAP] * 2
        json.loads(json.dumps([r.extra for r in recs], allow_nan=False))


def _spy_integrators(monkeypatch):
    """Every ``solve_ivp`` call of a run as (rtol, atol, state size), the
    Lorentzian ones grouped by the ``evolve_raw`` batch that made them:
    returns (marches, [(block dims, solves)] per batch)."""
    marches, batches, open_batch = [], [], []
    real_solve, real_evolve = radial.solve_ivp, report.evolve_raw

    def recording(fun, t_span, y0, **kwargs):
        (open_batch[-1] if open_batch else marches).append(
            (kwargs["rtol"], kwargs["atol"], len(y0)))
        return real_solve(fun, t_span, y0, **kwargs)

    def evolving(batch, t_grid, tol):
        batch = list(batch)
        open_batch.append([])
        try:
            return real_evolve(batch, t_grid, tol=tol)
        finally:
            batches.append((block_dims(batch, t_grid), open_batch.pop()))

    monkeypatch.setattr(radial, "solve_ivp", recording)
    monkeypatch.setattr(report, "evolve_raw", evolving)
    return marches, batches


def test_tol_ode_reaches_every_integrator(monkeypatch):
    # a march runs at tol_ode itself; a Lorentzian batch with d_i real
    # components per system runs at tol_ode * sqrt(d_min / D), which holds
    # every system to tol_ode, in one solve while that stays above the floor
    marches, batches = _spy_integrators(monkeypatch)
    tol = 1e-11
    rep = run(RunConfig(k_max=2, k_dynamics=2, tol_ode=tol))
    assert rep["records"] and not has_failures(rep)
    assert marches and set(marches) == {(tol, tol, size) for *_, size in marches}
    assert len(batches) == 4  # charge conservation, 2 intertwinings, zero mode
    for dims, solves in batches:
        law = tol * math.sqrt(min(dims) / sum(dims))
        assert solves == [(law, law, sum(dims))]
    zero_mode, = [solves for dims, solves in batches if len(dims) == 1]
    assert zero_mode == [(tol, tol, 4)]  # a batch of one runs at tol_ode itself


def test_identities_make_one_lorentzian_solve_per_check(monkeypatch):
    marches, batches = _spy_integrators(monkeypatch)
    rep = run(RunConfig(suites=("identities",)))
    assert not has_failures(rep)
    assert marches == []
    assert [len(solves) for _, solves in batches] == [1, 1, 1]
    assert len(batches[0][0]) == 76  # every charge-conservation system to k = 8


def test_tol_ode_near_the_floor_splits_a_check_into_chunks(monkeypatch):
    # at 1e-13 the scaled tolerance of one solve would fall below scipy's
    # rtol floor, so the batch is cut; scipy's warning would be an error here
    marches, batches = _spy_integrators(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = run(RunConfig(k_max=2, k_dynamics=2, suites=("identities",), tol_ode=1e-13))
    assert not has_failures(rep)
    dims, solves = batches[0]
    assert len(solves) > 1
    assert sum(size for *_, size in solves) == sum(dims)
    assert min(rtol for rtol, *_ in solves) >= radial.RTOL_FLOOR


@pytest.mark.slow
def test_identities_to_k24_make_one_solve_per_check(tmp_path, monkeypatch):
    _, batches = _spy_integrators(monkeypatch)
    assert main(["run", "--k-max", "24", "--k-dynamics", "24", "--suites", "identities",
                 "--out", str(tmp_path / "r.json")]) == 0
    assert [len(solves) for _, solves in batches] == [1, 1, 1]


def test_maxwell_constructions_built_once(monkeypatch):
    # every Maxwell check of a sector shares one projector pair and one
    # phase space, the level-zero ones included
    import dsvac.calderon as calderon
    from dsvac.maxwell import maxwell_sectors
    pairs, spaces = [], []
    real_pair = calderon.calderon_invertible
    real_space = report.maxwell_phase_space

    def counting_pair(sector, operator_id="D2", maxwell=False, **params):
        if maxwell:
            pairs.append(sector)
        return real_pair(sector, operator_id, maxwell, **params)

    def counting_space(sector):
        spaces.append(sector)
        return real_space(sector)

    monkeypatch.setattr(calderon, "calderon_invertible", counting_pair)
    monkeypatch.setattr(report, "maxwell_phase_space", counting_space)
    run(RunConfig(k_max=3, suites=("maxwell",)))
    assert len(pairs) == len(spaces) == 7
    assert sorted(pairs) == sorted(spaces) == sorted(maxwell_sectors(3))


def test_cli_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k_max": 2, "suites": ["maxwell"],
                               "k_dynamics": 2}))
    out = tmp_path / "r.json"
    # flags override the file
    code = main(["run", "--config", str(cfg), "--k-max", "3",
                 "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["config"]["k_max"] == 3
    assert rep["config"]["suites"] == ["maxwell"]


def test_cli_csv_output(tmp_path):
    out = tmp_path / "r.csv"
    code = main(["run", "--k-max", "2", "--suites", "maxwell",
                 "--k-dynamics", "2", "--format", "csv", "--out", str(out)])
    assert code == 0
    assert out.read_text().startswith("suite,")


def test_collector_refuses_a_missing_residual():
    # a residual of None must not read as a perfect 0.0
    with pytest.raises(TypeError):
        report._Collector().add("s", "c", "claim", "-", None, True)


@pytest.mark.parametrize("suite", ["phase_space", "maxwell"])
def test_a_repeated_f_column_fails_the_splitting_and_the_kernel(monkeypatch, suite):
    # the repeated column spans the same F, so the kernel angle stays at
    # round-off: only the dimension conditions can see it
    from dataclasses import replace

    bad = SectorLabel(Family.SCALAR, 3)
    cfg = RunConfig(k_max=3, suites=(suite,))
    art = report._Artifacts(cfg)
    space = art.space

    def repeated(sec, theory=report.GRAVITY):
        ps = space(sec, theory)
        if sec != bad:
            return ps
        return replace(ps, **{part: np.hstack((getattr(ps, part), getattr(ps, part)[:, :1]))
                              for part in ("f_space", "f_gauge")})

    monkeypatch.setattr(art, "space", repeated)
    col = report._Collector()
    report._SUITE_FNS[suite](art, col, cfg)
    recs = {(r.check_id, r.sector): r for r in col.records
            if r.check_id in ("direct-sums", "charge-kernel")}
    assert {key for key, r in recs.items() if r.verdict == "fail"} == {
        ("direct-sums", str(bad)), ("charge-kernel", str(bad))}
    assert recs["charge-kernel", str(bad)].residual <= 1e-10


def test_both_theories_record_the_shared_claims_alike():
    rep = run(RunConfig(k_max=3, suites=("phase_space", "states", "maxwell")))

    def records(suite, check_id):
        return [r for r in rep["records"] if (r["suite"], r["check_id"]) == (suite, check_id)]

    def extra_keys(suite, check_id):
        # a sector with E = 0 records its dimensions only
        return {tuple(sorted(r["extra"])) for r in records(suite, check_id)
                if r["extra"].get("dims", (1,))[0]}

    for gravity, maxwell in ((("phase_space", "direct-sums"), ("maxwell", "direct-sums")),
                             (("phase_space", "charge-kernel"), ("maxwell", "charge-kernel")),
                             (("states", "positivity-gauge-sector"),
                              ("maxwell", "positivity-gauge"))):
        keys = extra_keys(*gravity)
        assert len(keys) == 1 and keys == extra_keys(*maxwell), (gravity, maxwell)
    # positivity on the gauge part is recorded exactly where that part is
    for (suite, check_id), spaces in (
            (("states", "positivity-gauge-sector"),
             map(phase_space_sector, enumerate_sectors(3))),
            (("maxwell", "positivity-gauge"), map(maxwell_phase_space, maxwell_sectors(3)))):
        gauge = {str(ps.sector) for ps in spaces if ps.e_gauge.shape[1]}
        assert gauge and {r["sector"] for r in records(suite, check_id)} == gauge


def test_maxwell_gauge_positivity_takes_both_signs(monkeypatch):
    # lower lambda- by 1e-3 times the data Gram: its lowest eigenvalue on
    # E_gauge becomes about -1e-3 while lambda+ is untouched
    from dataclasses import replace

    from dsvac.cauchy import MAXWELL, data_gram

    cfg = RunConfig(k_max=1, suites=("maxwell",))
    art = report._Artifacts(cfg)
    cov = art.cov

    def shifted(sec, variant="euclidean_vacuum", alpha=0.0, theory=report.GRAVITY):
        c = cov(sec, variant, alpha, theory)
        if theory is not MAXWELL or variant != "euclidean_vacuum":
            return c
        return replace(c, lambda_minus=c.lambda_minus - 1e-3 * data_gram(sec, 1))

    monkeypatch.setattr(art, "cov", shifted)
    col = report._Collector()
    report._suite_maxwell(art, col, cfg)
    recs = [r for r in col.records if r.check_id == "positivity-gauge"]
    assert recs and all(r.verdict == "fail" for r in recs)
    assert all(abs(r.residual - 1e-3) <= 1e-6 for r in recs)


def test_lorentzian_checks_fail_on_perturbed_evolution(monkeypatch):
    # 1e-6 of noise on every evolved trajectory fails each check that reads
    # evolve_raw; the charge check sees it only because its data are complex
    # (the charge of real data is 0 whatever the trajectory)
    real_evolve = report.evolve_raw
    rng = np.random.default_rng(5)

    def noisy(batch, t_grid, tol):
        return [(us + 1e-6 * rng.normal(size=us.shape), dus + 1e-6 * rng.normal(size=dus.shape))
                for us, dus in real_evolve(batch, t_grid, tol=tol)]

    monkeypatch.setattr(report, "evolve_raw", noisy)
    rep = run(RunConfig(k_max=4, suites=("identities", "maxwell")))
    lorentzian = ("charge-conservation", "gauge-evolution-intertwining",
                  "adjoint-evolution-intertwining", "zero-mode-profile")
    verdicts = {r["check_id"]: r["verdict"] for r in rep["records"]
                if r["check_id"] in lorentzian}
    assert verdicts == dict.fromkeys(lorentzian, "fail")


def test_charge_conservation_records_the_levels_it_evolved():
    cfg = RunConfig(k_max=1, k_dynamics=8, suites=("identities",))
    col = report._Collector()
    report._suite_identities(report._Artifacts(cfg), col, cfg)
    rec = next(r for r in col.records if r.check_id == "charge-conservation")
    assert rec.extra["k_max"] == 1


def _fake_pool(monkeypatch):
    """Replace the process pool by one that records the worker count it is
    asked for and runs at submission the chunks a real pool hands its
    workers ahead of time (one per worker, plus one); the rest stay pending
    for the join to cancel.  The pair builders record the task they are
    asked for, and in which role, and build nothing."""
    import concurrent.futures

    seen, built = [], []
    role = ["parent"]

    def fake_builder(name):
        def build(sec, operator_id, tol):
            built.append((role[0], name, operator_id, sec))
        return build

    gravity = fake_builder("gravity")
    monkeypatch.setattr(report, "projector_pair",
                        lambda theory, *args, **kw: gravity(*args, **kw))
    monkeypatch.setattr(report, "maxwell_projector_pair", fake_builder("maxwell"))

    class FakePool:
        def __init__(self, max_workers):
            seen.append(max_workers)
            self.ahead = max_workers + 1

        def submit(self, fn, chunk):
            future = concurrent.futures.Future()
            if self.ahead:
                self.ahead -= 1
                future.set_running_or_notify_cancel()
                role[0] = "worker"
                future.set_result(fn(chunk))
                role[0] = "parent"
            return future

        def shutdown(self, wait=True, cancel_futures=False):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    return seen, built


def test_pool_starts_no_more_workers_than_tasks(monkeypatch):
    # with the fork start method every worker is launched up front; the
    # parent is one of the jobs, and a worker gets at least a chunk
    seen, built = _fake_pool(monkeypatch)
    art = report._Artifacts(RunConfig(k_max=1, jobs=64))
    art._prewarm()
    tasks = sum(1 for key in art._cache if key[0] == "pair")
    chunks = -(-tasks // report._CHUNK)
    assert seen == [min(63, chunks)] and 0 < tasks < 64
    assert art._pool is None


@pytest.mark.parametrize("suites", [
    ("oracle", "identities"), ("phase_space",), ("maxwell",), ("states",),
    ("calderon",), ("gauge", "maxwell"), report.ALL_SUITES], ids=str)
def test_pool_builds_only_the_pairs_the_suites_read(suites, monkeypatch):
    from dsvac.cauchy import DataLayout
    from dsvac.maxwell import SCALAR0, maxwell_sectors
    from dsvac.sectors import enumerate_sectors

    seen, built = _fake_pool(monkeypatch)
    art = report._Artifacts(RunConfig(k_max=3, suites=suites, jobs=2))
    # nothing is built here before the join
    assert all(who == "worker" for who, *_ in built)
    art._prewarm()
    want = set()
    if {"calderon", "states", "gauge", "symmetry"} & set(suites):
        want |= {("gravity", "D2", sec) for sec in enumerate_sectors(3)}
    if "calderon" in suites:
        want |= {("gravity", "D1", sec) for sec in enumerate_sectors(3)
                 if DataLayout(sec, 1).size}
    if "maxwell" in suites:
        want |= {("maxwell", "D1", sec) for sec in maxwell_sectors(3)}
        want.add(("maxwell", "D0", SCALAR0))
    assert {key[1:] for key in art._cache if key[0] == "pair"} == want
    # each pair is built once, by the one worker or by the parent at the join
    assert sorted(task[1:] for task in built) == sorted(want)
    chunks = -(-len(want) // report._CHUNK)
    assert sum(who == "worker" for who, *_ in built) == min(len(want), 2 * report._CHUNK)
    assert art.pair_free == tuple(s for s in suites
                                  if s in ("oracle", "identities", "phase_space"))
    # no task, no pool; the parent is one of the two jobs
    assert seen == ([min(1, chunks)] if want else [])
    assert art._pool is None
