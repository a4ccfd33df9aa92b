import json

import pytest

from dsvac.cli import main
from dsvac.report import RunConfig, diff_reports, has_failures, run, to_csv, to_json


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
    serial = run(RunConfig(k_max=3, suites=("calderon",), jobs=1))
    parallel = run(RunConfig(k_max=3, suites=("calderon",), jobs=2))
    c1, c2 = json.loads(_canon(serial)), json.loads(_canon(parallel))
    c1["config"].pop("jobs")
    c2["config"].pop("jobs")
    assert c1 == c2


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


def test_cli_config_rejection(tmp_path):
    # gravity suites at k_max=1 are rejected with exit code 2
    assert main(["run", "--k-max", "1", "--out", str(tmp_path / "x.json")]) == 2
    # so is a negative k_max, also for suites without the gravity bound
    assert main(["run", "--k-max", "-1", "--suites", "maxwell",
                 "--out", str(tmp_path / "y.json")]) == 2


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


def test_tol_ode_reaches_every_integrator(monkeypatch):
    import dsvac.radial as radial
    seen = []
    real_solve = radial.solve_ivp

    def recording(*args, **kwargs):
        seen.append((kwargs["rtol"], kwargs["atol"]))
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(radial, "solve_ivp", recording)
    rep = run(RunConfig(k_max=2, k_dynamics=2, tol_ode=1e-11))
    assert rep["records"]
    assert seen and set(seen) == {(1e-11, 1e-11)}


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
