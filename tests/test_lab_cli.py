import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kquant import (
    ACCEPTANCE,
    AutomorphismLift,
    EXPERIMENTS,
    SBAR,
    ExperimentConfig,
    KQuantError,
    Report,
    Series,
    Verdict,
    emit_report,
    fit_power_law,
    holomorphy_potential,
    metric_data,
    psi_potential,
    report_from_json,
    rotation_field,
    run_experiment,
)
import kquant
from kquant.cli import main as cli_main
from kquant.reporting import CSV_HEADER

SRC = Path(__file__).resolve().parents[1] / "src"


def test_fit_power_law_exact_synthetic():
    pairs = [(k, 5.0 / k) for k in (4, 8, 16, 32)]
    fit = fit_power_law(pairs)
    assert abs(fit.exponent - 1.0) <= 1e-6
    assert abs(fit.coefficient - 5.0) <= 1e-6
    assert fit.residual <= 1e-12


def test_fit_power_law_constant_series():
    fit = fit_power_law([(k, 0.7) for k in (2, 4, 8)])
    assert abs(fit.exponent) <= 1e-9


def test_fit_power_law_excludes_nonpositive():
    fit = fit_power_law([(2, 1.0), (4, 0.5), (8, -1.0), (16, 0.125)])
    assert fit.flag == "excluded=1"
    assert fit.exponent > 0


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_fit_power_law_rejects_non_finite(bad):
    with pytest.raises(KQuantError, match="non-finite"):
        fit_power_law([(8, 1.0), (16, 0.5), (32, 0.25), (64, bad)])


@pytest.mark.parametrize("ks", [(128, 256, 512, 1024), (1024, 2048, 4096)], ids=["to-1024", "to-4096"])
def test_bergman_expansion_passes_past_degree_1024(ks):
    # log-diagonal radial forms keep the density finite at every degree
    rep = run_experiment(ExperimentConfig("bergman-expansion", k_list=ks))
    assert all(np.isfinite(rep.series[0].values))
    assert rep.passed


def test_overflow_aborts_to_a_failing_verdict(monkeypatch):
    # an overflow inside a run must abort it rather than reach a verdict as inf
    def overflowing(ctx):
        np.exp(np.array([1000.0]))
        raise AssertionError("the overflow did not raise")

    monkeypatch.setitem(EXPERIMENTS, "bergman-expansion", (overflowing, *EXPERIMENTS["bergman-expansion"][1:]))
    rep = run_experiment(ExperimentConfig("bergman-expansion", resolution=16))
    assert not rep.passed
    assert [v.criterion for v in rep.verdicts] == ["completed"]
    assert any("overflow" in n for n in rep.notes)


def test_fit_power_law_exact_floor_flag():
    fit = fit_power_law([(k, 1e-15) for k in (2, 4, 8)])
    assert fit.flag == "exact"


def test_fit_power_law_needs_three_points():
    with pytest.raises(KQuantError):
        fit_power_law([(2, 1.0), (4, 0.5)])


def test_config_validation():
    for name in ("nope", "all"):  # the CLI expands "all"; a config names one experiment
        with pytest.raises(KQuantError, match="unknown experiment"):
            ExperimentConfig(experiment=name)
    with pytest.raises(KQuantError):
        ExperimentConfig(experiment="bergman-expansion", k_list=(8, 8))
    with pytest.raises(KQuantError):
        ExperimentConfig(experiment="bergman-expansion", resolution=4)


@pytest.mark.parametrize(
    "fields",
    [
        {"formats": ("json", "pdf")},
        {"grid_mode": "spherical"},
        {"grid_mode": "full2d", "n_theta": 4, "k_list": (2, 3, 4)},
        {"n_theta": 7},
        # section pairings of degree 64 alias on 32 or 64 angular nodes
        {"grid_mode": "full2d", "resolution": 96, "n_theta": 32},
        {"grid_mode": "full2d", "resolution": 96, "n_theta": 64, "k_list": (16, 32, 64)},
    ],
)
def test_config_rejects_bad_grid_and_format(fields):
    with pytest.raises(KQuantError):
        ExperimentConfig(experiment="almost-balanced", **fields)


def test_config_accepts_resolved_full2d_degrees():
    cfg = ExperimentConfig(
        "almost-balanced", grid_mode="full2d", resolution=96, n_theta=64, k_list=(16, 32, 48)
    )
    assert cfg.k_list == (16, 32, 48)
    ExperimentConfig("almost-balanced", grid_mode="full2d", resolution=96, n_theta=64, k_list=(16, 32, 63))


def test_config_fields_pinned():
    # the twist and the acceptance thresholds are not settable
    assert [f.name for f in dataclasses.fields(ExperimentConfig)] == [
        "experiment",
        "k_list",
        "grid_mode",
        "resolution",
        "n_theta",
        "potential",
        "seed",
        "out_dir",
        "formats",
    ]


def test_experiment_registry_complete():
    assert sorted(EXPERIMENTS) == [
        "almost-balanced",
        "bergman-expansion",
        "compare-LZ",
        "hessian-check",
        "i-concavity",
        "minimization",
        "path-independence",
        "psi-expansion",
        "quantize-E",
        "z-convexity",
    ]


def test_report_json_roundtrip(tmp_path):
    rep = Report(
        experiment="demo",
        series=[Series("s", [2, 4], [1.0, 0.5], fit_power_law([(2, 1.0), (4, 0.5), (8, 0.25)]))],
        verdicts=[Verdict("check", 0.5, 1.0)],
        environment={"resolution": 64},
        notes=["note"],
    )
    back = report_from_json(rep.to_json())
    assert back.to_json() == rep.to_json()


@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        "[1, 2]",
        '{"series": [], "verdicts": []}',
        '{"experiment": "demo", "verdicts": [{"criterion": "check", "value": 0.5}]}',
        '{"experiment": "demo", "series": [{"label": "s", "ks": [2], "values": [1.0], "fit": {"coefficient": 1.0}}]}',
    ],
    ids=["not-json", "not-object", "no-experiment", "verdict-field", "fit-field"],
)
def test_report_from_json_rejects_malformed(text):
    with pytest.raises(KQuantError):
        report_from_json(text)


def test_report_json_recomputes_passed():
    raw = json.loads(Report(experiment="demo", verdicts=[Verdict("check", 2.0, 1.0)]).to_json())
    raw["verdicts"][0]["passed"] = raw["passed"] = True
    back = report_from_json(json.dumps(raw))
    assert not back.verdicts[0].passed and not back.passed


def test_emit_csv_header_and_svg_polylines(tmp_path):
    rep = Report(
        experiment="demo",
        series=[
            Series("a", [2, 4, 8], [1.0, 0.5, 0.25], None),
            Series("b", [2, 4, 8], [2.0, 1.0, 0.5], None),
        ],
        verdicts=[Verdict("check", 0.5, 1.0)],
    )
    paths = emit_report(rep, ["csv", "json", "svg"], tmp_path)
    csv_text = (tmp_path / "demo.csv").read_text()
    assert csv_text.splitlines()[0] == ",".join(CSV_HEADER)
    svg_text = (tmp_path / "demo.svg").read_text()
    assert svg_text.count("<polyline") == 2
    parsed = json.loads((tmp_path / "demo.json").read_text())
    assert parsed["experiment"] == "demo" and parsed["passed"] is True


def test_emit_report_unwritable_path(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("x")
    rep = Report(experiment="demo")
    with pytest.raises(RuntimeError):
        emit_report(rep, ["json"], blocker / "sub")


def test_report_determinism():
    cfg = ExperimentConfig(
        experiment="bergman-expansion", k_list=(8, 16, 32), resolution=128, seed=5
    )
    a = run_experiment(cfg).to_json()
    b = run_experiment(cfg).to_json()
    assert a == b


def test_environment_echo():
    cfg = ExperimentConfig(experiment="bergman-expansion", k_list=(4, 8, 16), resolution=128)
    rep = run_experiment(cfg)
    env = rep.environment
    assert env["volume"] == 1.0 and env["mean_scalar"] == 2.0
    assert env["resolution"] == 128
    assert env["twist_rate_constant"] == pytest.approx(-math.pi / 2.0)
    # what ran: the package, numpy and the BLAS numpy was built against
    assert env["kquant"] == kquant.__version__
    assert env["numpy"] == np.__version__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert env["blas"] == f"{blas['name']} {blas['version']}"
    assert json.loads(rep.to_json())["environment"]["blas"] == env["blas"]


def test_exact_series_flagged():
    # the flat potential gives the exact density of states at every degree
    cfg = ExperimentConfig(
        experiment="bergman-expansion",
        k_list=(4, 8, 16),
        resolution=128,
        potential=(0.0,),
    )
    rep = run_experiment(cfg)
    assert rep.series[0].fit.flag == "exact"
    assert rep.passed


def calibrate_twist_constant(pot, V, k: int = 48, window: tuple[float, float] = (-2.5, -0.5)) -> float:
    """Golden-section fit of the twist rate constant.

    Minimizes the sup-residual of the degree-k twist potential expansion
    kappa = sup |k psi_k - (theta + 2)/2| over the rate constant; the
    minimizer sits at -pi/2 for the gradient conventions used here.
    """
    md = metric_data(pot)
    target = (holomorphy_potential(V, pot, md) + SBAR) / 2.0

    def resid(c0):
        lift = AutomorphismLift(scale=V.flow_scale(-c0 / k), degree=k)
        psi = psi_potential(lift, pot, md=md)
        return float(np.max(np.abs(k * psi.values - target)))

    gr = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = window
    c, d = b - gr * (b - a), a + gr * (b - a)
    for _ in range(40):
        if resid(c) < resid(d):
            b, d = d, c
            c = b - gr * (b - a)
        else:
            a, c = c, d
            d = a + gr * (b - a)
    return 0.5 * (a + b)


def test_calibrated_rate_constant(bump):
    c0 = calibrate_twist_constant(bump, rotation_field(1.0), k=48)
    assert abs(c0 - (-math.pi / 2.0)) <= 0.05


def test_cli_list(capsys):
    assert cli_main(["list"]) == 0
    out = capsys.readouterr().out.split()
    assert "bergman-expansion" in out and len(out) == 10


def test_cli_run_and_exit_codes(tmp_path, capsys):
    rc = cli_main(
        [
            "run",
            "--experiment",
            "bergman-expansion",
            "--resolution",
            "128",
            "--out",
            str(tmp_path),
            "--format",
            "csv,json",
        ]
    )
    assert rc == 0
    assert (tmp_path / "bergman-expansion.json").exists()
    assert (tmp_path / "bergman-expansion.csv").exists()
    out = capsys.readouterr().out
    assert out.startswith("PASS bergman-expansion")


def test_cli_config_file_and_overrides(tmp_path, capsys):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text(
        "# demo config\n"
        "k_list = 1 2 3\n"  # pre-asymptotic degrees: the fit exponent misses 0.9
        "resolution = 128\n"
        "seed = 9\n"
        "potential = 0.05 -0.07\n"
    )
    rc = cli_main(
        ["run", "--experiment", "bergman-expansion", "--config", str(cfg), "--out", str(tmp_path)]
    )
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_unknown_format_fails_before_running(tmp_path, capsys):
    out = tmp_path / "reports"
    rc = cli_main(["run", "--experiment", "minimization", "--format", "pdf", "--out", str(out)])
    assert rc == 2
    assert "pdf" in capsys.readouterr().err
    assert not out.exists()


def test_cli_unknown_grid_mode_fails_before_running(tmp_path, capsys):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("grid_mode = spherical\n")
    out = tmp_path / "reports"
    rc = cli_main(["run", "--experiment", "minimization", "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    assert "spherical" in capsys.readouterr().err
    assert not out.exists()


def test_cli_unusable_output_directory_fails_before_running(tmp_path, capsys, monkeypatch):
    import kquant.cli

    runs = []
    monkeypatch.setattr(kquant.cli, "run_experiment", lambda cfg: runs.append(cfg))
    blocker = tmp_path / "file"
    blocker.write_text("")
    for experiment in ("minimization", "all"):
        for out in (blocker / "sub", blocker):
            rc = cli_main(["run", "--experiment", experiment, "--out", str(out)])
            assert rc == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "invalid config" in err and "output directory" in err
    assert runs == [] and blocker.read_text() == "" and list(tmp_path.iterdir()) == [blocker]


def test_cli_report_path_that_is_a_directory_fails_before_running(tmp_path, capsys, monkeypatch):
    import kquant.cli

    runs = []
    monkeypatch.setattr(kquant.cli, "run_experiment", lambda cfg: runs.append(cfg))
    (tmp_path / "minimization.json").mkdir()
    rc = cli_main(["run", "--experiment", "minimization", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "invalid config for minimization" in err and "minimization.json" in err
    assert runs == [] and list(tmp_path.iterdir()) == [tmp_path / "minimization.json"]
    assert list((tmp_path / "minimization.json").iterdir()) == []


@pytest.mark.parametrize(
    "experiment, ks",
    [
        ("bergman-expansion", "8,16"),
        ("psi-expansion", "8,16"),
        ("compare-LZ", "8,16"),
        ("quantize-E", "8,16"),
        ("almost-balanced", "8"),
        ("path-independence", "16"),  # its fit adds 16 and 32: still two degrees
        ("path-independence", "16,32"),
    ],
)
def test_cli_too_few_fitted_degrees_fail_before_running(tmp_path, capsys, monkeypatch, experiment, ks):
    import kquant.cli

    runs = []
    monkeypatch.setattr(kquant.cli, "run_experiment", lambda cfg: runs.append(cfg))
    out = tmp_path / "reports"
    assert cli_main(["run", "--experiment", experiment, "--k", ks, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"invalid config for {experiment}" in err and "at least 3" in err
    assert runs == [] and not out.exists()


def test_config_counts_only_the_degrees_an_experiment_fits():
    assert ExperimentConfig("path-independence", k_list=(4,)).k_list == (4,)
    assert ExperimentConfig("hessian-check", k_list=(8,)).k_list == (8,)
    for name in EXPERIMENTS:  # every default passes
        ExperimentConfig(name)


@pytest.mark.parametrize("ks", ["8,16,32", "8 16 32", "8, 16, 32"])
def test_cli_degree_flag_reads_the_config_file_grammar(tmp_path, capsys, monkeypatch, ks):
    import kquant.cli

    runs = []
    monkeypatch.setattr(kquant.cli, "run_experiment", lambda cfg: runs.append(cfg) or Report(cfg.experiment))
    argv = ["run", "--experiment", "bergman-expansion", "--k", ks, "--format", "json, csv", "--out", str(tmp_path)]
    assert cli_main(argv) == 0
    assert [(cfg.k_list, cfg.formats) for cfg in runs] == [((8, 16, 32), ("json", "csv"))]


def test_cli_report_write_failure_after_the_run_exits_2(tmp_path, capsys, monkeypatch):
    import kquant.cli

    def refuse(report, formats, out_dir):
        raise RuntimeError("cannot write report file: disk full")

    monkeypatch.setattr(kquant.cli, "run_experiment", lambda cfg: Report(cfg.experiment))
    monkeypatch.setattr(kquant.cli, "emit_report", refuse)
    rc = cli_main(["run", "--experiment", "minimization", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "minimization" in err and "disk full" in err


@pytest.mark.parametrize(
    "text, flags, names",
    [
        ("resolution 128\n", [], "bad.cfg:1"),
        ("resolution = abc\n", [], "'abc'"),
        (None, [], "bad.cfg"),
        ("", ["--k", "8,x"], "'x'"),
        ("group = circle\n", [], "'group'"),
        ("twist_rate = -1.5\n", [], "'twist_rate'"),
        ("calibrate = true\n", [], "'calibrate'"),
        ("tol.bergman_fit_p = 5.0\n", [], "'tol.bergman_fit_p'"),
        ("", ["--resolution", "abc"], "'abc'"),
        ("potential = nan -0.07\n", [], "finite"),
        ("", ["--seed", "-1"], "seed"),
        # the later --experiment wins; i-concavity fails whenever its first degree exceeds 32
        ("", ["--experiment", "i-concavity", "--k", "64,128,256,512"], "degree <= 32"),
    ],
    ids=[
        "no-equals", "non-numeric", "missing-file", "bad-k", "removed-key", "twist-rate", "calibrate", "tolerance",
        "bad-resolution", "nan-potential", "negative-seed", "concavity-first-degree",
    ],
)
def test_cli_invalid_config_line(tmp_path, capsys, text, flags, names):
    cfg = tmp_path / "bad.cfg"
    if text is not None:
        cfg.write_text(text)
    out = tmp_path / "reports"
    argv = ["run", "--experiment", "bergman-expansion", "--config", str(cfg), "--out", str(out)]
    assert cli_main(argv + flags) == 2
    err = capsys.readouterr().err
    assert "invalid config" in err and names in err
    assert not out.exists()


def test_console_script_installed():
    # the subprocess does not see pytest's own path, so it gets src explicitly
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    proc = subprocess.run(
        [sys.executable, "-m", "kquant.cli", "list"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert "z-convexity" in proc.stdout


def test_experiment_abort_becomes_failing_verdict():
    cfg = ExperimentConfig(
        experiment="bergman-expansion",
        k_list=(4, 8, 16),
        resolution=128,
        potential=(2.5,),  # not a Kahler potential
    )
    rep = run_experiment(cfg)
    assert not rep.passed
    assert any("aborted" in n for n in rep.notes)


SAMPLES_512 = "mode: radial\nresolution: 512\nvalues: {} " + "0 " * 511 + "\n"


@pytest.mark.parametrize(
    "text",
    [
        "mode: radial\nresolution: 512\nvalues: 0 0 0\n",
        None,
        SAMPLES_512.format("nan"),
        SAMPLES_512.format("-inf"),
        "coeffs: nan 0.1\n",
    ],
    ids=["value-count", "missing", "nan-value", "inf-value", "nan-coeff"],
)
def test_cli_bad_potential_file_exits_2(tmp_path, capsys, text):
    pot = tmp_path / "pot.txt"
    if text is not None:
        pot.write_text(text)
    cfg = tmp_path / "lab.cfg"
    cfg.write_text(f"potential = {pot}\n")
    out = tmp_path / "reports"
    rc = cli_main(["run", "--experiment", "minimization", "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    assert "invalid input" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_verdict_on_non_finite_value_fails(value):
    assert not Verdict("check", value, 1.0).passed
    assert Verdict("check", 0.5, 1.0).passed


def test_verdict_works_out_passed_from_comparison():
    assert Verdict("check", 1.5, 1.0, ">=").passed and not Verdict("check", 0.5, 1.0, ">=").passed
    assert not Verdict("check", 1.5, 1.0).passed
    with pytest.raises(ValueError, match="'<'"):
        Verdict("check", 0.5, 1.0, "<")


def test_minimization_with_one_nan_gap_fails(monkeypatch):
    import kquant.lab

    calls = []

    def gap(pot, group):
        calls.append(pot)
        return math.nan if len(calls) == 2 else 1.0

    monkeypatch.setattr(kquant.lab.F, "modified_k_energy", gap)
    rep = run_experiment(ExperimentConfig(experiment="minimization", resolution=64))
    assert len(calls) == 100
    assert [math.isnan(v.value) for v in rep.verdicts] == [True, False]
    assert [v.passed for v in rep.verdicts] == [False, True]
