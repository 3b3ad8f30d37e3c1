"""Tests for config loading, suite orchestration, and report emission."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dyadica import cli
from dyadica.cli import (
    CheckRecord,
    ExperimentConfig,
    config_to_dict,
    emit_report,
    load_config,
    main,
    run_suite,
)
from dyadica.errors import ConfigurationError, ContractError


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


# -- configuration --------------------------------------------------------


def test_minimal_config_gets_defaults(tmp_path):
    path = write_config(tmp_path, {"suite": "haar-verify", "seed": 1})
    config = load_config(path)
    assert config.suite == "haar-verify"
    assert config.seed == 1
    assert config.levels == (6,)
    assert config.r == 3
    assert config.gamma is None
    assert config.samples == 20
    assert config.format == "json"


def test_invalid_exponent_pair_names_the_field(tmp_path):
    path = write_config(
        tmp_path, {"suite": "weights", "seed": 1, "exponents": [[2.0, 0.5]]}
    )
    with pytest.raises(ConfigurationError, match=r"exponents\[0\]"):
        load_config(path)


def test_config_round_trip(tmp_path):
    path = write_config(
        tmp_path,
        {
            "suite": "all",
            "seed": 11,
            "levels": [4, 6],
            "lambdas": [0.3, 0.7],
            "exponents": [[4.0 / 3.0, 0.5]],
            "weights": [[0.2, 0.25]],
            "samples": 7,
            "format": "csv",
        },
    )
    config = load_config(path)
    replay = write_config(tmp_path, config_to_dict(config), name="replay.json")
    assert load_config(replay) == config


def test_config_validation_errors(tmp_path):
    cases = [
        ({"suite": "nope", "seed": 1}, "suite"),
        ({"suite": "norms"}, "seed"),
        ({"suite": "norms", "seed": True}, "seed"),
        ({"suite": "norms", "seed": 1, "levels": [4, 20]}, r"levels\[1\]"),
        ({"suite": "norms", "seed": 1, "lambdas": [1.5]}, r"lambdas\[0\]"),
        ({"suite": "norms", "seed": 1, "weights": [[1.5, 0.0]]}, r"weights\[0\]"),
        ({"suite": "norms", "seed": 1, "gamma": 0.9}, "gamma"),
        ({"suite": "norms", "seed": 1, "samples": 0}, "samples"),
        ({"suite": "norms", "seed": 1, "format": "xml"}, "format"),
        ({"suite": "norms", "seed": 1, "bogus": 2}, "bogus"),
    ]
    for data, needle in cases:
        path = write_config(tmp_path, data)
        with pytest.raises(ConfigurationError, match=needle):
            load_config(path)


def test_parse_error_reports_the_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"suite": "norms",\n  seed: 1}', encoding="utf-8")
    with pytest.raises(ConfigurationError, match="line 2"):
        load_config(path)


def test_missing_config_file(tmp_path):
    with pytest.raises(ConfigurationError, match="not found"):
        load_config(tmp_path / "absent.json")


# -- report emission ------------------------------------------------------


def sample_record(passed=True):
    return CheckRecord(
        name="demo-check",
        anchor="demo-anchor",
        value=0.5,
        threshold=1.0,
        passed=passed,
    )


def test_empty_record_list_yields_valid_json(tmp_path):
    path = tmp_path / "report.json"
    emit_report([], "json", path, meta={"seed": 3, "levels": [4]})
    data = json.loads(path.read_text(encoding="utf-8"))
    assert data["checks"] == []
    assert data["meta"]["seed"] == 3
    assert data["meta"]["version"]


def test_single_record_round_trips_through_json(tmp_path):
    path = tmp_path / "report.json"
    record = sample_record()
    emit_report([record], "json", path)
    data = json.loads(path.read_text(encoding="utf-8"))
    assert data["checks"] == [
        {
            "name": "demo-check",
            "paper_anchor": "demo-anchor",
            "value": 0.5,
            "threshold": 1.0,
            "pass": True,
        }
    ]


def test_single_record_makes_one_csv_row(tmp_path):
    path = tmp_path / "report.csv"
    emit_report([sample_record(passed=False)], "csv", path)
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "check,anchor,value,threshold,pass"
    assert lines[1] == "demo-check,demo-anchor,0.5,1.0,false"
    assert len(lines) == 2


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(ConfigurationError):
        emit_report([], "xml", tmp_path / "report.xml")


# -- suite runs -----------------------------------------------------------


def test_haar_suite_passes_at_level_six(tmp_path):
    config = ExperimentConfig(
        suite="haar-verify", seed=7, levels=(6,), samples=5, out=str(tmp_path)
    )
    outcome = run_suite(config)
    assert outcome.exit_code == 0
    recon = [r for r in outcome.records if "reconstruction" in r.name]
    assert recon and recon[0].value <= 1e-12
    report = json.loads(outcome.report_path.read_text(encoding="utf-8"))
    assert report["meta"]["seed"] == 7
    assert all(check["pass"] for check in report["checks"])


def test_identical_configs_give_identical_bytes(tmp_path):
    results = []
    for tag in ("one", "two"):
        config = ExperimentConfig(
            suite="decompose",
            seed=5,
            levels=(4,),
            samples=3,
            out=str(tmp_path / tag),
            format="csv",
        )
        outcome = run_suite(config)
        results.append(
            (
                outcome.report_path.read_bytes(),
                outcome.samples_path.read_bytes(),
            )
        )
    assert results[0] == results[1]


def test_represent_suite_flags_mean_subtraction(tmp_path):
    config = ExperimentConfig(
        suite="represent", seed=2, levels=(4,), samples=2, out=str(tmp_path)
    )
    outcome = run_suite(config)
    assert outcome.exit_code == 0
    names = [r.name for r in outcome.records]
    assert "represent-mean-subtraction" in names


def test_contract_error_becomes_failing_record(tmp_path, monkeypatch):
    def broken(config):
        raise ContractError("synthetic failure")

    monkeypatch.setitem(cli._SUITE_FUNCTIONS, "norms", broken)
    config = ExperimentConfig(suite="norms", seed=1, out=str(tmp_path))
    outcome = run_suite(config)
    assert outcome.exit_code == 1
    assert outcome.records[0].name == "norms-contract-error"
    assert not outcome.records[0].passed
    report = json.loads(outcome.report_path.read_text(encoding="utf-8"))
    assert report["checks"][0]["pass"] is False


def test_numerical_crash_keeps_the_other_suites(tmp_path, monkeypatch):
    def crashing(config):
        raise FloatingPointError("overflow encountered in power")

    monkeypatch.setitem(cli._SUITE_FUNCTIONS, "norms", crashing)
    config = ExperimentConfig(
        suite="all", seed=9, levels=(3,), samples=2, out=str(tmp_path)
    )
    outcome = run_suite(config)
    assert outcome.exit_code == 1
    report = json.loads(outcome.report_path.read_text(encoding="utf-8"))
    failed = [c for c in report["checks"] if not c["pass"]]
    assert [(c["name"], c["paper_anchor"]) for c in failed] == [
        ("norms-crash", "error-FloatingPointError")
    ]
    assert len(report["checks"]) > 1
    with outcome.samples_path.open(encoding="utf-8") as fh:
        sampled = {row["suite"] for row in csv.DictReader(fh)}
    assert sampled == set(cli.SUITES) - {"norms"}


def test_strict_mode_promotes_stability_warnings(tmp_path, monkeypatch):
    soft_fail = CheckRecord(
        name="norms-wobble",
        anchor="stability",
        value=0.9,
        threshold=0.5,
        passed=False,
        hard=False,
    )

    def fake(config):
        return [soft_fail], []

    monkeypatch.setitem(cli._SUITE_FUNCTIONS, "norms", fake)
    config = ExperimentConfig(suite="norms", seed=1, out=str(tmp_path))
    assert run_suite(config, strict=False).exit_code == 0
    assert run_suite(config, strict=True).exit_code == 1


def test_thread_cap_validation(tmp_path, monkeypatch):
    monkeypatch.setenv("DYADICA_THREADS", "many")
    config = ExperimentConfig(suite="weights", seed=1, out=str(tmp_path))
    with pytest.raises(ConfigurationError, match="DYADICA_THREADS"):
        run_suite(config)


def test_parallel_and_serial_runs_agree(tmp_path, monkeypatch):
    blobs = []
    for tag, threads in (("serial", "1"), ("parallel", "4")):
        monkeypatch.setenv("DYADICA_THREADS", threads)
        config = ExperimentConfig(
            suite="all",
            seed=9,
            levels=(3,),
            samples=2,
            out=str(tmp_path / tag),
        )
        outcome = run_suite(config)
        blobs.append(
            (
                outcome.report_path.read_bytes(),
                outcome.samples_path.read_bytes(),
                outcome.exit_code,
            )
        )
    assert blobs[0] == blobs[1]
    assert blobs[0][2] == 0


# -- command line ---------------------------------------------------------


def test_main_runs_a_suite(tmp_path, capsys):
    code = main(["weights", "--seed", "3", "--level", "4", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "weights-duality-identity: pass" in out
    assert (tmp_path / "report.json").is_file()
    assert (tmp_path / "samples.csv").is_file()


def test_main_requires_a_seed(tmp_path, capsys):
    code = main(["norms", "--out", str(tmp_path)])
    assert code == 2
    assert "seed" in capsys.readouterr().err


def test_main_overrides_config(tmp_path, capsys):
    path = write_config(
        tmp_path,
        {"suite": "all", "seed": 1, "levels": [6], "out": str(tmp_path / "orig")},
    )
    code = main(
        [
            "haar-verify",
            "--config",
            str(path),
            "--seed",
            "42",
            "--level",
            "3",
            "--out",
            str(tmp_path / "over"),
        ]
    )
    assert code == 0
    capsys.readouterr()
    report = json.loads(
        (tmp_path / "over" / "report.json").read_text(encoding="utf-8")
    )
    assert report["meta"]["seed"] == 42
    assert report["meta"]["levels"] == [3]
    names = [c["name"] for c in report["checks"]]
    assert all(name.startswith("haar-verify") for name in names)


def test_main_reports_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code = main(["norms", "--config", str(bad), "--seed", "1"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_python_dash_m_runs_the_command(tmp_path):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "dyadica", *args],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )

    proc = run("--help")
    assert proc.returncode == 0, proc.stderr
    assert "usage" in proc.stdout
    # the exit code of main() is the process's
    assert run("norms", "--config", str(tmp_path / "absent.json")).returncode == 2
