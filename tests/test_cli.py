"""Tests for config loading, suite orchestration, and report emission."""

import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dyadica import cli, fracops
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
        ({"suite": "norms", "seed": -1}, "seed"),
        ({"suite": "norms", "seed": 1, "levels": [4, 20]}, r"levels\[1\]"),
        ({"suite": "norms", "seed": 1, "lambdas": [1.5]}, r"lambdas\[0\]"),
        ({"suite": "norms", "seed": 1, "weights": [[1.5, 0.0]]}, r"weights\[0\]"),
        ({"suite": "norms", "seed": 1, "r": 3}, "unknown field 'r'"),
        ({"suite": "norms", "seed": 1, "samples": 0}, "samples"),
        ({"suite": "norms", "seed": 1, "format": "xml"}, "format"),
        ({"suite": "norms", "seed": 1, "bogus": 2}, "bogus"),
    ]
    for data, needle in cases:
        path = write_config(tmp_path, data)
        with pytest.raises(ConfigurationError, match=needle):
            load_config(path)


@pytest.mark.parametrize(
    "field, values, entry, why",
    [
        # two haar-verify-reconstruction-L4 records
        ("levels", [4, 6, 4], "levels[2]", "gives the label '4' of levels[0]"),
        # two represent-identity-lam0.5 records: 0.5000001 prints as 0.5
        ("lambdas", [0.5, 0.5000001], "lambdas[1]", "gives the label '0.5' of lambdas[0]"),
        # two weights rows w0-p1.5-char: the label reads p alone
        (
            "exponents",
            [[1.5, 0.5], [1.25, 0.5], [1.5, 0.6]],
            "exponents[2]",
            "gives the label 'p1.5' of exponents[0]",
        ),
    ],
    ids=("levels", "lambdas", "exponents"),
)
def test_entries_that_repeat_a_record_name_exit_2(tmp_path, capsys, field, values, entry, why):
    path = write_config(tmp_path, {"suite": "all", "seed": 1, field: values})
    with pytest.raises(ConfigurationError, match=re.escape(f"{entry!r}: {why}")):
        load_config(path)
    assert main(["all", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert f"invalid field {entry!r}" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize(
    "field, value, needle",
    [
        ("levels", 6, "levels"),
        ("lambdas", "ab", "lambdas"),
        ("exponents", [1.5], "exponents"),
        ("weights", [["a", 0.5]], "weights"),
        # goodness parameters are not config fields: no suite's report reads them
        ("r", 3, "unknown field 'r'"),
        # JSON strings and booleans that float() would accept
        ("lambdas", ["0.5"], "lambdas"),
        ("gamma", None, "unknown field 'gamma'"),
        ("weights", [[False, "0.5"]], "weights"),
        ("exponents", [["1.5", 0.5]], "exponents"),
    ],
)
def test_config_field_of_wrong_type_exits_2(tmp_path, capsys, field, value, needle):
    path = write_config(tmp_path, {"suite": "norms", "seed": 1, field: value})
    with pytest.raises(ConfigurationError, match=needle):
        load_config(path)
    assert main(["norms", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


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


def test_represent_suite_walks_no_block_and_runs_no_census(tmp_path, monkeypatch):
    # the suite reports residuals only, so it takes the pairing path alone
    def forbidden(*args):
        raise AssertionError("the represent suite reached a block walk or the census")

    for name in ("_blocks", "_scan_lattice", "_lattice_classes"):
        monkeypatch.setattr(fracops, name, forbidden)
    assert main(["represent", "--level", "10", "--seed", "1", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert all(check["pass"] for check in report["checks"])


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


@pytest.mark.parametrize("error", (FloatingPointError, ValueError))
def test_numerical_crash_keeps_the_other_suites(tmp_path, monkeypatch, error):
    def crashing(config):
        raise error("overflow encountered in power")

    monkeypatch.setitem(cli._SUITE_FUNCTIONS, "norms", crashing)
    config = ExperimentConfig(
        suite="all", seed=9, levels=(3,), samples=2, out=str(tmp_path)
    )
    outcome = run_suite(config)
    assert outcome.exit_code == 1
    report = json.loads(outcome.report_path.read_text(encoding="utf-8"))
    failed = [c for c in report["checks"] if not c["pass"]]
    assert [(c["name"], c["paper_anchor"]) for c in failed] == [
        ("norms-crash", f"error-{error.__name__}")
    ]
    assert len(report["checks"]) > 1
    with outcome.samples_path.open(encoding="utf-8") as fh:
        sampled = {row["suite"] for row in csv.DictReader(fh)}
    assert sampled == set(cli.SUITES) - {"norms"}


def test_only_a_crash_prints_its_traceback(tmp_path, monkeypatch, capsys):
    def overflowing_norm_step(config):
        raise ValueError("overflow encountered in power")

    def misconfigured(config):
        raise ConfigurationError("synthetic contract failure")

    reports = []
    for suite, expect_trace in ((overflowing_norm_step, True), (misconfigured, False)):
        monkeypatch.setitem(cli._SUITE_FUNCTIONS, "norms", suite)
        out = tmp_path / suite.__name__
        run_suite(ExperimentConfig(suite="norms", seed=1, out=str(out)))
        err = capsys.readouterr().err
        if expect_trace:
            assert err.startswith("norms: ValueError: overflow encountered in power\n")
            assert "Traceback" in err and "overflowing_norm_step" in err
        else:
            assert err == "norms: ConfigurationError: synthetic contract failure\n"
        reports.append(json.loads((out / "report.json").read_text(encoding="utf-8")))
    # the report carries the record only, never the traceback
    assert [r["checks"] for r in reports] == [
        [{"name": "norms-crash", "paper_anchor": "error-ValueError",
          "value": 1.0, "threshold": 0.0, "pass": False}],
        [{"name": "norms-contract-error", "paper_anchor": "error-ConfigurationError",
          "value": 1.0, "threshold": 0.0, "pass": False}],
    ]


def _two_axis_rows_by_public_calls(config, suite):
    """The decompose or commutator suite's sample rows from one public
    single-sample call per sample, b and f drawn in turn."""
    from dyadica.dyadic import DyadicSystem
    from dyadica.fracops import maximal_table
    from dyadica.grid import build_axis, grid_function
    from dyadica.paracomm import decompose_product, shift_commutator_expand

    rng = cli._suite_rng(config, suite)
    rows = []
    for per in dict.fromkeys(cli._per_axis(level) for level in config.levels):
        axis = build_axis(per)
        n = axis.n_cells

        def draw():
            return (grid_function(rng.normal(size=(n, n)), axis, axis) for _ in range(2))

        if suite == "decompose":
            pair = (DyadicSystem(axis, 0), DyadicSystem(axis, 1 % n))
            for s in range(config.samples):
                b, f = draw()
                report = decompose_product(b, f, pair)
                rel = report.residual / float(np.max(np.abs(b.values * f.values)))
                rows.append(("decompose", f"L{per}x{per}-s{s}", rel))
            continue
        s1, s2 = DyadicSystem(axis, 0), DyadicSystem(axis, n // 2)
        cases = [c for c in [(1, 0, 0, 1), (0, 0, 1, 1), (1, 1, 1, 0)] if max(c) < per]
        for ci, (i, j, s_, t_) in enumerate(cases):
            t1 = maximal_table(s1, i, j, config.lambdas[0])
            t2 = maximal_table(s2, s_, t_, config.lambdas[-1])
            for s in range(min(config.samples, 10)):
                b, f = draw()
                residual = shift_commutator_expand(b, f, t1, t2, (s1, s2)).residual
                rows.append(("commutator", f"L{per}x{per}-c{ci}-s{s}", residual))
    return rows


@pytest.mark.parametrize("suite", ("decompose", "commutator"))
@pytest.mark.parametrize("cells", (None, 3 * 256))
def test_stacked_suites_match_single_sample_calls_bitwise(monkeypatch, suite, cells):
    # at 16 x 16 the default budget splits 10 samples into stacks of 4, 4
    # and 2, a budget of 3 * 256 cells' floats into stacks of 3, 3, 3 and 1
    import dyadica.paracomm as paracomm

    if cells is not None:
        monkeypatch.setattr(paracomm, "_STACK_FLOATS", cells * paracomm._EXPAND_FLOATS)
    config = ExperimentConfig(suite=suite, seed=3, levels=(6, 4), samples=10)
    records, rows = cli._SUITE_FUNCTIONS[suite](config)
    want = _two_axis_rows_by_public_calls(config, suite)
    assert rows == want
    assert records[0].value == max(value for _, _, value in want)


@pytest.mark.parametrize("suite", ("decompose", "commutator"))
def test_levels_with_one_per_axis_level_write_each_label_once(tmp_path, suite):
    # levels 6 and 7 both give 4 levels per axis: the suite runs them once,
    # on the stream of a config with level 6 alone
    data = {"suite": suite, "seed": 1, "levels": [6, 7], "samples": 3}
    config = load_config(write_config(tmp_path, data))
    _, rows = cli._SUITE_FUNCTIONS[suite](config)
    labels = [label for _, label, _ in rows]
    assert labels and len(labels) == len(set(labels))
    assert all(label.startswith("L4x4-") for label in labels)
    _, alone = cli._SUITE_FUNCTIONS[suite](dataclasses.replace(config, levels=(6,)))
    assert rows == alone


def test_commutator_suite_builds_each_shift_matrix_once_per_depth_case(monkeypatch):
    # 10 samples at 16 x 16 are three stacks per depth case; the case's two
    # shift matrices serve all three
    import dyadica.paracomm as paracomm

    builds = []
    build = paracomm._shift_matrix

    def counted(system, table):
        builds.append((system.offset_cells, table.i, table.j))
        return build(system, table)

    monkeypatch.setattr(paracomm, "_shift_matrix", counted)
    config = ExperimentConfig(suite="commutator", seed=3, levels=(6,), samples=10)
    _, rows = cli._SUITE_FUNCTIONS["commutator"](config)
    assert builds == [(0, 1, 0), (8, 0, 1), (0, 0, 0), (8, 1, 1), (0, 1, 1), (8, 1, 0)]
    monkeypatch.setattr(paracomm, "_shift_matrix", build)
    assert rows == _two_axis_rows_by_public_calls(config, "commutator")


def _haar_verify_by_public_calls(config):
    """The haar-verify suite's worst values per level and sample rows from
    public single-sample calls, one draw per sample."""
    from dyadica.dyadic import DyadicSystem
    from dyadica.grid import build_axis, grid_function
    from dyadica.haar import haar_expand, level_average, level_difference

    rng = cli._suite_rng(config, "haar-verify")
    worst, rows = {}, []
    for level in config.levels:
        axis = build_axis(level)
        n = axis.n_cells
        recon_tel = [0.0, 0.0]
        for s in range(config.samples):
            f = grid_function(rng.normal(size=n), axis)
            for off in sorted({0, 1, n // 2}):
                system = DyadicSystem(axis, off)
                res = float(np.max(np.abs(haar_expand(f, system).reconstruct().values - f.values)))
                total = level_average(f, system, 0).values.copy()
                for k in range(level):
                    total += level_difference(f, system, k).values
                tel = float(np.max(np.abs(total - f.values)))
                recon_tel = [max(recon_tel[0], res), max(recon_tel[1], tel)]
                rows.append(("haar-verify", f"L{level}-off{off}-s{s}", res))
        worst[f"haar-verify-reconstruction-L{level}"] = recon_tel[0]
        worst[f"haar-verify-telescoping-L{level}"] = recon_tel[1]
    return worst, rows


@pytest.mark.parametrize("cells", (None, 3 * 64))
def test_haar_verify_matches_single_sample_calls_bitwise(monkeypatch, cells):
    # by default each level's 7 samples share one stack; a budget of 3 * 64
    # cells' floats splits them 3, 3 and 1 at level 6 and 1 by 1 at level 8
    import dyadica.paracomm as paracomm

    if cells is not None:
        monkeypatch.setattr(paracomm, "_STACK_FLOATS", cells * cli._HAAR_VERIFY_FLOATS)
    config = ExperimentConfig(suite="haar-verify", seed=4, levels=(6, 3, 8), samples=7)
    records, rows = cli._SUITE_FUNCTIONS["haar-verify"](config)
    worst, want = _haar_verify_by_public_calls(config)
    assert rows == want
    assert {r.name: r.value for r in records} == worst


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


def test_bloom_suite_follows_the_level(tmp_path):
    # two-axis budget: levels 3 .. max(5, level // 2 + 1)
    config = ExperimentConfig(
        suite="bloom", seed=1, levels=(12,), samples=2, out=str(tmp_path)
    )
    outcome = run_suite(config)
    with outcome.samples_path.open(encoding="utf-8") as fh:
        labels = [row["sample"] for row in csv.DictReader(fh)]
    assert list(dict.fromkeys(label.split("-")[0] for label in labels)) == [
        "L3", "L4", "L5", "L6", "L7"
    ]


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


def _src_env():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def test_import_loads_no_scipy():
    # scipy is a test-only dependency: a cold import of the package must not
    # pay for it
    code = "import dyadica, sys; print([m for m in sys.modules if m.startswith('scipy')])"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=_src_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_python_dash_m_runs_the_command(tmp_path):
    env = _src_env()

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
