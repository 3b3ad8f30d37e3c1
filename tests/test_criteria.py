import json

import pytest

import criteria

LOG = """\
tests/test_acceptance.py::test_criterion_02_representation_identity PASSED [  0%]
=================================== PASSES ===================================
_______________ test_criterion_04_coefficient_class_stability ________________
----------------------------- Captured stdout call -----------------------------
criterion 04 [class-near]: spread=6.333e-16, constant=3.506e-01
criterion 04 [deep-in-points-within-cap]: points=1
criterion 02 [representation-identity]: residual=3.118e-16, seconds=2.822e-02
criterion 04 [class-near]: spread=6.333e-16, constant=3.506e-01
criterion 09 [A1]: spread=0.000e+00, spearman=8.735e-03
not a criterion 05 [x]: pairs=1
"""


def test_criteria_log_becomes_sorted_json_with_seconds_apart(tmp_path, capsys):
    log = tmp_path / "log.txt"
    log.write_text(LOG, encoding="utf-8")
    assert criteria.main([str(log)]) == 0
    text = capsys.readouterr().out
    data = json.loads(text)
    assert data == {
        "figures": {
            "02 [representation-identity]": {"residual": 3.118e-16},
            "04 [class-near]": {"constant": 0.3506, "spread": 6.333e-16},
            "04 [deep-in-points-within-cap]": {"points": 1},
            "09 [A1]": {"spearman": 8.735e-03, "spread": 0.0},
        },
        "seconds": {"02 [representation-identity]": 0.02822},
    }
    assert text == json.dumps(data, indent=1, sort_keys=True) + "\n"


def test_criteria_label_with_two_sets_of_figures_is_an_error():
    lines = ["criterion 03 [pairs]: worst=1.0e-16\n", "criterion 03 [pairs]: worst=2.0e-16\n"]
    with pytest.raises(ValueError, match="03 \\[pairs\\]"):
        criteria.parse(lines)


PARENT = """\
criterion 02 [representation-identity]: residual=3.118e-16, seconds=2.822e-02
criterion 04 [class-near]: spread=6.333e-16, constant=3.506e-01
criterion 09 [A1]: spread=2.432e-16, spearman=8.735e-03
criterion 09 [frac-integral]: spread=2.333e-02, spearman=2.993e-02
"""


def _against(tmp_path, change: str) -> int:
    (tmp_path / "change.txt").write_text(change, encoding="utf-8")
    (tmp_path / "parent.txt").write_text(PARENT, encoding="utf-8")
    return criteria.main([str(tmp_path / "change.txt"), "--against", str(tmp_path / "parent.txt")])


def test_against_passes_over_seconds_and_rank_noise(tmp_path, capsys):
    change = PARENT.replace("2.822e-02", "9.000e-02").replace("8.735e-03", "1.310e-02")
    assert _against(tmp_path, change) == 0
    assert capsys.readouterr().out == "09 [A1]: spearman 0.008735 -> 0.0131 (rank noise)\n"
    assert _against(tmp_path, PARENT) == 0
    assert capsys.readouterr().out == ""


def test_against_fails_on_any_other_difference(tmp_path, capsys):
    change = (
        PARENT.replace("constant=3.506e-01", "constant=3.507e-01")
        .replace("spread=2.432e-16, spearman=8.735e-03", "spread=0.000e+00, spearman=1.0e-02")
        .replace("spearman=2.993e-02", "spearman=3.0e-02")
        .replace("criterion 02", "criterion 03")
    )
    assert _against(tmp_path, change) == 1
    assert capsys.readouterr().out.splitlines() == [
        "02 [representation-identity]: only in the parent log",
        "03 [representation-identity]: only in the change log",
        "04 [class-near]: constant 0.3506 -> 0.3507",
        "09 [A1]: spearman 0.008735 -> 0.01; spread 2.432e-16 -> 0.0",
        "09 [frac-integral]: spearman 0.02993 -> 0.03",
    ]
