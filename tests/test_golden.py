"""The report bytes of ``dyadica all --seed 1`` at levels 6 and 8 match the
files under ``tests/golden/``."""

import numpy as np

import golden


def test_report_bytes_match_the_golden_files(tmp_path):
    lines = golden.compare(tmp_path)
    assert not lines, "\n".join(lines)


def test_a_moved_value_is_named_with_its_old_and_new_value():
    old = b"suite,sample,value\nnorms,L4-a,0.5\nnorms,L4-b,0.25\n"
    new = old.replace(b"0.25", repr(float(np.nextafter(0.25, 1.0))).encode())
    assert golden.moved("all-L6", "samples.csv", old, new) == [
        "all-L6 samples.csv: row norms,L4-b: 0.25 -> 0.25000000000000006"
    ]


def test_another_numpy_version_fails_and_names_both(tmp_path, monkeypatch):
    monkeypatch.setattr(np, "__version__", "0.0.0")
    monkeypatch.setattr(golden, "LEVELS", ())
    lines = golden.compare(tmp_path)
    assert len(lines) == 1 and "0.0.0" in lines[0]
    assert golden.NUMPY.read_text().strip() in lines[0]
