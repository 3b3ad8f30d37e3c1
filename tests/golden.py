"""The report bytes of ``dyadica all --seed 1`` at ``--level`` 6 and 8, kept
under ``tests/golden/`` with the numpy version that wrote them; at level 6
also the ``report.csv`` of a ``"format": "csv"`` run.

    python tests/golden.py            # compare this tree with the files
    python tests/golden.py --update   # rewrite the files from this tree

A comparison prints one line per moved check value or samples row, old and
new, and exits 1 if anything differs.  FFT and reduction bits can differ
across numpy builds, so on another numpy version it fails and names both
versions.  A change that moves bytes rewrites the files and lists each
moved row.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).resolve().parent / "golden"
LEVELS = (6, 8)
CSV_LEVEL = 6
NUMPY = GOLDEN / "numpy-version.txt"


def produce(level: int, out: Path) -> dict:
    """``{file name: bytes}`` of one ``all --seed 1 --level`` run into ``out``."""
    from dyadica.cli import ExperimentConfig, run_suite

    config = ExperimentConfig(suite="all", seed=1, levels=(level,), out=str(out))
    outcome = run_suite(config)
    files = {
        "report.json": outcome.report_path.read_bytes(),
        "samples.csv": outcome.samples_path.read_bytes(),
    }
    if level == CSV_LEVEL:
        csv_config = dataclasses.replace(config, out=str(out / "csv"), format="csv")
        files["report.csv"] = run_suite(csv_config).report_path.read_bytes()
    return files


def _entries(name: str, blob: bytes) -> dict:
    """The named values of one file: each check's fields, or each samples row.
    A name given twice keeps its last value; the bytes still differ."""
    text = blob.decode("utf-8")
    if name.endswith(".csv"):
        header, *rows = csv.reader(io.StringIO(text))
        if name == "samples.csv":
            return {f"row {suite},{sample}": value for suite, sample, value in rows}
        return {f"check {row[0]} {k}": v for row in rows for k, v in zip(header, row)}
    payload = json.loads(text)
    entries = {f"meta {key}": value for key, value in payload["meta"].items()}
    for check in payload["checks"]:
        entries.update({f"check {check['name']} {k}": v for k, v in check.items()})
    return entries


def moved(label: str, name: str, old: bytes, new: bytes) -> list:
    """One line per value of ``name`` that differs between ``old`` and
    ``new``, or one line if only the bytes around the values differ."""
    if old == new:
        return []
    was, now = _entries(name, old), _entries(name, new)
    lines = []
    for key in list(was) + [k for k in now if k not in was]:
        before, after = was.get(key, "(absent)"), now.get(key, "(absent)")
        if before != after:
            lines.append(f"{label} {name}: {key}: {before} -> {after}")
    if not lines:
        lines.append(f"{label} {name}: same values, other bytes (order or layout)")
    return lines


def compare(out: Path) -> list:
    """Every difference between this tree's runs and the golden files, the
    numpy versions first if they differ."""
    lines = []
    golden_numpy = NUMPY.read_text(encoding="utf-8").strip()
    if golden_numpy != np.__version__:
        lines.append(
            f"the golden files were written with numpy {golden_numpy}, "
            f"this is numpy {np.__version__}"
        )
    for level in LEVELS:
        label = f"all-L{level}"
        for name, blob in produce(level, out / label).items():
            lines += moved(label, name, (GOLDEN / label / name).read_bytes(), blob)
    return lines


def update(out: Path) -> None:
    for level in LEVELS:
        label = f"all-L{level}"
        (GOLDEN / label).mkdir(parents=True, exist_ok=True)
        for name, blob in produce(level, out / label).items():
            (GOLDEN / label / name).write_bytes(blob)
    NUMPY.write_text(np.__version__ + "\n", encoding="utf-8")


def main(argv) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        if argv == ["--update"]:
            update(Path(tmp))
            return 0
        if argv:
            print(__doc__, file=sys.stderr)
            return 2
        lines = compare(Path(tmp))
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.exit(main(sys.argv[1:]))
