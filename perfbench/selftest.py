#!/usr/bin/env python3
"""Self-checks of the dyadica benchmark on small instances (about 20 s).

    python3 perfbench/selftest.py

* Determinism: two untraced runs and one traced run of the same seed write
  byte-identical ``report.json``, and another seed writes different bytes.
  The untraced runs take speed samples and the traced one does not, so
  this proves neither the tracer nor the speed probe perturbs what it
  measures.
* Coverage: after ``Tracer.install`` no module-level name in ``dyadica``
  still points at an unwrapped public function.
* Contract: the metric names and units the benchmark emits are exactly
  those ``BENCHMARK.json`` declares.
* Refusal: in a tree holding only ``BENCHMARK.json`` and ``perfbench/``
  the benchmark exits non-zero without printing a result.

Exits 0 when every check holds; prints each failure otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import run
from tracer import Tracer

SEED = 7
SMALL = {
    "all-L4": {"kind": "all", "level": 4},
    "represent-L5": {"kind": "represent", "level": 5, "lambdas": [0.3, 0.5, 0.7], "r": 3},
}

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def check_determinism(workdir: Path, benchmark: dict) -> None:
    for name in SMALL:
        (workdir / name).mkdir()
        runner = run.Runner(workdir / name, time.perf_counter() + run.DEADLINE_S)
        workload = run.Workload(name, SEED, runner)
        runs = {tag: workload.iterate(tag, trace=(tag == "traced")) for tag in ("a", "b", "traced")}
        for tag, (result, checks, _) in runs.items():
            expect(result is not None and all(checks), f"{name} run {tag} passes its output checks")
        data = {tag: r[2] for tag, r in runs.items()}
        expect(data["a"] is not None and data["a"] == data["b"], f"{name}: same seed, same report bytes")
        expect(data["a"] == data["traced"], f"{name}: tracing on and off, same report bytes")
        other = run.Workload(name, SEED + 1, runner).iterate("other", trace=False)[2]
        expect(other is not None and other != data["a"], f"{name}: another seed, other report bytes")
        if SMALL[name]["kind"] == "all":
            base, traced = runs["a"][0], runs["traced"][0]
            metrics = run.layer_metrics(traced["trace"], base, traced)
            emitted = [(k, v["unit"]) for k, v in metrics.items()]
            declared = [(m["name"], m["unit"]) for m in benchmark["per_layer"]]
            expect(emitted == declared, "per-layer metrics match BENCHMARK.json per_layer")


def check_contract(benchmark: dict) -> None:
    declared = [(m["name"], m["unit"]) for m in benchmark["end_to_end"]]
    expect(declared == run.END_TO_END, "end-to-end metrics match BENCHMARK.json end_to_end")
    names = [w["name"] for w in benchmark["workloads"]]
    expect(names == list(run.WORKLOADS), "workloads match BENCHMARK.json workloads")
    expect(set(run.ITERATION_S) == set(run.WORKLOADS), "every workload has an iteration time")


def check_coverage() -> None:
    sys.path.insert(0, str(run.ROOT / "src"))
    tracer = Tracer()
    tracer.install()
    left = tracer.unwrapped_aliases()
    expect(not left, "every alias of a public layer function is wrapped" + (f": {left}" if left else ""))
    expect(len(tracer.wrapped) > 50, f"{len(tracer.wrapped)} public functions wrapped")


def check_refusal(workdir: Path) -> None:
    bare = workdir / "bare"
    bare.mkdir()
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all-L6", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "without the program: non-zero exit and no result line")


def main() -> int:
    benchmark = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_contract(benchmark)
    run.WORKLOADS.update(SMALL)
    scratch = run.ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="selftest-", dir=scratch) as tmp:
        check_determinism(Path(tmp), benchmark)
        check_refusal(Path(tmp))
    try:
        scratch.rmdir()
    except OSError:
        pass
    check_coverage()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
