#!/usr/bin/env python3
"""The dyadica benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source tree that holds ``src/dyadica``.  Every
workload iteration is a fresh interpreter, because every ``dyadica``
invocation pays its cold caches.  The inputs (a config for ``all-L*``,
random arrays for ``represent-sweep``) are generated here from ``--seed``;
the program only receives them.

``--trace 0`` first starts a few set-up-only processes, then runs
``round(seconds / ITERATION_S)`` cold iterations (at least one), where
``ITERATION_S`` is the workload's iteration time on a 2-core 2.1 GHz Xeon
VM.  The count depends on ``--seconds`` only, never on how fast this
commit runs, so a faster or a slower iteration cannot change how many
samples its median takes; only a machine so slow that the next iteration
would end past ``RUN_CAP * seconds`` stops early.  The end-to-end metrics
are medians.

``--trace 1`` runs one untraced and one traced iteration of the same seed,
requires identical report bytes from both, and reports per-layer metrics
from the traced one's spans.

Times are reported at reference speed.  The shared host changes speed by
up to half within minutes, so each process also times a fixed reference
kernel over the same seconds as the phase it measures (``SpeedProbe`` in
``workload.py``), and a phase's seconds are scaled by
``REF_NOMINAL_S / mean reference kernel time``.  ``REF_NOMINAL_S`` is a fixed
constant, so the scale is the same on every commit and the figures stay
in seconds; the raw seconds are on the detail line.

Every iteration is gated on its own outputs; see ``manifest.json`` for the
checks, the seeds and the layer-to-end-to-end predictions.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it describes the machine and
holds the raw samples.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = json.loads((HERE / "manifest.json").read_text(encoding="utf-8"))

WORKLOADS = {
    "all-L6": {"kind": "all", "level": 6},
    "represent-sweep": {"kind": "represent", "level": 8, "lambdas": [0.3, 0.5, 0.7], "r": 3},
}
# Seconds per cold iteration, set-up included, on a 2-core 2.1 GHz Xeon VM.
ITERATION_S = {"all-L6": 14.0, "represent-sweep": 10.0}
# The reference kernel's typical time on the same VM: the fixed scale that
# turns reference units back into seconds.
REF_NOMINAL_S = 0.0035
SUITES = ("bloom", "commutator", "decompose", "haar-verify", "norms", "represent", "weights")

SETUP_PROBES = 6
BLAS_THREADS = 1  # one thread wins no wall time over two here and is steadier
RESIDUAL_GATE = 1e-8  # acceptance criterion 2
DEADLINE_S = 170.0
RUN_CAP = 1.35  # a timed run starts no iteration it expects to end past this share of --seconds
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)

END_TO_END = [("wall_ref_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB")]

SELF_S = [
    "weights.ap_characteristic", "weights.apq_characteristic",
    "weights.product_ap_characteristic", "analysis.strong_maximal",
    "analysis.square_function", "analysis.frac_maximal_domination",
    "analysis.bmo_prod_rect_norm", "paracomm.paraproduct",
    "paracomm.shift_commutator_expand", "paracomm.decompose_product",
    "paracomm.bloom_experiment", "haar.haar_expand", "haar.haar_matrix",
    "fracops.verify_representation", "fracops.maximal_table",
    "dyadic.bad_mask", "cli.emit_report",
]
CALLS = [
    "paracomm.paraproduct", "haar.level_average", "haar.level_difference",
    "fracops.frac_integral", "dyadic.bad_mask",
]
CACHES = ["haar.haar_matrix", "grid.kernel_matrix", "grid.kernel_profile"]
CACHE_BYTES = ["haar.haar_matrix", "grid.kernel_matrix"]
PER_CALL = [
    ("paracomm.paraproduct.call", "us", 1e6),
    ("haar.level_ops.call", "us", 1e6),
    ("fracops.verify_representation.per_system", "ms", 1e3),
]


class BenchError(Exception):
    """The benchmark could not run the program at all; no result is printed."""


# -- processes -------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["DYADICA_THREADS"] = "1"
    return env


class Runner:
    """Starts workload processes in a scratch directory of the checkout."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = child_env()
        self.count = 0

    def spawn(self, spec: dict):
        """Run one process; return its result dict, or None if it failed."""
        tag = f"p{self.count}"
        self.count += 1
        spec_path = self.workdir / f"{tag}.spec.json"
        result_path = self.workdir / f"{tag}.result.json"
        log_path = self.workdir / f"{tag}.log"
        spec_path.write_text(json.dumps(dict(spec, result=str(result_path))), encoding="utf-8")
        cmd = [sys.executable, str(HERE / "workload.py"), str(spec_path)]
        with log_path.open("wb") as log:
            t_spawn = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=log, stderr=subprocess.STDOUT)
            try:
                code = proc.wait(timeout=max(1.0, self.deadline - t_spawn))
            except subprocess.TimeoutExpired:
                raise BenchError(f"{tag} ran past the {DEADLINE_S:.0f} s deadline") from None
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        t_exit = time.perf_counter()
        if code != 0 or not result_path.is_file():
            tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
            print(f"{tag} exited with {code}:\n{tail}", file=sys.stderr)
            return None
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["setup_raw_s"] = result["t_setup"] - t_spawn
        result["setup_s"] = result["setup_raw_s"] * REF_NOMINAL_S / result["ref_burst_s"]
        result["process_s"] = t_exit - t_spawn
        if "t_end" in result:
            result["wall_s"] = result["t_end"] - result["t_work"] - result["ref_busy_s"]
            ref = result["ref_work_s"] or result["ref_burst_s"]
            result["wall_ref_s"] = result["wall_s"] * REF_NOMINAL_S / ref
        return result


# -- workloads ---------------------------------------------------------------


class Workload:
    def __init__(self, name: str, seed: int, runner: Runner):
        self.name = name
        self.seed = seed
        self.runner = runner
        self.spec = dict(WORKLOADS[name])
        if self.spec["kind"] == "represent":
            self.spec["inputs"] = str(self._represent_inputs())

    def _represent_inputs(self) -> Path:
        import numpy as np

        n = 1 << self.spec["level"]
        arrays = {}
        for i in range(len(self.spec["lambdas"])):
            rng = np.random.default_rng((self.seed, i))
            for key in ("f", "g"):
                v = rng.normal(size=n)
                arrays[f"{key}{i}"] = v - v.mean()
        path = self.runner.workdir / f"inputs-{self.seed}.npz"
        np.savez(path, **arrays)
        return path

    def _spec(self, tag: str, trace: bool, setup_only: bool) -> dict:
        out = self.runner.workdir / tag
        out.mkdir()
        spec = dict(self.spec, out=str(out), trace=trace, setup_only=setup_only)
        if spec["kind"] == "all":
            config = out / "config.json"
            config.write_text(
                json.dumps({"suite": "all", "seed": self.seed, "levels": [spec["level"]], "out": str(out)}),
                encoding="utf-8",
            )
            spec["config"] = str(config)
        return spec

    def setup_probe(self, tag: str) -> dict:
        result = self.runner.spawn(self._spec(tag, trace=False, setup_only=True))
        if result is None:
            raise BenchError("a set-up process failed: the program could not be imported or configured")
        return result

    def iterate(self, tag: str, trace: bool):
        """One cold run; returns (result or None, check outcomes, report bytes)."""
        spec = self._spec(tag, trace=trace, setup_only=False)
        result = self.runner.spawn(spec)
        report = Path(spec["out"]) / "report.json"
        if result is None or not report.is_file():
            return result, [False], None
        data = report.read_bytes()
        if spec["kind"] == "all":
            checks = self._check_all(result, json.loads(data))
        else:
            checks = self._check_represent(json.loads(data))
        return result, checks, data

    @staticmethod
    def _check_all(result: dict, report: dict) -> list:
        passed = {c["name"]: c["pass"] for c in report["checks"]}
        hard = result["hard"]
        consistent = (
            result["exit_code"] == 0
            and len(passed) == result["n_records"]
            and all(passed.get(name) is ok for name, ok in hard)
        )
        return [ok for _, ok in hard] + [consistent]

    def _check_represent(self, report: list) -> list:
        checks = []
        n_systems = 1 << self.spec["level"]
        for entry in report:
            checks.extend(r <= RESIDUAL_GATE for r in entry["relative_residuals"])
            checks.append(entry["n_systems"] == n_systems == len(entry["relative_residuals"]))
        return checks + [len(report) == len(self.spec["lambdas"])]


# -- metrics -----------------------------------------------------------------


def tail(samples: list) -> tuple:
    """(median, tail): the tail is the highest percentile of the ladder with
    at least ten samples above it, else the maximum."""
    if not samples:
        return 0.0, 0.0
    ordered = sorted(samples)
    n = len(ordered)
    pct = 100.0
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= 10.0:
            pct = p
    rank = min(n, max(1, math.ceil(pct * n / 100.0)))
    return statistics.median(ordered), ordered[rank - 1]


def layer_metrics(summary: dict, base: dict, traced: dict) -> dict:
    spans = summary["spans"]
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for layer in LAYERS:
        put(f"{layer}.self_s", sum(v["self_s"] for k, v in spans.items() if k.split(".")[0] == layer), "s")
    for fn in SELF_S:
        put(f"{fn}.self_s", spans[fn]["self_s"], "s")
    for fn in CALLS:
        put(f"{fn}.calls", spans[fn]["calls"], "count")
    put("haar.level_ops.self_s",
        spans["haar.level_average"]["self_s"] + spans["haar.level_difference"]["self_s"], "s")
    for fn in CACHES:
        c = summary["caches"][fn]
        calls = c["hits"] + c["misses"]
        put(f"{fn}.hit_ratio", c["hits"] / calls if calls else 0.0, "ratio")
    for fn in CACHE_BYTES:
        put(f"{fn}.bytes", summary["caches"][fn]["bytes"], "bytes")
    put("haar.haar_matrix.misses", summary["caches"]["haar.haar_matrix"]["misses"], "count")
    put("analysis.strong_maximal.cells", summary["cells"]["analysis.strong_maximal"], "count")
    per_system = summary["per_call"]["fracops.verify_representation.per_system"]
    put("fracops.systems_scanned", len(per_system), "count")
    for prefix, unit, scale in PER_CALL:
        samples = summary["per_call"].get(prefix, [])
        med, hi = tail(samples)
        put(f"{prefix}_{unit}", med * scale, unit)
        put(f"{prefix}_tail_{unit}", hi * scale, unit)
        put(f"{prefix}_samples", len(samples), "count")
    for suite in SUITES:
        put(f"cli.suite.{suite}.wall_s", spans[f"cli.suite.{suite}"]["total_s"], "s")
    put("cli.cpu_s", base["cpu_s"], "s")
    put("trace.overhead_s", traced["wall_s"] - base["wall_s"], "s")
    return m


def top_self(summary: dict, k: int = 5) -> list:
    ranked = sorted(summary["spans"].items(), key=lambda kv: -kv[1]["self_s"])
    return [[name, round(v["self_s"], 4), v["calls"]] for name, v in ranked[:k]]


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def machine(probe: dict, env: dict, loadavg) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": probe["versions"]["numpy"],
        "scipy": probe["versions"]["scipy"],
        "blas": probe["blas"],
        "blas_threads": int(env["OPENBLAS_NUM_THREADS"]),
        "dyadica_threads": env["DYADICA_THREADS"],
        "git_revision": git_revision(),
        "loadavg_start": list(loadavg),
    }


# -- entry point -------------------------------------------------------------


def run(args) -> int:
    if not (ROOT / "src" / "dyadica" / "__init__.py").is_file():
        print(f"error: no dyadica sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    loadavg = os.getloadavg()
    start = time.perf_counter()
    deadline = start + DEADLINE_S
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        runner = Runner(workdir, deadline)
        workload = Workload(args.workload, args.seed, runner)
        probes = [workload.setup_probe(f"setup{i}") for i in range(SETUP_PROBES if not args.trace else 1)]
        detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "machine": machine(probes[0], runner.env, loadavg)}
        if args.trace:
            checks, metrics = trace_run(workload, detail)
        else:
            checks, metrics = timed_run(workload, probes, start + RUN_CAP * args.seconds, args.seconds, detail)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    failed = sum(not ok for ok in checks)
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": len(checks), "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def timed_run(workload: Workload, probes: list, cap: float, seconds: float, detail: dict):
    checks, results, first = [], [], None
    for i in range(max(1, round(seconds / ITERATION_S[workload.name]))):
        if results and time.perf_counter() + results[-1]["process_s"] > min(cap, workload.runner.deadline):
            break  # a very slow machine: report the iterations that fit
        result, outcome, data = workload.iterate(f"iter{i}", trace=False)
        checks.extend(outcome)
        if data is not None:
            if first is None:
                first = data
            else:
                checks.append(data == first)
        if result is None:
            break
        results.append(result)
    setups = [p["setup_s"] for p in probes] + [r["setup_s"] for r in results]
    detail["setup_samples"] = setups
    detail["setup_raw_samples"] = [p["setup_raw_s"] for p in probes] + [r["setup_raw_s"] for r in results]
    detail["iterations"] = [
        {k: r[k] for k in ("wall_ref_s", "wall_s", "ref_work_s", "ref_samples", "setup_s", "maxrss_kib", "cpu_s")}
        for r in results
    ]
    metrics = {}
    if results:
        values = {
            "wall_ref_s": statistics.median(r["wall_ref_s"] for r in results),
            "setup_s": statistics.median(setups),
            "peak_rss_mib": statistics.median(r["maxrss_kib"] / 1024.0 for r in results),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return checks, metrics


def trace_run(workload: Workload, detail: dict):
    base, base_checks, base_bytes = workload.iterate("untraced", trace=False)
    traced, traced_checks, traced_bytes = workload.iterate("traced", trace=True)
    checks = base_checks + traced_checks + [base_bytes is not None and base_bytes == traced_bytes]
    if base is None or traced is None:
        return checks, {}
    summary = traced["trace"]
    detail["untraced_wall_s"] = base["wall_s"]
    detail["traced_wall_s"] = traced["wall_s"]
    detail["spans"] = summary["n_spans"]
    detail["largest_self_s"] = top_self(summary)
    return checks, layer_metrics(summary, base, traced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=MANIFEST["default_seed"])
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit, so that the running
    # workload process is killed and waited for on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
