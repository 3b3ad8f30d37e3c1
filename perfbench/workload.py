"""One cold workload process of the dyadica benchmark.

Usage: ``python3 perfbench/workload.py SPEC.json`` with ``src`` on
``PYTHONPATH``.  The spec names the workload kind, its inputs, whether to
trace, and where to write the result.  The process times its own phases
on the system-wide monotonic clock, so the parent can subtract its own
spawn time:

* set-up: ``import dyadica`` and validation of the generated config or
  arrays (the ``setup`` kind stops here);
* work: from the end of set-up to the last report written.

Between the two, and every ``SpeedProbe.PERIOD_S`` during untraced work,
the process times a fixed reference kernel (see ``SpeedProbe``), so the
parent can express both phases at a fixed machine speed.

The result file carries the phase marks, the reference-kernel times,
``ru_maxrss``, CPU seconds of the work, the checks this process saw, and,
when traced, the span summary.
"""

from __future__ import annotations

import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path


class SpeedProbe:
    """Times a fixed reference kernel on the workload's own thread.

    The shared host under the benchmark changes speed by up to half within
    minutes, and the program's time follows it.  The kernel does the same
    work on every commit, so the ratio of the program's time to the
    kernel's, taken over the same seconds, cancels most of the drift.  Its
    two halves, an interpreted dict loop and 128x128 products, tracked
    both workloads best among the candidates tried (numpy calls on short
    vectors and ``np.ix_`` gathers followed them less closely).
    ``start`` runs it from a timer signal during the work; the handler's
    time is recorded, so the parent can take it out of the work.
    """

    PERIOD_S = 0.25
    BURST = 16  # samples taken right after set-up

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._a = rng.normal(size=(128, 128))
        self.kernel()  # warm-up, not recorded
        self.burst: list[float] = []
        self.during: list[float] = []
        self.busy_s = 0.0

    def kernel(self) -> None:
        d: dict = {}
        for i in range(18000):
            k = i & 255
            d[k] = d.get(k, 0) + i
        a = self._a
        for _ in range(18):
            a @ a

    def _timed(self) -> float:
        t0 = time.perf_counter()
        self.kernel()
        return time.perf_counter() - t0

    def take_burst(self) -> None:
        self.burst = [self._timed() for _ in range(self.BURST)]

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.during.append(self._timed())
        self.busy_s += time.perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @staticmethod
    def level(samples: list) -> float:
        """Mean kernel time.  A mean, not a median: contention comes in
        bursts, and the work pays for them in proportion to how often they
        hit.  A sample past three times the median (a stall that hit the
        probe alone) counts as three times the median."""
        cap = 3.0 * statistics.median(samples)
        return statistics.fmean(min(x, cap) for x in samples)

    def summary(self) -> dict:
        return {
            "ref_burst_s": self.level(self.burst),
            "ref_work_s": self.level(self.during) if self.during else None,
            "ref_samples": len(self.during),
            "ref_busy_s": self.busy_s,
        }


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _setup_all(spec):
    from dyadica import cli

    cli.load_config(spec["config"])
    return cli


def _work_all(spec, cli):
    """``dyadica all`` through ``cli.main``; capture the records it ran."""
    outcomes = []
    run_suite = cli.run_suite

    def capture(config, strict=False):
        outcome = run_suite(config, strict=strict)
        outcomes.append(outcome)
        return outcome

    cli.run_suite = capture
    exit_code = cli.main(["all", "--config", spec["config"]])
    records = outcomes[0].records if outcomes else ()
    return {
        "exit_code": exit_code,
        "hard": [[r.name, bool(r.passed)] for r in records if r.hard],
        "n_records": len(records),
    }


def _setup_represent(spec):
    import numpy as np
    from dyadica.dyadic import GoodParams, default_gamma
    from dyadica.grid import build_axis, grid_function

    arrays = np.load(spec["inputs"])
    axis = build_axis(spec["level"])
    cases = []
    for i, lam in enumerate(spec["lambdas"]):
        f = grid_function(arrays[f"f{i}"], axis)
        g = grid_function(arrays[f"g{i}"], axis)
        cases.append((lam, f, g, GoodParams(spec["r"], default_gamma(lam))))
    return axis, cases


def _work_represent(spec, setup):
    from dyadica import fracops
    from dyadica.dyadic import enumerate_systems

    axis, cases = setup
    report = []
    for lam, f, g, params in cases:
        rep = fracops.verify_representation(f, g, lam, params, enumerate_systems(axis))
        report.append(
            {
                "lam": lam,
                "n_systems": rep.n_systems,
                "relative_residuals": list(rep.relative_residuals),
            }
        )
    out = Path(spec["out"]) / "report.json"
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return {"exit_code": 0}


KINDS = {
    "all": (_setup_all, _work_all),
    "represent": (_setup_represent, _work_represent),
}


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    setup, work = KINDS[spec["kind"]]
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    state = setup(spec)
    result = {"t_setup": time.perf_counter()}
    probe = SpeedProbe()
    probe.take_burst()
    if not spec["setup_only"]:
        if tracer is None:
            probe.start()
        cpu0 = _cpu_s()
        result["t_work"] = time.perf_counter()
        try:
            result.update(work(spec, state))
        finally:
            probe.stop()
        result["t_end"] = time.perf_counter()
        result["cpu_s"] = _cpu_s() - cpu0
        if tracer is not None:
            result["trace"] = tracer.summary()
    result.update(probe.summary())
    if spec["setup_only"]:
        import numpy
        import scipy

        result["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
        result["blas"] = _blas_name(numpy)
    result["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


def _blas_name(numpy) -> str:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
