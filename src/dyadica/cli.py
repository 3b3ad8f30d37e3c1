"""Command-line front end: configuration, verification suites, reports.

Each suite re-runs one family of library checks at configurable size and
emits a machine-readable report: a JSON (or CSV) file with one record per
check and a CSV of per-sample numerics.  Hard records are exact finite
identities and decide the exit status; stability records describe
resolution robustness and only fail the run in strict mode.  Two-axis
suites place roughly half the configured level on each axis so the total
cell count stays comparable with the one-axis suites.

Reports are bit-reproducible: every random draw derives from the
configured seed, and field ordering is fixed.
"""

from __future__ import annotations

import argparse
import csv
import errno
import json
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .analysis import (
    frac_maximal_domination,
    square_function,
    strong_maximal,
)
from .dyadic import DyadicSystem
from .errors import ConfigurationError, DyadicaError
from .fracops import _residuals, maximal_table
from .grid import _check_lambda, _is_integer, build_axis, grid_function, l2_norm
from .grid import tabulate_midpoint
from .haar import _chain_sum, _cube_means, _parents, haar_analyze, haar_synthesize
from .paracomm import _DECOMPOSE_FLOATS, _EXPAND_FLOATS, BloomConfig, _decompose
from .paracomm import _expansion, _stacks, bloom_experiment
from .weights import apq_characteristic, exponent_solve, power_weight

__all__ = [
    "SUITES",
    "CheckRecord",
    "ExperimentConfig",
    "SuiteOutcome",
    "emit_report",
    "load_config",
    "main",
    "run_suite",
]

# -- configuration --------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """Experiment description; every field JSON-representable.

    A config checks itself when it is built, from a file, by :func:`main` or
    directly: a value the suites cannot run raises :class:`ConfigurationError`
    naming its field, before any suite runs.  The list fields are stored as
    tuples of their checked entries.
    """

    suite: str
    seed: int
    levels: Tuple[int, ...] = (6,)
    lambdas: Tuple[float, ...] = (0.5,)
    exponents: Tuple[Tuple[float, float], ...] = ((4.0 / 3.0, 0.5),)
    weights: Tuple[Tuple[float, float], ...] = ((0.3, 0.5), (-0.25, 0.25))
    samples: int = 20
    out: str = "reports"
    format: str = "json"

    def __post_init__(self):
        if self.suite not in SUITES + ("all",):
            _fail("suite", f"must be one of {SUITES + ('all',)}, got {self.suite!r}")
        seed = self.seed
        if not _is_integer(seed) or seed < 0:
            _fail("seed", f"must be a non-negative integer, got {seed!r}")
        object.__setattr__(self, "seed", int(seed))  # a numpy integer as an int
        for name, convert, check, label in (
            # an integer level as an int, which the report's meta can write
            ("levels", lambda lv: int(lv) if _is_integer(lv) else lv, build_axis, str),
            ("lambdas", _number, _check_lambda, lambda lam: f"{lam:g}"),
            ("exponents", _pair, _exponent_pair, lambda pair: f"p{pair[0]:g}"),
            ("weights", _pair, _weight_pair, None),
        ):
            entries = _entry_list(name, getattr(self, name), convert, check, label)
            object.__setattr__(self, name, entries)
        samples = self.samples
        if not _is_integer(samples) or samples < 1:
            _fail("samples", f"must be a positive integer, got {samples!r}")
        object.__setattr__(self, "samples", int(samples))
        if not isinstance(self.out, str) or not self.out:
            _fail("out", f"must be a non-empty path string, got {self.out!r}")
        if self.format not in ("json", "csv"):
            _fail("format", f"must be 'json' or 'csv', got {self.format!r}")


_CONFIG_FIELDS = tuple(field.name for field in fields(ExperimentConfig))


def _fail(name: str, why: str):
    raise ConfigurationError(f"invalid field {name!r}: {why}")


def _entry_list(name: str, value, convert, check, label=None) -> tuple:
    """List field ``name`` as the tuple of ``convert(entry)`` for each entry
    of ``value``.  A value ``tuple`` cannot take fails the field, and so does
    an empty one; an entry that ``convert`` refuses, that the library's
    ``check`` rejects with a :class:`DyadicaError`, or whose record label
    ``label(entry)`` repeats an earlier entry's fails the entry: two records
    of one name cannot both stand."""
    try:
        values = tuple(value)
    except TypeError:
        _fail(name, f"has the wrong type: {value!r}")
    if not values:
        _fail(name, "must be non-empty")
    entries, seen = [], {}
    for idx, raw in enumerate(values):
        try:
            entry = convert(raw)
            check(entry)
        except DyadicaError as exc:
            _fail(f"{name}[{idx}]", str(exc))
        except (TypeError, ValueError):
            _fail(f"{name}[{idx}]", f"has the wrong type: {raw!r}")
        if label is not None:
            first = seen.setdefault(label(entry), idx)
            if first != idx:
                _fail(f"{name}[{idx}]", f"gives the label {label(entry)!r} of {name}[{first}]")
        entries.append(entry)
    return tuple(entries)


def _number(value) -> float:
    """A JSON number as a float; a string, boolean or null has the wrong type."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"not a number: {value!r}")
    return float(value)


def _pair(value) -> tuple:
    """A JSON list of numbers as floats; the entry's check reads its length."""
    return tuple(map(_number, value))


def _exponent_pair(pair) -> None:
    if len(pair) != 2:
        raise ConfigurationError(f"must be a [p, lambda] pair, got {pair!r}")
    exponent_solve(*pair)


def _weight_pair(pair) -> None:
    if len(pair) != 2:
        raise ConfigurationError(f"must be an [alpha, center] pair, got {pair!r}")
    alpha, center = pair
    if not abs(alpha) < 1.0:
        raise ConfigurationError(f"|alpha| must be below 1, got {alpha!r}")
    if not 0.0 <= center < 1.0:
        raise ConfigurationError(f"center must lie in [0, 1), got {center!r}")


def _config_from_mapping(data: Mapping) -> ExperimentConfig:
    for key in data:
        if key not in _CONFIG_FIELDS:
            raise ConfigurationError(f"unknown field {key!r}")
    for name in ("suite", "seed"):
        if name not in data:
            _fail(name, f"a {name} is mandatory")
    return ExperimentConfig(**data)


def load_config(path) -> ExperimentConfig:
    """Read and validate a JSON experiment config; defaults filled."""
    return _config_from_mapping(_read_config(path))


def _read_config(path) -> dict:
    """The JSON object of a config file, not yet validated."""
    p = Path(path)
    if not p.is_file():
        raise ConfigurationError(f"config file not found: {p}")
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {p}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"parse error in {p} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise ConfigurationError("config must be a JSON object")
    return data


# -- records and reports --------------------------------------------------


@dataclass(frozen=True)
class CheckRecord:
    """One verification outcome; ``hard`` marks exit-status-relevant checks."""

    name: str
    anchor: str
    value: float
    threshold: float
    passed: bool
    hard: bool = True


def _worst(values) -> float:
    """The largest of ``values`` and 0.0 as a Python float; NaN if any value
    is NaN, which Python's ``max`` would drop."""
    return float(np.max(values, initial=0.0))


def _variation(values) -> float:
    """How far the highest of ``values`` lies above the lowest, relative to
    the lowest; where the lowest is at most 0.0 no relative figure exists,
    and the variation is 1.0 if the highest is above 0.0, else 0.0.  NaN if
    any value is NaN."""
    low, high = float(np.min(values)), float(np.max(values))
    return float(high > 0.0) if low <= 0.0 else (high - low) / low


class _Sink:
    """One check's record, fed one sample at a time by :meth:`add`.

    ``rule`` (:func:`_worst` or :func:`_variation`) reads the record's value
    from the lowest and the highest sample so far, both NaN once any sample
    is NaN; before the first sample the value is 0.0.  ``label`` is the label
    of the first sample at which the value became what it is, or None while
    it is still the 0.0 it started at.  The label is written to no file."""

    def __init__(self, out: "_Output", name: str, anchor: str, threshold: float,
                 hard: bool, rule):
        self.name, self.anchor, self.threshold, self.hard = name, anchor, threshold, hard
        self.rule, self._out = rule, out
        self.value, self.label = 0.0, None
        self._extremes = ()

    def add(self, label: str, value: float, row: Optional[float] = None) -> None:
        """Fold the sample ``value`` into the record; a ``row`` value goes to
        the suite's samples rows under ``label``."""
        if row is not None:
            self._out.rows.append((self._out.suite, label, row))
        if self._extremes and self._extremes[0] <= value <= self._extremes[1]:
            return  # neither a new extreme nor a NaN: the value stands
        seen = (*self._extremes, value)
        self._extremes = (np.min(seen), np.max(seen))
        value = self.rule(self._extremes)
        if value != self.value and not (np.isnan(value) and np.isnan(self.value)):
            self.value, self.label = value, label

    def check(self) -> CheckRecord:
        """The record; it passes when its value is at most its threshold (a
        NaN fails)."""
        return CheckRecord(self.name, self.anchor, self.value, self.threshold,
                           self.value <= self.threshold, self.hard)


class _Output:
    """One suite's sinks, opened by :meth:`sink`, and the samples rows they
    pass on, in call order."""

    def __init__(self, suite: str):
        self.suite = suite
        self.sinks: List[_Sink] = []
        self.rows: List[Tuple[str, str, float]] = []

    def sink(self, name: str, anchor: str, threshold: float, hard: bool = True,
             rule=_worst) -> _Sink:
        self.sinks.append(_Sink(self, name, anchor, threshold, hard, rule))
        return self.sinks[-1]


def _json_number(x: float):
    """``x``, or for a non-finite number the text ``samples.csv`` writes
    (``"nan"``, ``"inf"``, ``"-inf"``): JSON has no such numbers."""
    return x if np.isfinite(x) else repr(float(x))


def _record_dict(record: CheckRecord) -> Dict:
    return {
        "name": record.name,
        "paper_anchor": record.anchor,
        "value": _json_number(record.value),
        "threshold": _json_number(record.threshold),
        "pass": record.passed,
    }


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    """``header`` and then each of ``rows`` as one CSV line of ``path``;
    an ``OSError`` reaches the caller, which names the file's role."""
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def emit_report(records: Sequence[CheckRecord], format: str, path, meta=None) -> None:
    """Write check records as JSON ({meta, checks}) or CSV; stable ordering."""
    out = Path(path)
    full_meta = {"seed": None, "levels": [], "version": __version__}
    if meta:
        full_meta.update(meta)
        full_meta["version"] = __version__
    try:
        if format == "json":
            payload = {
                "meta": full_meta,
                "checks": [_record_dict(r) for r in records],
            }
            out.write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n", encoding="utf-8")
        elif format == "csv":
            rows = (
                [r.name, r.anchor, repr(r.value), repr(r.threshold),
                 "true" if r.passed else "false"]
                for r in records
            )
            _write_csv(out, ["check", "anchor", "value", "threshold", "pass"], rows)
        else:
            raise ConfigurationError(f"unknown report format {format!r}")
    except OSError as exc:
        raise ConfigurationError(f"cannot write report {out}: {exc}") from exc


def _check_writable(path: Path, role: str) -> None:
    """Raise, before any suite runs, the ConfigurationError that writing
    ``path`` as the run's ``role`` file would; creates and truncates nothing."""
    if path.is_dir():
        exc = IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    elif not os.access(path if path.exists() else path.parent, os.W_OK):
        exc = PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
    else:
        return
    raise ConfigurationError(f"cannot write {role} {path}: {exc}")


def _write_samples(rows: Sequence[Tuple[str, str, float]], path) -> None:
    out = Path(path)
    try:
        rows = ((suite, label, repr(value)) for suite, label, value in rows)
        _write_csv(out, ["suite", "sample", "value"], rows)
    except OSError as exc:
        raise ConfigurationError(f"cannot write samples {out}: {exc}") from exc


# -- suites ---------------------------------------------------------------

_PER_AXIS_MIN = 2


def _per_axis(level: int) -> int:
    """Two-axis level budget: about half the configured level per axis."""
    return max(_PER_AXIS_MIN, (level + 2) // 2)


def _suite_rng(config: ExperimentConfig, suite: str) -> np.random.Generator:
    return np.random.default_rng((config.seed, SUITES.index(suite)))


def _sample_pairs(rng: np.random.Generator, count: int, n: int, footprint: int):
    """``count`` pairs of n x n value tables (b, f), drawn b then f pair by
    pair, yielded as stacks for a helper of ``footprint`` floats per cell:
    the first pair's index and the b and f stacks."""
    for lo, hi in _stacks(count, n * n, footprint):
        B, F = np.ascontiguousarray(rng.normal(size=(hi - lo, 2, n, n)).swapaxes(0, 1))
        yield lo, B, F


# haar-verify's work on a stack of samples, per offset: the transform pair,
# the cube means and the chain sum: 10 to 12 floats per grid cell of a sample,
# so at L=6 all 20 samples share one stack and at L=14 each is a stack of one
_HAAR_VERIFY_FLOATS = 12


def _suite_haar_verify(config: ExperimentConfig, out: _Output) -> None:
    """Per sample and offset, the residual of the Haar expansion and of the
    telescoped martingale differences, for a stack of samples drawn at once.
    The transform pair runs along the stack's cell axis, which keeps each
    sample's bits.  The telescoping sums, coarse to fine, each cube's step
    from its parent's mean (:func:`~dyadica.haar._chain_sum`); the means are
    the cube means ``level_average`` and ``level_difference`` spread, so the
    steps are theirs by construction; each sample's means are reduced alone,
    in the order of one sample's."""
    rng = _suite_rng(config, "haar-verify")
    for level in config.levels:
        axis = build_axis(level)
        n = axis.n_cells
        offsets = sorted({0, 1, n // 2})
        recon = out.sink(
            f"haar-verify-reconstruction-L{level}", "haar-orthonormal-expansion", 1e-12
        )
        tel = out.sink(f"haar-verify-telescoping-L{level}", "martingale-telescoping", 1e-12)
        for lo, hi in _stacks(config.samples, n, _HAAR_VERIFY_FLOATS):
            X = rng.normal(size=(hi - lo, n))
            residuals = []  # per offset, the stack's two residuals per sample
            for off in offsets:
                system = DyadicSystem(axis, off)
                back = haar_synthesize(haar_analyze(X, system, 1), system, 1)
                R = np.stack([_cube_means(x, system, 0) for x in X])
                total = _chain_sum(R - _parents(R, 1), ((1, system),), first=1)
                residuals.append([np.max(np.abs(Y - X), axis=1) for Y in (back, total)])
            for s, per_offset in enumerate(np.transpose(residuals, (2, 0, 1)).tolist(), lo):
                for off, (res, tel_res) in zip(offsets, per_offset):
                    label = f"L{level}-off{off}-s{s}"
                    recon.add(label, res, row=res)
                    tel.add(label, tel_res)


def _suite_represent(config: ExperimentConfig, out: _Output) -> None:
    rng = _suite_rng(config, "represent")
    level = max(config.levels)
    axis = build_axis(level)
    n = axis.n_cells
    offsets = np.array(sorted({0, 1, n // 2}))
    n_pairs = min(config.samples, 5)
    subtracted = 0
    for lam in config.lambdas:
        identity = out.sink(
            f"represent-identity-lam{lam:g}", "fractional-representation-identity", 1e-8
        )
        for s in range(n_pairs):
            f = grid_function(rng.normal(size=n), axis)
            g = grid_function(rng.normal(size=n), axis)
            subtracted += sum(abs(h.mean()) > 0.0 for h in (f, g))
            f = f.with_values(f.values - f.mean())
            g = g.with_values(g.values - g.mean())
            rel = float(_residuals(f, g, lam, offsets)[1].max())
            identity.add(f"lam{lam:g}-s{s}", rel, row=rel)
    inputs = 2 * n_pairs * len(config.lambdas)
    normalized = out.sink("represent-mean-subtraction", "input-normalization", 1.0, hard=False)
    normalized.add("inputs", subtracted / inputs)


def _suite_weights(config: ExperimentConfig, out: _Output) -> None:
    axis = build_axis(max(config.levels))
    deficit = out.sink("weights-characteristic-deficit", "characteristic-lower-bound", 1e-12)
    duality = out.sink("weights-duality-identity", "characteristic-duality", 1e-10)
    for wi, (alpha, center) in enumerate(config.weights):
        w = power_weight(axis, alpha, center)
        for p, lam in config.exponents:
            q = exponent_solve(p, lam).q
            char = apq_characteristic(w, p, q)
            deficit.add(f"w{wi}-p{p:g}-char", 1.0 - char, row=char)
            p_dual = p / (p - 1.0)
            q_dual = q / (q - 1.0)
            dual_char = apq_characteristic(w.power(-1.0), q_dual, p_dual)
            target = char ** (p_dual / q)
            duality.add(f"w{wi}-p{p:g}-duality", abs(dual_char - target) / target)


def _suite_norms(config: ExperimentConfig, out: _Output) -> None:
    rng = _suite_rng(config, "norms")
    lam = config.lambdas[0]
    energy = out.sink("norms-square-energy", "square-function-energy", 1e-12)
    domination = out.sink(
        "norms-maximal-domination-deficit", "maximal-pointwise-domination", 1e-12
    )
    for level in config.levels:
        axis = build_axis(level)
        system = DyadicSystem(axis, 0)
        for s in range(min(config.samples, 10)):
            f = grid_function(rng.normal(size=axis.n_cells), axis)
            sq = square_function(f, system, mode="sole")
            centered = f.with_values(f.values - f.mean())
            rel = abs(l2_norm(sq) - l2_norm(centered)) / l2_norm(centered)
            energy.add(f"L{level}-s{s}-plancherel", rel, row=rel)
        per = _per_axis(level)
        baxis = build_axis(per)
        for s in range(min(config.samples, 5)):
            g = grid_function(
                rng.normal(size=(baxis.n_cells, baxis.n_cells)), baxis, baxis
            )
            m = strong_maximal(g)
            domination.add(f"L{level}-s{s}-maximal", np.max(np.abs(g.values) - m.values))

    def profile(x):
        return 2.0 + np.sin(2.0 * np.pi * x)

    variation = out.sink(
        "norms-frac-domination-variation", "fractional-maximal-domination", 0.2,
        hard=False, rule=_variation,
    )
    for level in sorted(set(config.levels)):
        axis = build_axis(level)
        f = tabulate_midpoint(profile, axis)
        ratio = frac_maximal_domination(f, DyadicSystem(axis, 0), lam)
        variation.add(f"L{level}-frac-domination", ratio, row=ratio)


def _suite_decompose(config: ExperimentConfig, out: _Output) -> None:
    rng = _suite_rng(config, "decompose")
    residual = out.sink("decompose-product-residual", "nine-term-product-split", 1e-12)
    # each distinct per-axis level once: a repeat would repeat its labels
    for per in dict.fromkeys(map(_per_axis, config.levels)):
        axis = build_axis(per)
        pair = (DyadicSystem(axis, 0), DyadicSystem(axis, 1 % axis.n_cells))
        for lo, B, F in _sample_pairs(rng, config.samples, axis.n_cells, _DECOMPOSE_FLOATS):
            scale = np.max(np.abs(B * F), axis=(-2, -1))
            for s, rel in enumerate((_decompose(B, F, *pair)[2] / scale).tolist(), lo):
                residual.add(f"L{per}x{per}-s{s}", rel, row=rel)


def _suite_commutator(config: ExperimentConfig, out: _Output) -> None:
    rng = _suite_rng(config, "commutator")
    lam1 = config.lambdas[0]
    lam2 = config.lambdas[-1]
    residual = out.sink("commutator-expansion-residual", "shift-commutator-expansion", 1e-10)
    # each distinct per-axis level once: a repeat would repeat its labels
    for per in dict.fromkeys(map(_per_axis, config.levels)):
        axis = build_axis(per)
        s1 = DyadicSystem(axis, 0)
        s2 = DyadicSystem(axis, axis.n_cells // 2)
        depth_cases = [(1, 0, 0, 1), (0, 0, 1, 1), (1, 1, 1, 0)]
        depth_cases = [
            c for c in depth_cases if max(c) < per
        ]
        for ci, (i, j, s_, t_) in enumerate(depth_cases):
            t1 = maximal_table(s1, i, j, lam1)
            t2 = maximal_table(s2, s_, t_, lam2)
            expand = _expansion(t1, t2, s1, s2)
            count = min(config.samples, 10)
            for lo, B, F in _sample_pairs(rng, count, axis.n_cells, _EXPAND_FLOATS):
                for s, value in enumerate(expand(B, F)[2].tolist(), lo):
                    residual.add(f"L{per}x{per}-c{ci}-s{s}", value, row=value)


def _suite_bloom(config: ExperimentConfig, out: _Output) -> None:
    p, lam = config.exponents[0]
    top = max(5, _per_axis(max(config.levels)))  # levels 3..5 up to --level 8
    bloom = BloomConfig(
        levels=tuple(range(BloomConfig.base_level, top + 1)),
        p1=p, p2=p, lam1=lam, lam2=lam,
        n_samples=min(config.samples, 10),
        seed=config.seed,
    )
    report = bloom_experiment(bloom)
    budget = out.sink("bloom-characteristic-budget", "characteristic-budget", 10.0, hard=False)
    for qi in range(len(report.levels[0].quads)):
        variation = out.sink(
            f"bloom-ratio-variation-quad{qi}", "two-weight-ratio-stability", 0.5,
            hard=False, rule=_variation,
        )
        for level_result in report.levels:
            quad = level_result.quads[qi]
            label = f"L{level_result.level}-quad{qi}"
            variation.add(label, quad.max_ratio, row=quad.max_ratio)
            for wi, char in enumerate(quad.characteristics):
                budget.add(f"{label}-w{wi}", char)


_SUITE_FUNCTIONS = {
    "bloom": _suite_bloom,
    "commutator": _suite_commutator,
    "decompose": _suite_decompose,
    "haar-verify": _suite_haar_verify,
    "norms": _suite_norms,
    "represent": _suite_represent,
    "weights": _suite_weights,
}
SUITES = tuple(_SUITE_FUNCTIONS)  # _suite_rng seeds from the position; reports keep the order


# -- orchestration --------------------------------------------------------


@dataclass(frozen=True)
class SuiteOutcome:
    exit_code: int
    records: Tuple[CheckRecord, ...]
    report_path: Path
    samples_path: Path


def _run_one(name: str, config: ExperimentConfig) -> _Output:
    """Run one suite into its own output; an error it raises becomes one
    failing record in place of the suite's records and rows."""
    out = _Output(name)
    try:
        _SUITE_FUNCTIONS[name](config, out)
    except Exception as exc:  # one suite's crash must not lose the others' reports
        print(f"{name}: {type(exc).__name__}: {exc}", file=sys.stderr)
        kind = "contract-error" if isinstance(exc, DyadicaError) else "crash"
        if kind == "crash":  # a library fault: say where it was raised
            import traceback

            traceback.print_exc(file=sys.stderr)
        out = _Output(name)
        # one error raised against none allowed
        out.sink(f"{name}-{kind}", f"error-{type(exc).__name__}", 0.0).add(type(exc).__name__, 1.0)
    return out


def run_suite(config: ExperimentConfig, strict: bool = False) -> SuiteOutcome:
    """Run the configured suite(s); write report and sample files.

    Exit code 0 when all hard checks pass (and, in strict mode, all
    stability checks too), else 1.  Deterministic for a fixed config.
    """
    names = SUITES if config.suite == "all" else (config.suite,)
    out_dir = Path(config.out)
    try:  # before any suite runs: a path that cannot be a directory fails at once
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot create output dir {out_dir}: {exc}") from exc
    report_path = out_dir / ("report.json" if config.format == "json" else "report.csv")
    samples_path = out_dir / "samples.csv"
    _check_writable(report_path, "report")
    _check_writable(samples_path, "samples")
    records: List[CheckRecord] = []
    rows: List[Tuple[str, str, float]] = []
    for name in names:
        out = _run_one(name, config)
        records.extend(sorted((sink.check() for sink in out.sinks), key=lambda r: r.name))
        rows.extend(out.rows)

    meta = {"seed": config.seed, "levels": list(config.levels)}
    emit_report(records, config.format, report_path, meta=meta)
    _write_samples(rows, samples_path)

    failed = any(
        (not r.passed) and (r.hard or strict) for r in records
    )
    return SuiteOutcome(
        exit_code=1 if failed else 0,
        records=tuple(records),
        report_path=report_path,
        samples_path=samples_path,
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dyadica",
        description="Verification suites for the bi-parameter dyadic toolkit.",
    )
    names = SUITES + ("all",)
    parser.add_argument("suite", choices=names, metavar="SUITE", help=f"one of: {', '.join(names)}")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, help="override the seed")
    parser.add_argument("--level", type=int, help="override the level list")
    parser.add_argument("--out", help="override the output directory")
    parser.add_argument(
        "--strict",
        action="store_true",
        help="stability warnings also fail the run",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    flags = {
        "suite": args.suite,
        "seed": args.seed,
        "levels": None if args.level is None else [args.level],
        "out": args.out,
    }
    try:
        # the file's fields, each overridden by the suite argument or a flag
        data = _read_config(args.config) if args.config else {}
        data.update((name, value) for name, value in flags.items() if value is not None)
        outcome = run_suite(_config_from_mapping(data), strict=args.strict)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for record in outcome.records:
        status = "pass" if record.passed else "FAIL"
        print(
            f"{record.name}: {status} "
            f"(value={record.value:.6g}, threshold={record.threshold:g})"
        )
    print(f"report: {outcome.report_path}")
    print(f"samples: {outcome.samples_path}")
    return outcome.exit_code


if __name__ == "__main__":
    sys.exit(main())
