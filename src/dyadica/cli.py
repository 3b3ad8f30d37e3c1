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
    "config_to_dict",
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


def _plain(value):
    """Tuples as (nested) lists, for JSON."""
    return [_plain(v) for v in value] if isinstance(value, (tuple, list)) else value


def config_to_dict(config: ExperimentConfig) -> Dict:
    """JSON-ready mapping; ``load`` of a dump reproduces the config."""
    return {name: _plain(getattr(config, name)) for name in _CONFIG_FIELDS}


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


def _check(
    name: str, anchor: str, value: float, threshold: float, hard: bool = True
) -> CheckRecord:
    """A record that passes when ``value <= threshold`` (NaN fails)."""
    return CheckRecord(name, anchor, value, threshold, value <= threshold, hard)


def _worst(values) -> float:
    """The largest of ``values`` and 0.0 as a Python float; NaN if any value
    is NaN, which Python's ``max`` would drop."""
    return float(np.max(values, initial=0.0))


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


def _suite_haar_verify(config: ExperimentConfig):
    """Per sample and offset, the residual of the Haar expansion and of the
    telescoped martingale differences, for a stack of samples drawn at once.
    The transform pair runs along the stack's cell axis, which keeps each
    sample's bits.  The telescoping sums, coarse to fine, each cube's step
    from its parent's mean (:func:`~dyadica.haar._chain_sum`); the means are
    the cube means ``level_average`` and ``level_difference`` spread, so the
    steps are theirs by construction; each sample's means are reduced alone,
    in the order of one sample's."""
    rng = _suite_rng(config, "haar-verify")
    records, rows = [], []
    for level in config.levels:
        axis = build_axis(level)
        n = axis.n_cells
        offsets = sorted({0, 1, n // 2})
        recons, tels = [], []
        for lo, hi in _stacks(config.samples, n, _HAAR_VERIFY_FLOATS):
            X = rng.normal(size=(hi - lo, n))
            recon = []
            for off in offsets:
                system = DyadicSystem(axis, off)
                back = haar_synthesize(haar_analyze(X, system, 1), system, 1)
                recon.append(np.max(np.abs(back - X), axis=1).tolist())
                R = np.stack([_cube_means(x, system, 0) for x in X])
                total = _chain_sum(R - _parents(R, 1), ((1, system),), first=1)
                tels.append(np.max(np.abs(total - X)))
            for s, values in enumerate(zip(*recon), lo):
                recons.extend(values)
                for off, value in zip(offsets, values):
                    rows.append(("haar-verify", f"L{level}-off{off}-s{s}", value))
        records.append(
            _check(
                f"haar-verify-reconstruction-L{level}",
                "haar-orthonormal-expansion",
                _worst(recons),
                1e-12,
            )
        )
        records.append(
            _check(
                f"haar-verify-telescoping-L{level}",
                "martingale-telescoping",
                _worst(tels),
                1e-12,
            )
        )
    return records, rows


def _suite_represent(config: ExperimentConfig):
    rng = _suite_rng(config, "represent")
    records, rows = [], []
    level = max(config.levels)
    axis = build_axis(level)
    n = axis.n_cells
    offsets = np.array(sorted({0, 1, n // 2}))
    n_pairs = min(config.samples, 5)
    subtracted = 0
    total_inputs = 0
    for lam in config.lambdas:
        rels = []
        for s in range(n_pairs):
            f = grid_function(rng.normal(size=n), axis)
            g = grid_function(rng.normal(size=n), axis)
            for h in (f, g):
                total_inputs += 1
                if abs(h.mean()) > 0.0:
                    subtracted += 1
            f = f.with_values(f.values - f.mean())
            g = g.with_values(g.values - g.mean())
            rel = float(_residuals(f, g, lam, offsets)[1].max())
            rels.append(rel)
            rows.append(("represent", f"lam{lam:g}-s{s}", rel))
        records.append(
            _check(
                f"represent-identity-lam{lam:g}",
                "fractional-representation-identity",
                _worst(rels),
                1e-8,
            )
        )
    frac = subtracted / total_inputs if total_inputs else 0.0
    records.append(
        _check(
            "represent-mean-subtraction",
            "input-normalization",
            frac,
            1.0,
            hard=False,
        )
    )
    return records, rows


def _suite_weights(config: ExperimentConfig):
    records, rows = [], []
    level = max(config.levels)
    axis = build_axis(level)
    built = [power_weight(axis, a, c) for a, c in config.weights]
    deficits, dualities = [], []
    for wi, w in enumerate(built):
        for p, lam in config.exponents:
            q = exponent_solve(p, lam).q
            char = apq_characteristic(w, p, q)
            deficits.append(1.0 - char)
            p_dual = p / (p - 1.0)
            q_dual = q / (q - 1.0)
            dual_char = apq_characteristic(w.power(-1.0), q_dual, p_dual)
            target = char ** (p_dual / q)
            dualities.append(abs(dual_char - target) / target)
            rows.append(("weights", f"w{wi}-p{p:g}-char", char))
    records.append(
        _check(
            "weights-characteristic-deficit",
            "characteristic-lower-bound",
            _worst(deficits),
            1e-12,
        )
    )
    records.append(
        _check("weights-duality-identity", "characteristic-duality", _worst(dualities), 1e-10)
    )
    return records, rows


def _suite_norms(config: ExperimentConfig):
    rng = _suite_rng(config, "norms")
    records, rows = [], []
    lam = config.lambdas[0]

    plancherels, gaps = [], []
    for level in config.levels:
        axis = build_axis(level)
        system = DyadicSystem(axis, 0)
        for s in range(min(config.samples, 10)):
            f = grid_function(rng.normal(size=axis.n_cells), axis)
            sq = square_function(f, system, mode="sole")
            centered = f.with_values(f.values - f.mean())
            rel = abs(l2_norm(sq) - l2_norm(centered)) / l2_norm(centered)
            plancherels.append(rel)
            rows.append(("norms", f"L{level}-s{s}-plancherel", rel))
        per = _per_axis(level)
        baxis = build_axis(per)
        for s in range(min(config.samples, 5)):
            g = grid_function(
                rng.normal(size=(baxis.n_cells, baxis.n_cells)), baxis, baxis
            )
            m = strong_maximal(g)
            gaps.append(np.max(np.abs(g.values) - m.values))
    records.append(
        _check("norms-square-energy", "square-function-energy", _worst(plancherels), 1e-12)
    )
    records.append(
        _check(
            "norms-maximal-domination-deficit",
            "maximal-pointwise-domination",
            _worst(gaps),
            1e-12,
        )
    )

    def profile(x):
        return 2.0 + np.sin(2.0 * np.pi * x)

    ratios = []
    for level in sorted(set(config.levels)):
        axis = build_axis(level)
        f = tabulate_midpoint(profile, axis)
        ratio = frac_maximal_domination(f, DyadicSystem(axis, 0), lam)
        ratios.append(ratio)
        rows.append(("norms", f"L{level}-frac-domination", ratio))
    low, high = float(np.min(ratios)), float(np.max(ratios))  # NaN if any ratio is
    variation = (high - low) / low
    records.append(
        _check(
            "norms-frac-domination-variation",
            "fractional-maximal-domination",
            variation,
            0.2,
            hard=False,
        )
    )
    return records, rows


def _suite_decompose(config: ExperimentConfig):
    rng = _suite_rng(config, "decompose")
    records, rows = [], []
    # each distinct per-axis level once: a repeat would repeat its labels
    for per in dict.fromkeys(map(_per_axis, config.levels)):
        axis = build_axis(per)
        pair = (DyadicSystem(axis, 0), DyadicSystem(axis, 1 % axis.n_cells))
        for lo, B, F in _sample_pairs(rng, config.samples, axis.n_cells, _DECOMPOSE_FLOATS):
            residual = _decompose(B, F, *pair)[2]
            scale = np.max(np.abs(B * F), axis=(-2, -1))
            for s, rel in enumerate((residual / scale).tolist(), lo):
                rows.append(("decompose", f"L{per}x{per}-s{s}", rel))
    worst = _worst([value for _, _, value in rows])
    records.append(
        _check("decompose-product-residual", "nine-term-product-split", worst, 1e-12)
    )
    return records, rows


def _suite_commutator(config: ExperimentConfig):
    rng = _suite_rng(config, "commutator")
    records, rows = [], []
    lam1 = config.lambdas[0]
    lam2 = config.lambdas[-1]
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
                residual = expand(B, F)[2]
                for s, value in enumerate(residual.tolist(), lo):
                    rows.append(("commutator", f"L{per}x{per}-c{ci}-s{s}", value))
    records.append(
        _check(
            "commutator-expansion-residual",
            "shift-commutator-expansion",
            _worst([value for _, _, value in rows]),
            1e-10,
        )
    )
    return records, rows


def _suite_bloom(config: ExperimentConfig):
    records, rows = [], []
    p, lam = config.exponents[0]
    top = max(5, _per_axis(max(config.levels)))  # levels 3..5 up to --level 8
    bloom = BloomConfig(
        levels=tuple(range(BloomConfig.base_level, top + 1)),
        p1=p, p2=p, lam1=lam, lam2=lam,
        n_samples=min(config.samples, 10),
        seed=config.seed,
    )
    report = bloom_experiment(bloom)
    n_quads = len(report.levels[0].quads)
    characteristics = []
    for qi in range(n_quads):
        maxima = []
        for level_result in report.levels:
            quad = level_result.quads[qi]
            maxima.append(quad.max_ratio)
            characteristics.extend(quad.characteristics)
            rows.append(("bloom", f"L{level_result.level}-quad{qi}", quad.max_ratio))
        low, high = float(np.min(maxima)), float(np.max(maxima))  # NaN if any is
        variation = float(high > 0.0) if low <= 0.0 else (high - low) / low
        records.append(
            _check(
                f"bloom-ratio-variation-quad{qi}",
                "two-weight-ratio-stability",
                variation,
                0.5,
                hard=False,
            )
        )
    records.append(
        _check(
            "bloom-characteristic-budget",
            "characteristic-budget",
            _worst(characteristics),
            10.0,
            hard=False,
        )
    )
    return records, rows


_SUITE_FUNCTIONS = {
    "bloom": _suite_bloom,
    "commutator": _suite_commutator,
    "decompose": _suite_decompose,
    "haar-verify": _suite_haar_verify,
    "norms": _suite_norms,
    "represent": _suite_represent,
    "weights": _suite_weights,
}
SUITES = tuple(_SUITE_FUNCTIONS)  # _suite_rng seeds from the position


# -- orchestration --------------------------------------------------------


@dataclass(frozen=True)
class SuiteOutcome:
    exit_code: int
    records: Tuple[CheckRecord, ...]
    report_path: Path
    samples_path: Path


def _thread_cap() -> int:
    raw = os.environ.get("DYADICA_THREADS", "1")
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ConfigurationError(
            f"DYADICA_THREADS must be an integer, got {raw!r}"
        ) from exc
    return max(1, cap)


def _run_one(name: str, config: ExperimentConfig):
    """Run one suite; an error it raises becomes one failing record."""
    try:
        return _SUITE_FUNCTIONS[name](config)
    except Exception as exc:  # one suite's crash must not lose the others' reports
        print(f"{name}: {type(exc).__name__}: {exc}", file=sys.stderr)
        kind = "contract-error" if isinstance(exc, DyadicaError) else "crash"
        if kind == "crash":  # a library fault: say where it was raised
            import traceback

            traceback.print_exc(file=sys.stderr)
        # one error raised against none allowed
        return [_check(f"{name}-{kind}", f"error-{type(exc).__name__}", 1.0, 0.0)], []


def run_suite(config: ExperimentConfig, strict: bool = False) -> SuiteOutcome:
    """Run the configured suite(s); write report and sample files.

    Exit code 0 when all hard checks pass (and, in strict mode, all
    stability checks too), else 1.  Deterministic for a fixed config.
    """
    names = list(SUITES) if config.suite == "all" else [config.suite]
    cap = _thread_cap()
    out_dir = Path(config.out)
    try:  # before any suite runs: a path that cannot be a directory fails at once
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot create output dir {out_dir}: {exc}") from exc
    if cap > 1 and len(names) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=min(cap, len(names))) as pool:
            results = dict(zip(names, pool.map(lambda name: _run_one(name, config), names)))
    else:
        results = {name: _run_one(name, config) for name in names}

    records: List[CheckRecord] = []
    rows: List[Tuple[str, str, float]] = []
    for name in sorted(names):
        suite_records, suite_rows = results[name]
        records.extend(sorted(suite_records, key=lambda r: r.name))
        rows.extend(suite_rows)

    report_path = out_dir / ("report.json" if config.format == "json" else "report.csv")
    samples_path = out_dir / "samples.csv"
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
