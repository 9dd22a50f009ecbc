"""Experiment reports: per-trial records, aggregate pass/fail, JSON and CSV output.

A report passes when the observed failure rate does not exceed the target
failure probability plus a normal-approximation 95% half-width,
``1.96 * sqrt(r (1 - r) / trials)`` with ``r`` the observed rate.  Reports
carry no timestamps or environment state, so identical (config, seed) runs
serialize to identical bytes.  JSON reports are strict: a non-finite float,
such as the error of a divergent fit, is written as null.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ParameterError


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one Monte Carlo trial (or one sweep point within a trial)."""

    trial_index: int
    sup_error: float
    failed: bool
    sweep_value: int | None = None
    detail: str = ""

    def __post_init__(self):
        # Plain Python scalars, so a numpy error or flag serializes as a JSON
        # number or boolean and the CSV prints a bare float.
        object.__setattr__(self, "sup_error", float(self.sup_error))
        object.__setattr__(self, "failed", bool(self.failed))
        if not self.sup_error >= 0:  # NaN fails too; inf stays legal for a divergent fit
            raise ParameterError(f"sup_error must be non-negative, got {self.sup_error}")


@dataclass(frozen=True)
class BoundReport:
    """Aggregated result of a verification run."""

    config: dict
    trials: tuple[TrialResult, ...]
    failure_rate: float
    delta_target: float
    ci_halfwidth: float
    passed: bool
    extras: dict = field(default_factory=dict)


def build_report(
    config: dict,
    trials: Sequence[TrialResult],
    delta_target: float,
    extras: dict | None = None,
) -> BoundReport:
    trials = tuple(trials)
    if not trials:
        raise ParameterError("a report needs at least one trial")
    failures = sum(1 for t in trials if t.failed)
    rate = failures / len(trials)
    ci = 1.96 * math.sqrt(rate * (1.0 - rate) / len(trials))  # normal-approximation 95%
    return BoundReport(
        config=config,
        trials=trials,
        failure_rate=rate,
        delta_target=delta_target,
        ci_halfwidth=ci,
        passed=rate <= delta_target + ci,
        extras=dict(extras or {}),
    )


def report_to_dict(report: BoundReport) -> dict:
    """The report's fields, with ``passed`` written as ``pass`` and the trials as a list."""
    fields = asdict(report)
    fields["pass"] = fields.pop("passed")
    fields["trials"] = list(fields["trials"])
    return fields


def _finite_or_null(value):
    """``value`` with every non-finite float, at any depth, replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return value


def csv_sibling(json_path) -> Path:
    """The CSV report's path: the JSON report's ``json_path`` with the suffix ``.csv``.

    A path naming no file, or already ending in ``.csv``, is refused, so the CSV
    never overwrites the JSON report.
    """
    path = Path(json_path)
    if not path.name or path.suffix == ".csv":
        raise ParameterError(
            f"report path {str(json_path)!r} must name a file not ending in .csv; "
            "the CSV report goes to its .csv sibling"
        )
    return path.with_suffix(".csv")


@contextmanager
def report_files(json_path):
    """Temporary paths for the JSON report ``json_path`` and its CSV sibling, created
    before the body runs and moved onto the reports after it, so an unwritable path
    fails before any work and a failed body leaves neither report."""
    targets = (Path(json_path), csv_sibling(json_path))
    temps = [target.with_name(f".{target.name}.tmp") for target in targets]
    try:
        for target, temp in zip(targets, temps):
            if target.is_dir():
                raise IsADirectoryError(f"report path {str(target)!r} is a directory")
            try:
                temp.touch()
            except OSError as exc:  # name the report, not its temporary
                raise type(exc)(exc.errno, exc.strerror, str(target)) from exc
        yield temps
        for temp, target in zip(temps, targets):
            temp.replace(target)
    finally:
        for temp in temps:
            temp.unlink(missing_ok=True)


def write_json_report(report: BoundReport, path) -> None:
    strict = _finite_or_null(report_to_dict(report))
    payload = json.dumps(strict, indent=2, sort_keys=True, allow_nan=False) + "\n"
    Path(path).write_text(payload, encoding="utf-8")


def write_csv_report(report: BoundReport, path) -> None:
    lines = ["trial_index,sup_error,failed"]
    lines += [f"{t.trial_index},{t.sup_error!r},{int(t.failed)}" for t in report.trials]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def fit_log_log_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x), in closed form:
    ``sum(u v) / sum(u u)`` with ``u`` and ``v`` the logs less their means, each
    sum taken of a product.  A y of inf gives NaN, which a JSON report writes as
    null."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size != ys.size or xs.size < 2:
        raise ParameterError("slope fit needs at least two matching (x, y) points")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ParameterError("slope fit requires strictly positive values")
    u, v = np.log(xs), np.log(ys)
    u -= u.mean()
    if not np.any(u):
        raise ParameterError("slope fit needs at least two distinct x values")
    with np.errstate(invalid="ignore"):  # inf - inf, from a y of inf
        v -= v.mean()
        return float(np.sum(u * v) / np.sum(u * u))
