"""Output checks applied to every verify run of the benchmark.

The checks hold for any random stream: no golden digests are stored, since
planned changes to the samplers and fitters change the streams on purpose.
Statistical verdicts (slopes, failure rates against delta) are left to the
acceptance suite.
"""

from __future__ import annotations

import json
from pathlib import Path

from workloads import sweep_length


def _reject_constant(token: str):
    raise ValueError(f"non-strict JSON constant {token}")


def strict_loads(text: str):
    """``json.loads`` that rejects NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def _echo_mismatches(expected: dict, echo: dict, prefix: str = "") -> list[str]:
    problems = []
    for key, value in expected.items():
        if key not in echo:
            problems.append(f"config echo lacks {prefix}{key}")
        elif isinstance(value, dict) and isinstance(echo[key], dict):
            problems += _echo_mismatches(value, echo[key], f"{prefix}{key}.")
        elif echo[key] != value:
            problems.append(f"config echo {prefix}{key}={echo[key]!r}, expected {value!r}")
    return problems


def check_report(config: dict, json_text: str, csv_text: str, exit_code: int) -> list[str]:
    """Problems found in one run's JSON report, its CSV sibling and exit code."""
    try:
        report = strict_loads(json_text)
    except ValueError as exc:
        return [f"report is not strict JSON: {exc}"]
    trials = report["trials"]
    problems = _echo_mismatches(config, report["config"])
    if report["config"].get("output_path") is not None:
        problems.append("config echo carries the output path")

    expected_rows = config["trials"] * sweep_length(config)
    if len(trials) != expected_rows:
        problems.append(f"{len(trials)} trial rows, expected {expected_rows}")
    failures = sum(1 for t in trials if t["failed"])
    if trials and report["failure_rate"] != failures / len(trials):
        problems.append(f"failure_rate {report['failure_rate']} != {failures}/{len(trials)}")
    threshold = report["extras"]["failure_threshold"]
    wrong = [t["trial_index"] for t in trials if t["failed"] != (t["sup_error"] > threshold)]
    if wrong:
        problems.append(f"failed flag disagrees with sup_error > {threshold} in rows {wrong[:5]}")
    if exit_code != (0 if report["pass"] else 2):
        problems.append(f"exit code {exit_code} does not match pass={report['pass']}")

    lines = csv_text.splitlines()
    if not lines or lines[0] != "trial_index,sup_error,failed":
        problems.append("CSV header missing")
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(trials):
        problems.append(f"CSV has {len(rows)} rows, report has {len(trials)}")
    elif any(
        int(row[0]) != t["trial_index"] or int(row[2]) != int(t["failed"])
        for row, t in zip(rows, trials)
    ):
        problems.append("CSV rows disagree with the report")
    return problems


def read_outputs(output: Path) -> tuple[str, str] | None:
    """The JSON report and its CSV sibling, or None if either is missing."""
    csv_path = output.with_suffix(".csv")
    if not (output.is_file() and csv_path.is_file()):
        return None
    return output.read_text(encoding="utf-8"), csv_path.read_text(encoding="utf-8")
