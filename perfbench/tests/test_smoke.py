"""Smoke test of the benchmark at tiny sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

# Shrinks each workload to a fraction of a second per verify run.
TINY = {
    "textgen_exact": {"trials": 2, "samples_override": 500},
    "textgen_wide": {
        "trials": 1,
        "samples_override": 200,
        "params": {"epsilon": 0.1, "delta": 0.01, "vocab_size": 500, "num_contexts": 5},
    },
    "knn_sweep": {
        "knn_sizes": [8, 16],
        "dataset_size": 64,
        "eval_points": 4,
        "train": {"learning_rate": 0.5, "max_iters": 20, "grad_tolerance": 1e-8, "l2_reg": 1e-3},
    },
    "coreset_sensitivity": {
        "trials": 1,
        "dataset_size": 200,
        "coreset_sizes": [25, 200],
        "eval_points": 100,
        "train": {"learning_rate": 0.5, "max_iters": 20, "grad_tolerance": 1e-8, "l2_reg": 1e-2},
    },
}


def tiny_config(name: str, seed: int = 7) -> dict:
    return dict(workloads.make_config(name, seed), **copy.deepcopy(TINY[name]))


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_declared_names_match_the_code():
    spec = declared()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.metric_units(False)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.metric_units(True)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_end_to_end_run(name, tmp_path):
    result, summary = run.measure(name, tiny_config(name), 0, False, tmp_path / "work")
    assert result["correct"], summary["check_problems"]
    assert result["attempted"] == run.MIN_RUNS
    assert [m for m in result["metrics"]] == [n for n, _ in run.metric_units(False)]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert summary["wall_setup_s"]["n"] == run.MIN_RUNS
    # Every set-up process times the reference kernel.
    assert summary["reference_s"]["n"] == run.MIN_RUNS
    if name == "knn_sweep":
        # The knn report carries numpy booleans that json cannot serialize; the
        # benchmark must show this as failed runs until the program is fixed.
        assert result["failed"] == result["attempted"]
        assert any("not JSON serializable" in text for text in summary["errors"])
    else:
        assert result["failed"] == 0, summary["errors"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_fires_expected_spans(name, tmp_path):
    result, summary = run.measure(name, tiny_config(name), 0, True, tmp_path / "work")
    assert result["correct"], summary["check_problems"]
    assert summary["expected_spans_missing"] == []
    assert [m for m in result["metrics"]] == [n for n, _ in run.metric_units(True)]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if name.startswith("textgen"):
        cfg = tiny_config(name)
        contexts = cfg["trials"] * cfg["params"]["num_contexts"]
        assert metrics["distributions.sample_tokens.calls"] == contexts
        assert metrics["distributions.sample_tokens.draws"] == contexts * cfg["samples_override"]
        assert metrics["classify.train_logistic.calls"] == 0
    else:
        assert metrics["classify.train_logistic.calls"] > 0
        assert 0.0 <= metrics["classify.train_logistic.converged_ratio"] <= 1.0
    assert metrics["reports.write.failures"] == (1 if name == "knn_sweep" else 0)


def _report_files(tmp_path) -> tuple[dict, str, str]:
    sys.path.insert(0, str(ROOT / "src"))
    from icl_lab.experiments import ExperimentConfig, run_experiment
    from icl_lab.reports import write_csv_report, write_json_report

    config = tiny_config("textgen_exact")
    report = run_experiment(ExperimentConfig.from_dict(config))
    write_json_report(report, tmp_path / "r.json")
    write_csv_report(report, tmp_path / "r.csv")
    return config, (tmp_path / "r.json").read_text(), (tmp_path / "r.csv").read_text()


def test_checks_pass_a_sound_report_and_catch_broken_ones(tmp_path):
    config, json_text, csv_text = _report_files(tmp_path)
    report = json.loads(json_text)
    exit_code = 0 if report["pass"] else 2
    assert checks.check_report(config, json_text, csv_text, exit_code) == []

    def broken(edit) -> list[str]:
        copy_ = copy.deepcopy(report)
        edit(copy_)
        return checks.check_report(config, json.dumps(copy_), csv_text, exit_code)

    assert broken(lambda r: r["trials"][0].update(failed=not r["trials"][0]["failed"]))
    assert broken(lambda r: r["trials"][0].update(sup_error=math.inf))
    assert broken(lambda r: r.update(failure_rate=r["failure_rate"] + 0.5))
    assert broken(lambda r: r["config"].update(seed=config["seed"] + 1))
    assert broken(lambda r: r.update(**{"pass": not r["pass"]}))
    assert checks.check_report(config, json_text, csv_text.rsplit("\n", 2)[0] + "\n", exit_code)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "textgen_exact",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
