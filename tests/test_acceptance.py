"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (run ``pytest -s`` to see them all;
pytest shows the lines of failing tests either way).  Statistical criteria use
fixed seeds and the tolerances stated inline, so the whole suite is
deterministic.
"""

import dataclasses
import math

import numpy as np
import pytest

from icl_lab import (
    BoundParams,
    ExamplePair,
    ExperimentConfig,
    IclPromptSamples,
    LabeledDataset,
    LinearModel,
    TrainConfig,
    Vocabulary,
    build_prompt,
    icl_sequence_dist,
    icl_textgen_dist,
    knn_context_size,
    logistic_gradient,
    logistic_loss,
    run_experiment,
    textgen_samples_per_context,
)
from icl_lab.distributions import Context
from icl_lab.reports import report_to_dict, write_csv_report, write_json_report


def _report(number: int, description: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"[{status}] criterion {number}: {description}{suffix}")


def _rate_threshold(delta: float, trials: int) -> float:
    return delta + 1.96 * math.sqrt(delta * (1 - delta) / trials)


def test_criterion_1_textgen_calculator_worked_example():
    params = BoundParams(epsilon=0.1, delta=0.01, vocab_size=50_000, num_contexts=100)
    result = textgen_samples_per_context(params, "big_o")
    ok = (
        abs(result.per_context - 4.6e7) / 4.6e7 <= 0.02
        and abs(result.total - 4.6e9) / 4.6e9 <= 0.02
    )
    _report(1, "next-token calculator worked example", ok,
            f"n_i={result.per_context}, total={result.total}")
    assert ok


def test_criterion_2_knn_size_regime():
    k = knn_context_size(BoundParams(epsilon=0.1, delta=0.01))
    ok = 400 <= k <= 500
    _report(2, "k-NN context size in [400, 500] at eps=0.1, delta=0.01", ok, f"k={k}")
    assert ok


def test_criterion_3_textgen_failure_rate():
    cfg = ExperimentConfig(
        kind="textgen",
        params=BoundParams(epsilon=0.2, delta=0.05, vocab_size=20, num_contexts=10),
        trials=500,
        seed=20260810,
        mode="exact",
    )
    report = run_experiment(cfg)
    threshold = _rate_threshold(0.05, 500)
    ok = report.failure_rate <= threshold
    _report(3, "exact-mode next-token guarantee over 500 trials", ok,
            f"failure_rate={report.failure_rate:.4f} <= {threshold:.4f}, "
            f"n_i={report.extras['samples_per_context']}")
    assert ok


def test_criterion_4_bounded_textgen_calibrated_constant():
    base = ExperimentConfig(
        kind="bounded_textgen",
        params=BoundParams(epsilon=0.2, delta=0.05, vocab_size=5, output_len=2, num_contexts=4),
        trials=80,
        seed=101,
    )
    chosen = None
    for exponent in range(8):
        constant = float(2**exponent)
        cfg = dataclasses.replace(
            base, params=dataclasses.replace(base.params, constant=constant)
        )
        if run_experiment(cfg).passed:
            chosen = constant
            break
    assert chosen is not None, "no power-of-two constant passed the pilot"
    fresh = dataclasses.replace(
        base,
        params=dataclasses.replace(base.params, constant=chosen),
        trials=300,
        seed=424242,
    )
    report = run_experiment(fresh)
    threshold = _rate_threshold(0.05, 300)
    ok = report.failure_rate <= threshold
    _report(4, "length-2 sequence guarantee with pilot-calibrated constant", ok,
            f"constant={chosen:g}, k={report.extras['samples_per_context']}, "
            f"failure_rate={report.failure_rate:.4f} <= {threshold:.4f}")
    assert ok


def test_criterion_5_coreset_medians_shrink():
    cfg = ExperimentConfig(
        kind="coreset",
        params=BoundParams(epsilon=0.25, delta=0.05, input_dim=5),
        trials=20,
        seed=11,
        dataset_size=2000,
        coreset_sizes=(25, 100, 400, 2000),
        train=TrainConfig(learning_rate=0.5, max_iters=300, grad_tolerance=1e-8, l2_reg=1e-2),
    )
    report = run_experiment(cfg)
    medians = report.extras["median_sup_error_by_size"]
    full_size_errors = [t.sup_error for t in report.trials if t.sweep_value == 2000]
    monotone = medians["25"] > medians["100"] > medians["400"]
    identity = max(full_size_errors) < 1e-6
    ok = monotone and identity
    _report(5, "coreset sup error: strictly decreasing medians, exact at full size", ok,
            f"medians 25/100/400 = {medians['25']:.3f}/{medians['100']:.3f}/"
            f"{medians['400']:.3f}, full-size max = {max(full_size_errors):.2e}")
    assert ok


def test_criterion_6_knn_error_decay_slope():
    cfg = ExperimentConfig(
        kind="knn",
        params=BoundParams(epsilon=0.2, delta=0.05, input_dim=5),
        trials=20,
        seed=5,
        knn_sizes=(16, 64, 256, 1024),
        dataset_size=4096,
        train=TrainConfig(learning_rate=0.5, max_iters=300, grad_tolerance=1e-8, l2_reg=1e-3),
    )
    report = run_experiment(cfg)
    slope = report.extras["log_log_slope"]
    ok = -0.8 <= slope <= -0.2
    _report(6, "k-NN local-model error decays like a power law in k", ok,
            f"slope={slope:.3f} in [-0.8, -0.2], "
            f"medians={report.extras['median_sup_error_by_k']}")
    assert ok


def test_criterion_7_subset_penalty_slope():
    cfg = ExperimentConfig(
        kind="subset_penalty",
        params=BoundParams(epsilon=1.0, delta=0.05, vocab_size=10, constant=4.0),
        trials=50,
        seed=3,
        subset_sizes=(100, 1000, 10_000, 100_000),
    )
    report = run_experiment(cfg)
    slope = report.extras["log_log_slope"]
    ok = -0.65 <= slope <= -0.35
    _report(7, "estimation error vs subset size has slope near -1/2", ok,
            f"slope={slope:.3f} in [-0.65, -0.35]")
    assert ok


def test_criterion_8_prompt_fidelity():
    sentiment = build_prompt(
        [ExamplePair("Great movie!", "positive"), ExamplePair("Terrible plot.", "negative")],
        "Amazing soundtrack!",
    )
    capitals = build_prompt(
        [
            ExamplePair("What is the capital of France?", "Paris"),
            ExamplePair("What is the capital of Japan?", "Tokyo"),
        ],
        "What is the capital of Brazil?",
    )
    ok = sentiment == (
        "Great movie! positive [SEP] Terrible plot. negative [SEP] Amazing soundtrack!"
    ) and capitals == (
        "What is the capital of France? Paris [SEP] "
        "What is the capital of Japan? Tokyo [SEP] "
        "What is the capital of Brazil?"
    )
    _report(8, "reference prompts reproduced byte-exactly", ok)
    assert ok


def test_criterion_9_numerical_checks():
    rng = np.random.default_rng(90)
    h = 1e-6
    gradient_ok = True
    for _ in range(100):
        n, d = int(rng.integers(3, 25)), int(rng.integers(1, 6))
        data = LabeledDataset(rng.standard_normal((n, d)), rng.integers(0, 2, n))
        model = LinearModel(rng.standard_normal(d), float(rng.standard_normal()))
        l2 = float(rng.uniform(0, 0.1))
        grad_w, grad_b = logistic_gradient(model, data, l2)
        analytic = np.append(grad_w, grad_b)
        numeric = np.empty(d + 1)
        for j in range(d):
            delta = np.zeros(d)
            delta[j] = h
            numeric[j] = (
                logistic_loss(LinearModel(model.weights + delta, model.bias), data, l2)
                - logistic_loss(LinearModel(model.weights - delta, model.bias), data, l2)
            ) / (2 * h)
        numeric[d] = (
            logistic_loss(LinearModel(model.weights, model.bias + h), data, l2)
            - logistic_loss(LinearModel(model.weights, model.bias - h), data, l2)
        ) / (2 * h)
        if numeric != pytest.approx(analytic, rel=1e-5, abs=1e-8):
            gradient_ok = False
            break

    sums_ok = True
    worst_gap = 0.0
    for case in range(10_000):
        vocab_size = int(rng.integers(2, 12))
        vocab = Vocabulary.of_size(vocab_size)
        eta_value = float(rng.uniform(0, 0.99))
        eta = eta_value if case % 2 else 0.0
        if case % 5 == 0:
            sequences = rng.integers(0, vocab_size, size=(int(rng.integers(1, 30)), 2))
            prompt = IclPromptSamples(per_context={0: sequences})
            out = icl_sequence_dist(prompt, Context(0), vocab, 2, eta)
        else:
            samples = rng.integers(0, vocab_size, size=int(rng.integers(1, 60)))
            prompt = IclPromptSamples(per_context={0: samples})
            out = icl_textgen_dist(prompt, Context(0), vocab, eta)
        gap = abs(float(out.probs.sum()) - 1.0)
        worst_gap = max(worst_gap, gap)
        if gap > 1e-9 or np.any(out.probs < 0):
            sums_ok = False
            break

    ok = gradient_ok and sums_ok
    _report(9, "gradient matches finite differences; oracle outputs normalize", ok,
            f"probes=100 rel=1e-5, cases=10000 worst |sum-1|={worst_gap:.1e}")
    assert ok


def test_criterion_10_byte_identical_reports(tmp_path, monkeypatch):
    cfg = ExperimentConfig(
        kind="textgen",
        params=BoundParams(epsilon=0.2, delta=0.05, vocab_size=10, num_contexts=4),
        trials=24,
        seed=77,
        samples_override=2000,
        mode="big_o",
    )

    def render(threads: str):
        monkeypatch.setenv("ICL_LAB_THREADS", threads)
        report = run_experiment(cfg)
        json_path = tmp_path / f"t{threads}.json"
        csv_path = tmp_path / f"t{threads}.csv"
        write_json_report(report, json_path)
        write_csv_report(report, csv_path)
        return json_path.read_bytes(), csv_path.read_bytes(), report_to_dict(report)

    serial = render("1")
    serial_again = render("1")
    parallel = render("8")
    ok = serial == serial_again == parallel
    _report(10, "reports byte-identical across reruns and thread counts", ok,
            "threads 1 vs 1 vs 8")
    assert ok
