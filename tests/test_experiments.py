import dataclasses
import json
import threading
import tracemalloc

import numpy as np
import pytest

from icl_lab import classify, experiments
from icl_lab import (
    BoundParams,
    DivergenceError,
    EtaModel,
    ExperimentConfig,
    LinearModel,
    ParameterError,
    TrainConfig,
    run_experiment,
)
from icl_lab.classify import knn_select, predict_probs, train_logistic
from icl_lab.distributions import (
    dirichlet_gammas,
    l1_distance,
    normalized_rows,
    random_distribution,
    sample_counts,
)
from icl_lab.experiments import (
    KINDS,
    _median,
    max_workers,
    nested_counts,
    planted_linear_dataset,
    trial_rng,
)
from icl_lab.oracle import icl_counts_dist, mix_with_uniform
from icl_lab.reports import (
    TrialResult,
    build_report,
    fit_log_log_slope,
    report_to_dict,
    write_csv_report,
    write_json_report,
)


def textgen_config(**overrides):
    base = dict(
        kind="textgen",
        params=BoundParams(epsilon=0.2, delta=0.05, vocab_size=8, num_contexts=3),
        trials=20,
        seed=17,
        samples_override=400,
        mode="big_o",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestReports:
    def test_failure_rate_and_ci(self):
        trials = [TrialResult(i, 0.1, i < 2) for i in range(10)]
        report = build_report({}, trials, delta_target=0.3)
        assert report.failure_rate == pytest.approx(0.2)
        assert report.ci_halfwidth == pytest.approx(1.96 * np.sqrt(0.2 * 0.8 / 10))
        assert report.passed

    def test_pass_rule_boundary(self):
        trials = [TrialResult(i, 0.5, True) for i in range(8)]
        report = build_report({}, trials, delta_target=0.05)
        assert report.failure_rate == 1.0
        assert report.ci_halfwidth == 0.0
        assert not report.passed

    def test_json_and_csv_round_trip(self, tmp_path):
        trials = [TrialResult(0, 0.25, False, 10), TrialResult(1, 0.5, True, 20, "note")]
        report = build_report({"kind": "textgen"}, trials, 0.1, {"foo": 1})
        json_path = tmp_path / "r.json"
        csv_path = tmp_path / "r.csv"
        write_json_report(report, json_path)
        write_csv_report(report, csv_path)
        payload = json.loads(json_path.read_text())
        assert payload["pass"] == report.passed
        assert payload["trials"][1]["detail"] == "note"
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "trial_index,sup_error,failed"
        assert lines[1] == "0,0.25,0"
        assert lines[2] == "1,0.5,1"

    def test_report_dict_lists_every_field_once(self):
        trials = [TrialResult(0, 0.25, False, 10), TrialResult(1, 0.5, True, 20, "note")]
        report = build_report({"kind": "textgen"}, trials, 0.1, {"foo": 1})
        assert report_to_dict(report) == {
            "config": {"kind": "textgen"},
            "failure_rate": 0.5,
            "delta_target": 0.1,
            "ci_halfwidth": report.ci_halfwidth,
            "pass": True,
            "extras": {"foo": 1},
            "trials": [
                {"trial_index": 0, "sup_error": 0.25, "failed": False, "sweep_value": 10,
                 "detail": ""},
                {"trial_index": 1, "sup_error": 0.5, "failed": True, "sweep_value": 20,
                 "detail": "note"},
            ],
        }

    def test_nan_sup_error_rejected(self):
        with pytest.raises(ParameterError, match="sup_error"):
            TrialResult(0, float("nan"), False)
        assert TrialResult(0, float("inf"), True).sup_error == float("inf")

    def test_non_finite_floats_are_written_as_null(self, tmp_path):
        # A DivergenceError row carries sup_error=inf, and so can a per-size median.
        trials = [
            TrialResult(0, float("inf"), True, 25, "non-finite training loss at iteration 3"),
            TrialResult(1, 0.5, True, 25),
        ]
        extras = {"median_sup_error_by_size": {"25": float("inf")}, "slope": float("nan")}
        report = build_report({"kind": "coreset"}, trials, 0.1, extras)
        path = tmp_path / "r.json"
        write_json_report(report, path)

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        payload = json.loads(path.read_text(), parse_constant=reject)
        assert payload["trials"][0]["sup_error"] is None
        assert payload["trials"][0]["detail"] == "non-finite training loss at iteration 3"
        assert payload["trials"][1]["sup_error"] == 0.5
        assert payload["extras"] == {"median_sup_error_by_size": {"25": None}, "slope": None}

    def test_writes_byte_identical(self, tmp_path):
        report = run_experiment(textgen_config(trials=5))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_json_report(report, a)
        write_json_report(report, b)
        assert a.read_bytes() == b.read_bytes()

    def test_slope_fit(self):
        xs = [10, 100, 1000]
        ys = [1.0, 0.1, 0.01]
        assert fit_log_log_slope(xs, ys) == pytest.approx(-1.0)
        with pytest.raises(ParameterError):
            fit_log_log_slope([1], [1])


class TestMedian:
    @pytest.mark.parametrize(
        "values",
        [
            [0.3],
            [0.5, 0.1, 0.2],
            [0.4, 0.1],
            [0.1 + 0.2, 0.7, 1e-300, 0.3, 0.3, 5.0],
            [float("inf"), 0.2, 0.25, 0.1],
            [2.0, float("inf"), 0.1],
            [float("inf"), 0.3, float("inf"), 0.1],
        ],
    )
    def test_equals_numpy_median(self, values):
        assert _median(values) == np.median(values)
        assert type(_median(values)) is float

    def test_random_lists_odd_and_even(self):
        rng = np.random.default_rng(0)
        for size in range(1, 40):
            values = list(rng.standard_exponential(size) * 10.0 ** rng.uniform(-8, 8))
            assert _median(values) == np.median(values)


class TestConfig:
    def test_round_trip(self):
        cfg = textgen_config(eta=EtaModel.uniform_mix(0.1), train=TrainConfig(max_iters=50))
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(textgen_config().to_dict()))
        assert ExperimentConfig.from_json_file(path) == textgen_config()

    def test_unknown_key_rejected(self):
        payload = textgen_config().to_dict()
        payload["typo_field"] = 1
        with pytest.raises(ParameterError):
            ExperimentConfig.from_dict(payload)

    def test_missing_params_rejected(self):
        with pytest.raises(ParameterError):
            ExperimentConfig.from_dict({"kind": "textgen"})

    def test_bad_kind_rejected(self):
        with pytest.raises(ParameterError):
            textgen_config(kind="bootstrap")

    def test_zero_subset_size_rejected(self):
        with pytest.raises(ParameterError):
            textgen_config(kind="subset_penalty", subset_sizes=(0, 10))

    def test_only_subset_sizes_refuses_null(self):
        # null coreset_sizes or knn_sizes is the calculator's size; subset_penalty has none.
        for name in ("coreset_sizes", "knn_sizes"):
            assert getattr(textgen_config(**{name: None}), name) is None
        with pytest.raises(ParameterError, match="subset_sizes"):
            textgen_config(kind="subset_penalty", subset_sizes=None)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_uint64_rejected(self, seed):
        payload = textgen_config().to_dict()
        payload["seed"] = seed
        with pytest.raises(ParameterError, match="seed"):
            ExperimentConfig.from_dict(payload)


# Every scalar of the config is set, to a value a float32 or int64 holds exactly.
SCALARS_CONFIG = ExperimentConfig(
    kind="textgen",
    params=BoundParams(epsilon=0.5, delta=0.25, vocab_size=4, num_contexts=2, constant=2.0),
    trials=2,
    seed=3,
    eta=EtaModel.uniform_mix(0.125),
    eval_points=8,
    concentration=1.0,
    samples_override=30,
    dataset_size=40,
    planted_norm=2.0,
    train=TrainConfig(learning_rate=0.5, max_iters=20, grad_tolerance=2.0**-20, l2_reg=0.125),
)


def with_numpy_scalar(cfg, path: str):
    """``cfg`` rebuilt with the field at ``path`` ("seed", "params.epsilon") as a numpy scalar."""
    *section, name = path.split(".")
    owner = getattr(cfg, section[0]) if section else cfg
    value = getattr(owner, name)
    scalar = np.int64(value) if isinstance(value, int) else np.float32(value)
    assert scalar == value
    owner = dataclasses.replace(owner, **{name: scalar})
    return dataclasses.replace(cfg, **{section[0]: owner}) if section else owner


@pytest.mark.parametrize(
    "path",
    [f"params.{f.name}" for f in dataclasses.fields(BoundParams)]
    + ["trials", "seed", "eval_points", "concentration", "samples_override", "dataset_size"]
    + ["planted_norm", "eta.eta"]
    + [f"train.{f.name}" for f in dataclasses.fields(TrainConfig)],
)
def test_numpy_scalars_write_the_plain_report(tmp_path, path):
    # Each checked scalar is stored as the Python number, which JSON can write.
    def written(cfg, name):
        run_experiment(dataclasses.replace(cfg, output_path=str(tmp_path / f"{name}.json")))
        return [(tmp_path / f"{name}.{ext}").read_bytes() for ext in ("json", "csv")]

    assert written(with_numpy_scalar(SCALARS_CONFIG, path), "numpy") == written(
        SCALARS_CONFIG, "plain"
    )


class TestTrialRng:
    def test_pure_function_of_seed_and_index(self):
        a = trial_rng(123, 4).random(8)
        b = trial_rng(123, 4).random(8)
        c = trial_rng(123, 5).random(8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestTextgenExperiment:
    def test_report_is_deterministic(self):
        a = report_to_dict(run_experiment(textgen_config()))
        b = report_to_dict(run_experiment(textgen_config()))
        assert a == b

    def test_thread_count_does_not_change_results(self, monkeypatch):
        base = report_to_dict(run_experiment(textgen_config()))
        monkeypatch.setenv("ICL_LAB_THREADS", "8")
        assert max_workers() == 8
        threaded = report_to_dict(run_experiment(textgen_config()))
        assert threaded == base

    def test_bad_thread_env_rejected(self, monkeypatch):
        for raw in ("many", "0", "-3"):
            monkeypatch.setenv("ICL_LAB_THREADS", raw)
            with pytest.raises(ParameterError, match="ICL_LAB_THREADS"):
                max_workers()

    def test_undersampling_fails_hard(self):
        cfg = textgen_config(
            params=BoundParams(epsilon=0.2, delta=0.05, vocab_size=20, num_contexts=5),
            samples_override=1,
            trials=30,
        )
        report = run_experiment(cfg)
        assert report.failure_rate >= 0.9
        assert not report.passed

    def test_large_sample_small_error(self):
        cfg = textgen_config(
            params=BoundParams(epsilon=0.1, delta=0.05, vocab_size=2, num_contexts=1),
            samples_override=1_000_000,
            trials=5,
        )
        report = run_experiment(cfg)
        assert all(t.sup_error < 0.01 for t in report.trials)

    def test_paper_scale_worked_example(self):
        # Criterion 1's worked example run empirically: n_i is about 4.6e7
        # draws for each of 100 contexts over V = 50,000.
        cfg = ExperimentConfig(
            kind="textgen",
            params=BoundParams(epsilon=0.1, delta=0.01, vocab_size=50_000, num_contexts=100),
            trials=3,
            seed=2025,
            mode="big_o",
        )
        report = run_experiment(cfg)
        assert report.extras["samples_per_context"] == 46_051_702
        assert report.passed
        assert all(t.sup_error <= 0.1 for t in report.trials)

    def test_trial_memory_does_not_grow_with_contexts(self):
        # Contexts stream through a trial one at a time, so its peak memory is
        # O(V), not O(m V): ten times the contexts stay within twice the peak.
        def peak(contexts):
            params = BoundParams(
                epsilon=0.2, delta=0.05, vocab_size=20_000, num_contexts=contexts
            )
            cfg = textgen_config(params=params, samples_override=5_000, trials=1)
            tracemalloc.start()
            try:
                run_experiment(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(4)  # warm-up, so one-off first-call allocations are not counted
        assert peak(40) <= 2 * peak(4)

    def test_writes_reports(self, tmp_path):
        out = tmp_path / "run.json"
        cfg = textgen_config(trials=4, output_path=str(out))
        run_experiment(cfg)
        assert out.exists()
        assert (tmp_path / "run.csv").exists()

    def test_eta_widens_threshold(self):
        cfg = textgen_config(eta=EtaModel.uniform_mix(0.25))
        report = run_experiment(cfg)
        assert report.extras["failure_threshold"] == pytest.approx(0.2 + 0.5)


def per_context_reference(cfg, support, contexts, sizes, rng, block):
    """The worst error per size, context by context through the public primitives:
    each block of ``block`` contexts draws its truths, then each size's counts."""
    worst = [0.0] * len(sizes)
    for start in range(0, contexts, block):
        truths = [random_distribution(support, cfg.concentration, rng) for _ in range(block)]
        counts, drawn = [0] * block, 0
        for j, n in enumerate(sizes):
            for r, truth in enumerate(truths):
                counts[r] = counts[r] + sample_counts(truth, n - drawn, rng)
                error = l1_distance(icl_counts_dist(counts[r], cfg.eta), truth)
                worst[j] = max(worst[j], error)
            drawn = n
    return worst


class TestCountsBlocks:
    def measure(self, cfg, support, contexts, sizes, seed):
        rng = trial_rng(seed, 0)
        errors = [e for e, _ in experiments._counts_measure(cfg, support, contexts, sizes)(rng)]
        return errors, rng

    @pytest.mark.parametrize("eta", [EtaModel.none(), EtaModel.uniform_mix(0.1)])
    def test_one_context_blocks_match_the_per_context_path(self, eta):
        # Above 16,384 outcomes a block is one context: the stream of one context at a time.
        cfg = textgen_config(eta=eta, concentration=0.5)
        sizes = (300, 20_000, 60_000)  # CDF, then multinomial draws
        errors, rng = self.measure(cfg, 40_000, 3, sizes, seed=4)
        reference_rng = trial_rng(4, 0)
        assert errors == per_context_reference(cfg, 40_000, 3, sizes, reference_rng, block=1)
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    @pytest.mark.parametrize("sizes", [(44_936,), (5, 50)])
    def test_multi_row_block_draws_truths_then_counts(self, sizes):
        cfg = textgen_config(eta=EtaModel.uniform_mix(0.2))
        errors, _ = self.measure(cfg, 20, 10, sizes, seed=3)
        assert errors == per_context_reference(cfg, 20, 10, sizes, trial_rng(3, 0), block=10)

    def test_eta_run_scores_the_responder_once_per_block_and_size(self, monkeypatch):
        # At V = 2,000 a block holds 16 contexts: 40 contexts are blocks of 16, 16 and 8.
        params = BoundParams(epsilon=0.2, delta=0.05, vocab_size=2_000, num_contexts=40)
        cfg = textgen_config(params=params, eta=EtaModel.uniform_mix(0.1), trials=2)
        plain = report_to_dict(run_experiment(cfg))
        calls = []
        real_rows = experiments.icl_counts_rows

        def recording(counts, eta):
            calls.append((counts.shape, set(counts.sum(axis=1).tolist()), eta))
            return real_rows(counts, eta)

        monkeypatch.setattr(experiments, "icl_counts_rows", recording)
        assert report_to_dict(run_experiment(cfg)) == plain
        shapes = [(16, 2_000), (16, 2_000), (8, 2_000)] * cfg.trials
        assert calls == [(shape, {cfg.samples_override}, cfg.eta) for shape in shapes]

    @pytest.mark.parametrize("concentration", [1e-300, 1e308])
    def test_degenerate_gamma_blocks_give_valid_rows(self, concentration):
        # Every Gamma draw underflows at 1e-300; every row sum overflows at 1e308.
        out = []
        rng = trial_rng(1, 0)
        worker = threading.Thread(
            target=lambda: out.append(dirichlet_gammas(10, 20, concentration, rng)), daemon=True
        )
        worker.start()
        worker.join(timeout=1.0)
        assert not worker.is_alive() and len(out) == 1
        truths = normalized_rows(out[0] / out[0].sum(axis=1, keepdims=True))
        if concentration < 1:
            assert np.all(np.count_nonzero(truths, axis=1) == 1) and np.all(truths.max(1) == 1)
        else:
            assert np.allclose(truths, 1 / 20, rtol=1e-12)
        cfg = textgen_config(concentration=concentration, trials=2)
        for error, _ in experiments._counts_measure(cfg, 20, 10, (200,))(trial_rng(1, 0)):
            assert 0.0 <= error <= 2.0

    def test_block_memory_does_not_grow_with_contexts(self):
        # At V = 2,000 a block holds 16 contexts; 200 contexts run as 13 blocks
        # and stay within the memory of one.
        def peak(contexts):
            params = BoundParams(epsilon=0.2, delta=0.05, vocab_size=2_000, num_contexts=contexts)
            cfg = textgen_config(params=params, samples_override=5_000, trials=1)
            tracemalloc.start()
            try:
                run_experiment(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(16)  # warm-up, so one-off first-call allocations are not counted
        assert peak(200) <= 1.5 * peak(16)


class TestBoundedTextgenExperiment:
    def test_length_one_matches_textgen_on_shared_seed(self):
        params = BoundParams(epsilon=0.2, delta=0.05, vocab_size=7, num_contexts=3)
        tg = run_experiment(
            textgen_config(params=params, trials=15, seed=99, samples_override=300)
        )
        bt = run_experiment(
            ExperimentConfig(
                kind="bounded_textgen",
                params=dataclasses.replace(params, output_len=1),
                trials=15,
                seed=99,
                samples_override=300,
            )
        )
        assert [t.sup_error for t in tg.trials] == [t.sup_error for t in bt.trials]

    def test_single_sample_fails(self):
        cfg = ExperimentConfig(
            kind="bounded_textgen",
            params=BoundParams(epsilon=0.2, delta=0.05, vocab_size=5, output_len=2),
            trials=20,
            seed=1,
            samples_override=1,
        )
        assert run_experiment(cfg).failure_rate >= 0.95

    def test_sequence_space_limit(self, monkeypatch):
        # V^l = 1001^2 = 1,002,001 is just past the fixed 10^6 cap; no trial runs.
        cfg = ExperimentConfig(
            kind="bounded_textgen",
            params=BoundParams(epsilon=0.2, delta=0.05, vocab_size=1001, output_len=2),
            trials=2,
        )
        monkeypatch.setattr(experiments, "trial_rng", pytest.fail)
        with pytest.raises(ParameterError, match=r"1001\^2 exceeds the limit 1000000"):
            run_experiment(cfg)


class TestClassificationExperiments:
    def test_coreset_full_size_is_exact(self):
        cfg = ExperimentConfig(
            kind="coreset",
            params=BoundParams(epsilon=0.25, delta=0.05, input_dim=3),
            trials=3,
            seed=5,
            dataset_size=200,
            coreset_sizes=(200,),
            eval_points=500,
            train=TrainConfig(max_iters=200, l2_reg=1e-3),
        )
        report = run_experiment(cfg)
        assert all(t.sup_error < 1e-6 for t in report.trials)

    def test_coreset_draws_the_planted_task(self, monkeypatch):
        # The coreset task is knn's: one planted logistic dataset per trial.
        calls = []

        def drawing(n, dim, weight_norm, rng):
            calls.append((n, dim, weight_norm))
            return planted_linear_dataset(n, dim, weight_norm, rng)

        monkeypatch.setattr(experiments, "planted_linear_dataset", drawing)
        cfg = ExperimentConfig(
            kind="coreset",
            params=BoundParams(epsilon=0.25, delta=0.05, input_dim=3),
            trials=3,
            seed=5,
            dataset_size=120,
            planted_norm=3.5,
            coreset_sizes=(30, 120),
            eval_points=50,
            train=TrainConfig(max_iters=200, l2_reg=1e-3),
        )
        run_experiment(cfg)
        assert calls == [(120, 3, 3.5)] * 3

    def test_coreset_full_size_reuses_the_full_fit(self, monkeypatch):
        full_fits, stacked_rows = [], []
        real_fit = experiments.fit_logistic_stack

        def counting(data, cfg):
            full_fits.append(data.num_points)
            return train_logistic(data, cfg)

        def stacking(features, labels, train):
            stacked_rows.extend(len(x) for x in features)
            return real_fit(features, labels, train)

        monkeypatch.setattr(experiments, "train_logistic", counting)
        monkeypatch.setattr(experiments, "fit_logistic_stack", stacking)
        cfg = ExperimentConfig(
            kind="coreset",
            params=BoundParams(epsilon=0.25, delta=0.05, input_dim=3),
            trials=3,
            seed=5,
            dataset_size=200,
            coreset_sizes=(25, 100, 200),
            coreset_strategy="sensitivity",
            eval_points=500,
            train=TrainConfig(max_iters=200, l2_reg=1e-3),
        )
        report = run_experiment(cfg)
        # One lone full fit per trial, one stacked row per trial and smaller coreset,
        # and no fit of the whole dataset as a coreset.
        assert full_fits == [200] * 3
        assert sorted(stacked_rows) == [25] * 3 + [100] * 3
        assert [t.sup_error for t in report.trials if t.sweep_value == 200] == [0.0] * 3

    CORESET = ExperimentConfig(
        kind="coreset",
        params=BoundParams(epsilon=0.25, delta=0.05, input_dim=3),
        trials=7,
        seed=9,
        dataset_size=120,
        coreset_sizes=(60, 15, 120),
        coreset_strategy="sensitivity",
        eval_points=200,
        train=TrainConfig(max_iters=200, l2_reg=1e-3),
    )

    def test_coreset_reports_do_not_depend_on_batches_or_threads(self, tmp_path, monkeypatch):
        # Criterion 10's check for coreset. A batch holds STACK_BYTES // (8 * 4 * 60)
        # trials: all 7 by default, one at 1 byte, three (3 + 3 + 1) at 5,760 bytes.
        stacks = []
        real_fit = experiments.fit_logistic_stack

        def recording(features, labels, train):
            stacks.append(len(features))
            return real_fit(features, labels, train)

        monkeypatch.setattr(experiments, "fit_logistic_stack", recording)

        def render(threads: str, stack_bytes: int):
            monkeypatch.setenv("ICL_LAB_THREADS", threads)
            monkeypatch.setattr(experiments, "STACK_BYTES", stack_bytes)
            stacks.clear()
            report = run_experiment(self.CORESET)
            json_path, csv_path = tmp_path / "r.json", tmp_path / "r.csv"
            write_json_report(report, json_path)
            write_csv_report(report, csv_path)
            return (json_path.read_bytes(), csv_path.read_bytes()), sorted(stacks)

        default = experiments.STACK_BYTES
        whole, whole_stacks = render("1", default)
        assert whole_stacks == [7, 7]  # one stack per size below 120
        for threads, stack_bytes, expected in [
            ("3", default, [7, 7]),
            ("1", 1, [1] * 14),
            ("3", 1, [1] * 14),
            ("3", 5760, [1, 1, 3, 3, 3, 3]),
        ]:
            assert render(threads, stack_bytes) == (whole, expected)

    def test_sensitivity_weights_come_from_the_full_fit(self, monkeypatch):
        # The trial's full-data model is the sensitivity pilot: each dataset is fitted once.
        lone, full, pilots = [], [], []
        real_lone, real_scores = classify.train_logistic, experiments.sensitivity_scores

        def lone_fit(data, cfg):
            lone.append(data.num_points)
            return real_lone(data, cfg)

        def full_fit(data, cfg):
            full.append(real_lone(data, cfg))
            return full[-1]

        def scores(data, pilot):
            pilots.append(pilot)
            return real_scores(data, pilot)

        monkeypatch.setattr(classify, "train_logistic", lone_fit)
        monkeypatch.setattr(experiments, "train_logistic", full_fit)
        monkeypatch.setattr(experiments, "sensitivity_scores", scores)
        run_experiment(self.CORESET)
        assert lone == []
        assert len(full) == len(pilots) == self.CORESET.trials
        assert all(pilot is model for pilot, model in zip(pilots, full))

    def test_coreset_divergent_stack_refits_its_rows_alone(self, monkeypatch):
        real_fit = experiments.fit_logistic_stack
        monkeypatch.setattr(experiments, "STACK_BYTES", 1)
        lone = run_experiment(self.CORESET).trials
        monkeypatch.undo()

        stacks = []

        def recording(features, labels, train):
            stacks.append(features)
            return real_fit(features, labels, train)

        monkeypatch.setattr(experiments, "fit_logistic_stack", recording)
        run_experiment(self.CORESET)
        marked = next(x for x in stacks if x.shape[1] == 15)[2]  # trial 2's 15-point coreset

        def diverging(features, labels, train):
            if any(np.array_equal(x, marked) for x in features):
                raise DivergenceError(7)
            return real_fit(features, labels, train)

        monkeypatch.setattr(experiments, "fit_logistic_stack", diverging)
        rows = run_experiment(self.CORESET).trials
        marked_row = rows[2 * 3 + 1]
        assert marked_row.sup_error == float("inf") and marked_row.failed
        assert marked_row.detail == "non-finite training loss at iteration 7"
        assert rows[: 2 * 3 + 1] + rows[2 * 3 + 2 :] == lone[: 2 * 3 + 1] + lone[2 * 3 + 2 :]

    def test_coreset_medians_shrink_with_size(self):
        cfg = ExperimentConfig(
            kind="coreset",
            params=BoundParams(epsilon=0.25, delta=0.05, input_dim=3),
            trials=10,
            seed=6,
            dataset_size=600,
            coreset_sizes=(15, 60, 240),
            eval_points=1000,
            train=TrainConfig(max_iters=250, l2_reg=1e-2),
        )
        medians = run_experiment(cfg).extras["median_sup_error_by_size"]
        assert medians["15"] > medians["60"] > medians["240"]

    def test_coreset_tuned_constant_meets_tolerance(self):
        # At constant 40 the calculator gives size 800 for d=5, eps=0.25;
        # the median sup error sits well inside the tolerance.
        cfg = ExperimentConfig(
            kind="coreset",
            params=BoundParams(epsilon=0.25, delta=0.05, input_dim=5, constant=40.0),
            trials=100,
            seed=23,
            dataset_size=2000,
            train=TrainConfig(max_iters=300, l2_reg=1e-2),
        )
        report = run_experiment(cfg)
        assert report.extras["sizes"] == [800]
        assert report.extras["median_sup_error_by_size"]["800"] <= 0.25

    def test_knn_full_dataset_matches_manual_baseline(self):
        cfg = ExperimentConfig(
            kind="knn",
            params=BoundParams(epsilon=0.5, delta=0.05, input_dim=3),
            trials=3,
            seed=8,
            knn_sizes=(256,),
            dataset_size=256,
            eval_points=6,
            train=TrainConfig(max_iters=200, l2_reg=1e-3),
        )
        report = run_experiment(cfg)
        for i in range(3):
            rng = trial_rng(8, i)
            data, planted = planted_linear_dataset(256, 3, 2.0, rng)
            queries = rng.standard_normal((6, 3))
            model = train_logistic(data, cfg.train)
            manual = max(
                abs(predict_probs(model, q[None])[0] - predict_probs(planted, q[None])[0])
                for q in queries
            )
            assert report.trials[i].sup_error == pytest.approx(manual, abs=1e-12)

    def test_knn_rows_match_one_selection_per_k(self):
        # Reference loop: a separate nearest-neighbour selection per (query, k).
        cfg = ExperimentConfig(
            kind="knn",
            params=BoundParams(epsilon=0.5, delta=0.05, input_dim=3),
            trials=2,
            seed=8,
            knn_sizes=(64, 4, 16),
            dataset_size=256,
            eval_points=5,
            eta=EtaModel.uniform_mix(0.2),
            train=TrainConfig(max_iters=200, l2_reg=1e-3),
        )
        report = run_experiment(cfg)
        for i in range(2):
            rng = trial_rng(8, i)
            data, planted = planted_linear_dataset(256, 3, 2.0, rng)
            queries = rng.standard_normal((5, 3))
            truth = predict_probs(planted, queries)
            for j, k in enumerate(cfg.knn_sizes):
                errors = []
                for q, t in zip(queries, truth):
                    model = train_logistic(knn_select(data, q, k), cfg.train)
                    prob = predict_probs(model, q[None])[0]
                    errors.append(abs(mix_with_uniform(prob, cfg.eta, 2) - t))
                assert report.trials[i * 3 + j].sup_error == max(errors)

    def test_knn_scores_each_query_as_predict_prob(self, monkeypatch):
        # The runner scores all queries as arrays; each probability must equal the
        # one-row predict_probs of that query's own fitted model, bit for bit.
        fitted, scored = [], []
        real_fit, real_sigmoid = experiments.fit_logistic_stack, experiments.sigmoid

        def fit(features, labels, train):
            fitted.append(real_fit(features, labels, train))
            return fitted[-1]

        def score(logits):
            scored.append(real_sigmoid(logits))
            return scored[-1]

        monkeypatch.setattr(experiments, "fit_logistic_stack", fit)
        monkeypatch.setattr(experiments, "sigmoid", score)
        cfg = ExperimentConfig(
            kind="knn",
            params=BoundParams(epsilon=0.5, delta=0.05, input_dim=5),
            trials=1,
            seed=6,
            knn_sizes=(8, 32),
            dataset_size=256,
            eval_points=40,
            train=TrainConfig(max_iters=200, l2_reg=1e-3),
        )
        run_experiment(cfg)
        rng = trial_rng(6, 0)
        planted_linear_dataset(256, 5, 2.0, rng)
        queries = rng.standard_normal((40, 5))
        assert len(fitted) == len(scored) == 2  # one stack per k at this size
        for thetas, probs in zip(fitted, scored):
            models = [LinearModel(t[:-1], t[-1]) for t in thetas]
            one_row = [predict_probs(m, q[None])[0] for m, q in zip(models, queries)]
            assert probs.tolist() == one_row

    def test_knn_eta_shifts_errors_by_at_most_half_eta(self):
        base = ExperimentConfig(
            kind="knn",
            params=BoundParams(epsilon=0.5, delta=0.05, input_dim=3),
            trials=5,
            seed=4,
            knn_sizes=(16, 64),
            dataset_size=512,
            eval_points=8,
            train=TrainConfig(max_iters=200, l2_reg=1e-3),
        )
        plain = run_experiment(base)
        mixed = run_experiment(dataclasses.replace(base, eta=EtaModel.uniform_mix(0.3)))
        for t0, t1 in zip(plain.trials, mixed.trials):
            assert t1.sup_error <= t0.sup_error + 0.15 + 1e-9

    def test_knn_oversized_k_rejected(self):
        cfg = ExperimentConfig(
            kind="knn",
            params=BoundParams(epsilon=0.5, delta=0.05),
            knn_sizes=(64,),
            dataset_size=32,
        )
        with pytest.raises(ParameterError):
            run_experiment(cfg)


class TestSubsetPenaltyExperiment:
    def test_slope_near_minus_half(self):
        cfg = ExperimentConfig(
            kind="subset_penalty",
            params=BoundParams(epsilon=1.0, delta=0.05, vocab_size=10, constant=4.0),
            trials=30,
            seed=3,
            subset_sizes=(100, 1000, 10_000),
        )
        report = run_experiment(cfg)
        assert -0.8 <= report.extras["log_log_slope"] <= -0.2

    def test_rows_come_from_nested_counts(self):
        cfg = ExperimentConfig(
            kind="subset_penalty",
            params=BoundParams(epsilon=1.0, delta=0.05, vocab_size=6, constant=2.0),
            trials=1,
            seed=9,
            subset_sizes=(50, 7, 400),
        )
        sizes = (7, 50, 50, 400)  # a repeated size draws nothing more
        rng = trial_rng(9, 0)
        truth = random_distribution(6, 1.0, rng)
        vectors = [v[0] for v in nested_counts(truth.probs[None], sizes, rng)]
        assert [int(v.sum()) for v in vectors] == list(sizes)
        for smaller, larger in zip(vectors, vectors[1:]):
            assert np.all(smaller <= larger)
        errors = [l1_distance(icl_counts_dist(v), truth) for v in vectors]
        report = run_experiment(cfg)
        assert [t.sup_error for t in report.trials] == errors[:2] + errors[3:]
        # One size: the counts are sample_counts' own draw from the same state.
        state = rng.bit_generator.state
        ((single,),) = nested_counts(truth.probs[None], (50,), rng)
        rng.bit_generator.state = state
        drawn = sample_counts(truth, 50, rng)
        assert single.dtype == drawn.dtype == np.int64
        assert np.array_equal(single, drawn)

    def test_is_textgen_with_one_context(self):
        params = BoundParams(epsilon=0.2, delta=0.05, vocab_size=7, num_contexts=1, constant=2.0)
        common = dict(params=params, trials=6, seed=21, concentration=0.5)
        textgen = run_experiment(
            ExperimentConfig(kind="textgen", samples_override=300, **common)
        )
        subset = run_experiment(
            ExperimentConfig(kind="subset_penalty", subset_sizes=(300,), **common)
        )
        assert [t.sup_error for t in textgen.trials] == [t.sup_error for t in subset.trials]

    def test_stability_across_seed_sets(self):
        def slope(seed):
            cfg = ExperimentConfig(
                kind="subset_penalty",
                params=BoundParams(epsilon=1.0, delta=0.05, vocab_size=10, constant=4.0),
                trials=30,
                seed=seed,
                subset_sizes=(100, 1000, 10_000),
            )
            return run_experiment(cfg).extras["log_log_slope"]

        assert abs(slope(3) - slope(1003)) < 0.15


def test_run_experiment_dispatches():
    report = run_experiment(textgen_config(trials=3))
    assert report.config["kind"] == "textgen"


@pytest.mark.parametrize("kind", KINDS)
def test_reports_do_not_depend_on_threads(tiny_config, tmp_path, monkeypatch, kind):
    # Criterion 10's check for every kind, through the written JSON and CSV.
    def render(threads: str):
        monkeypatch.setenv("ICL_LAB_THREADS", threads)
        out = tmp_path / f"t{threads}.json"
        run_experiment(tiny_config(kind, output_path=str(out)))
        return out.read_bytes(), out.with_suffix(".csv").read_bytes()

    assert render("1") == render("3")


@pytest.mark.parametrize("kind", KINDS)
def test_sweep_rows_follow_the_skeleton(tiny_config, kind):
    cfg = tiny_config(kind)
    sweep = {
        "coreset": cfg.coreset_sizes,
        "knn": cfg.knn_sizes,
        "subset_penalty": tuple(sorted(cfg.subset_sizes)),
    }.get(kind, (None,))
    report = run_experiment(cfg)
    assert len(report.trials) == cfg.trials * len(sweep)
    for n, row in enumerate(report.trials):
        i, j = divmod(n, len(sweep))
        assert row.trial_index == i * len(sweep) + j
        assert row.sweep_value == sweep[j]
        if kind == "subset_penalty":
            allowed = cfg.params.constant / np.sqrt(row.sweep_value) + 2.0 * cfg.eta.eta
        else:
            allowed = report.extras["failure_threshold"]
        assert row.failed == (row.sup_error > allowed)
