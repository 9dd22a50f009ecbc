import dataclasses
import math

import numpy as np
import pytest

from icl_lab import classify, experiments
from icl_lab import (
    BoundParams,
    DivergenceError,
    ExperimentConfig,
    LabeledDataset,
    LinearModel,
    ParameterError,
    TrainConfig,
    logistic_gradient,
    logistic_loss,
    run_experiment,
)
from icl_lab.classify import (
    fit_logistic_stack,
    knn_order,
    knn_select,
    predict_probs,
    select_coreset,
    sensitivity_scores,
    sigmoid,
    train_logistic,
)


def make_dataset(features, labels):
    return LabeledDataset(np.array(features, dtype=float), np.array(labels))


class TestSigmoidAndPredict:
    def test_zero_model(self):
        model = LinearModel(np.zeros(3), 0.0)
        assert predict_probs(model, np.zeros((1, 3))).tolist() == [0.5]

    def test_log_three(self):
        model = LinearModel(np.array([1.0]), 0.0)
        assert predict_probs(model, [[math.log(3)]]) == pytest.approx([0.75])

    def test_saturation_no_overflow(self):
        model = LinearModel(np.array([1.0]), 0.0)
        with np.errstate(over="raise"):
            assert predict_probs(model, [[1000.0], [-1000.0]]) == pytest.approx([1.0, 0.0])

    def test_dimension_mismatch(self):
        model = LinearModel(np.zeros(3), 0.0)
        with pytest.raises(ParameterError):
            predict_probs(model, np.zeros((1, 2)))
        with pytest.raises(ParameterError):
            predict_probs(model, np.zeros(3))  # one point is a one-row array


class TestTrainLogistic:
    def test_separable_points_classified(self):
        data = make_dataset([[-1.0], [1.0]], [0, 1])
        model = train_logistic(data, TrainConfig(max_iters=500, l2_reg=1e-4))
        low, high = predict_probs(model, [[-1.0], [1.0]])
        assert low < 0.5 < high

    def test_label_symmetry_gives_zero_bias(self):
        # Dataset invariant under (x, y) -> (-x, 1-y): the bias gradient
        # cancels at every iterate, so the trained bias stays at zero.
        rng = np.random.default_rng(0)
        x = rng.standard_normal((50, 3))
        features = np.vstack([x, -x])
        labels = np.concatenate([np.ones(50, dtype=int), np.zeros(50, dtype=int)])
        model = train_logistic(LabeledDataset(features, labels), TrainConfig(max_iters=400))
        assert abs(model.bias) < 1e-6

    def test_zero_iterations_returns_init(self):
        data = make_dataset([[1.0, 2.0]], [1])
        model = train_logistic(data, TrainConfig(max_iters=0))
        assert np.array_equal(model.weights, np.zeros(2))
        assert model.bias == 0.0

    def test_loss_non_increasing_iteration_by_iteration(self):
        # Heavy-tailed (Cauchy) features make the full Newton step overshoot
        # at iteration 8, so the halving path runs; prefixes of the same run
        # expose the per-iteration loss sequence.
        rng = np.random.default_rng(29)
        features = rng.standard_t(1, (40, 2))
        labels = (features[:, 0] + 0.3 * rng.standard_normal(40) > 0).astype(int)
        data = LabeledDataset(features, labels)
        losses = [
            logistic_loss(train_logistic(data, TrainConfig(max_iters=k)), data) for k in range(16)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_knn_sweep_fits_reach_the_gradient_tolerance(self, monkeypatch):
        # One trial of the criterion-6 config, every local fit of every stack recorded.
        fits = []

        def recording(features, labels, cfg):
            thetas = fit_logistic_stack(features, labels, cfg)
            for x, y, theta in zip(features, labels, thetas):
                fits.append((LabeledDataset(x, y), cfg, LinearModel(theta[:-1], theta[-1])))
            return thetas

        monkeypatch.setattr(experiments, "fit_logistic_stack", recording)
        run_experiment(
            ExperimentConfig(
                kind="knn",
                params=BoundParams(epsilon=0.2, delta=0.05, input_dim=5),
                trials=1,
                seed=5,
                knn_sizes=(16, 64, 256, 1024),
                dataset_size=4096,
                train=TrainConfig(max_iters=300, grad_tolerance=1e-8, l2_reg=1e-3),
            )
        )
        assert len(fits) == 64
        for data, cfg, model in fits:
            grad_w, grad_b = logistic_gradient(model, data, cfg.l2_reg)
            assert math.hypot(*grad_w, grad_b) < cfg.grad_tolerance

    @pytest.mark.parametrize("label", [0, 1])
    def test_single_class_with_ridge_predicts_its_class(self, label):
        # No finite minimizer exists (the bias is not penalized); the fit
        # stops at the gradient tolerance with a finite, confident model.
        rng = np.random.default_rng(4)
        data = LabeledDataset(rng.standard_normal((12, 3)), np.full(12, label))
        model = train_logistic(data, TrainConfig(l2_reg=1e-3))
        assert np.all(np.isfinite(model.weights)) and np.isfinite(model.bias)
        assert np.all(np.abs(predict_probs(model, data.features) - label) < 1e-6)

    def test_single_class_is_confident_inside_the_hull(self):
        rng = np.random.default_rng(1)
        features = rng.standard_normal((12, 2)) + 1.0
        model = train_logistic(LabeledDataset(features, np.ones(12)), TrainConfig(max_iters=300))
        hull = rng.dirichlet(np.ones(12), size=10) @ features
        assert np.all(predict_probs(model, np.vstack([features, hull])) > 0.5)

    @pytest.mark.parametrize("l2_reg", [0.0, 1e-300])
    def test_singular_hessian_takes_the_minimum_norm_direction(self, l2_reg):
        # One point in two dimensions: the Hessian has rank 1 (a 1e-300 ridge
        # leaves it singular in floating point), and the fit stays on the
        # point's direction (w, b) ~ (x, 1).
        data = make_dataset([[1.0, 2.0]], [1])
        model = train_logistic(data, TrainConfig(l2_reg=l2_reg))
        assert model.weights == pytest.approx(model.bias * np.array([1.0, 2.0]))
        assert predict_probs(model, [[1.0, 2.0]])[0] > 1 - 1e-6

    def test_divergence_error_names_iteration(self):
        data = make_dataset([[1e12], [1e307]], [1, 0])
        with pytest.raises(DivergenceError) as excinfo:
            train_logistic(data, TrainConfig(learning_rate=0.5, max_iters=10))
        assert excinfo.value.iteration == 1

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n, d = rng.integers(3, 20), rng.integers(1, 5)
            data = LabeledDataset(
                rng.standard_normal((n, d)), rng.integers(0, 2, n).astype(np.int64)
            )
            model = LinearModel(rng.standard_normal(d), float(rng.standard_normal()))
            l2 = float(rng.uniform(0, 0.1))
            grad_w, grad_b = logistic_gradient(model, data, l2)
            h = 1e-6
            for j in range(d):
                delta = np.zeros(d)
                delta[j] = h
                plus = logistic_loss(LinearModel(model.weights + delta, model.bias), data, l2)
                minus = logistic_loss(LinearModel(model.weights - delta, model.bias), data, l2)
                numeric = (plus - minus) / (2 * h)
                assert numeric == pytest.approx(grad_w[j], rel=1e-5, abs=1e-8)
            plus = logistic_loss(LinearModel(model.weights, model.bias + h), data, l2)
            minus = logistic_loss(LinearModel(model.weights, model.bias - h), data, l2)
            assert (plus - minus) / (2 * h) == pytest.approx(grad_b, rel=1e-5, abs=1e-8)


class TestFitLogisticStack:
    # Four fits of three points on a line: labels that no threshold separates,
    # a single class, a separable pair of classes and heavy-tailed features.
    FEATURES = np.array(
        [
            [[-1.0], [0.0], [1.0]],
            [[-0.9], [-2.6], [0.5]],
            [[-2.0], [-1.0], [2.0]],
            [[-30.0], [0.1], [50.0]],
        ]
    )
    LABELS = np.array([[1, 0, 1], [0, 0, 0], [0, 0, 1], [0, 1, 1]])

    @staticmethod
    def stop_iteration(features, labels, cfg):
        """The number of iterations after which the lone fit's iterate no longer changes."""
        final = fit_logistic_stack(features[None], labels[None], cfg)[0]
        return next(
            k
            for k in range(cfg.max_iters + 1)
            if np.array_equal(
                fit_logistic_stack(
                    features[None], labels[None], dataclasses.replace(cfg, max_iters=k)
                )[0],
                final,
            )
        )

    @pytest.mark.parametrize(
        "cfg",
        [
            # Every fit reaches the tolerance, after 3, 18, 18 and 22 iterations.
            TrainConfig(max_iters=300, l2_reg=0.0),
            # In iterations 4 and 43 to 61 some fits halve their step while
            # others take step 1, and at iteration 61 no step passes the
            # single-class fit's Armijo test: it stalls and leaves the stack.
            TrainConfig(max_iters=300, grad_tolerance=1e-300, l2_reg=1e-3),
            TrainConfig(max_iters=0),
        ],
        ids=["tolerance", "stall", "no-iterations"],
    )
    def test_each_row_is_its_lone_fit(self, cfg):
        thetas = fit_logistic_stack(self.FEATURES, self.LABELS, cfg)
        assert thetas.shape == (4, 2)
        for features, labels, theta in zip(self.FEATURES, self.LABELS, thetas):
            assert np.array_equal(theta, fit_logistic_stack(features[None], labels[None], cfg)[0])
            model = train_logistic(LabeledDataset(features, labels), cfg)
            assert np.array_equal(theta, np.append(model.weights, model.bias))
        if cfg.max_iters == 0:
            assert np.array_equal(thetas, np.zeros((4, 2)))

    def test_members_leave_at_different_iterations(self):
        cfg = TrainConfig(max_iters=300, l2_reg=0.0)
        stops = [self.stop_iteration(x, y, cfg) for x, y in zip(self.FEATURES, self.LABELS)]
        assert stops[0] <= 5 and len(set(stops)) == 3

    def test_stalled_fit_stops_above_the_tolerance(self):
        cfg = TrainConfig(max_iters=300, grad_tolerance=1e-300, l2_reg=1e-3)
        features, labels = self.FEATURES[1], self.LABELS[1]
        assert self.stop_iteration(features, labels, cfg) < cfg.max_iters
        model = train_logistic(LabeledDataset(features, labels), cfg)
        grad_w, grad_b = logistic_gradient(model, LabeledDataset(features, labels), cfg.l2_reg)
        assert math.hypot(*grad_w, grad_b) >= cfg.grad_tolerance

    def test_gradient_below_the_square_underflow_still_counts(self):
        # Separable with no ridge: the gradient shrinks like exp(-w) and passes
        # 1.5e-154, below which its square underflows to 0, near iteration 373.
        data = LabeledDataset([[-1.0], [1.0]], [0, 1])
        cfg = TrainConfig(max_iters=373, grad_tolerance=1e-300, l2_reg=0.0)
        early = train_logistic(data, cfg)
        later = train_logistic(data, dataclasses.replace(cfg, max_iters=500))
        assert later.weights[0] > early.weights[0] + 100
        final = train_logistic(data, dataclasses.replace(cfg, max_iters=2000))
        assert np.array_equal(
            final.weights, train_logistic(data, dataclasses.replace(cfg, max_iters=3000)).weights
        )
        grad_w, _ = logistic_gradient(final, data)
        assert 0 < abs(grad_w[0]) < cfg.grad_tolerance

    def test_divergent_member_raises_its_own_iteration(self):
        features = np.array([[[-1.0], [1.0]], [[1e12], [1e307]], [[0.5], [2.0]]])
        labels = np.array([[0, 1], [1, 0], [1, 0]])
        cfg = TrainConfig(max_iters=10)
        with pytest.raises(DivergenceError) as lone:
            fit_logistic_stack(features[1:2], labels[1:2], cfg)
        with pytest.raises(DivergenceError) as stacked:
            fit_logistic_stack(features, labels, cfg)
        assert stacked.value.iteration == lone.value.iteration == 1
        fit_logistic_stack(features[::2], labels[::2], cfg)  # the others fit

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ParameterError):
            fit_logistic_stack(np.zeros((2, 3, 1)), np.zeros((2, 4)))
        with pytest.raises(ParameterError):
            fit_logistic_stack(np.zeros((3, 1)), np.zeros(3))


class TestSelectCoreset:
    def setup_method(self):
        rng = np.random.default_rng(3)
        self.data = LabeledDataset(
            rng.standard_normal((30, 2)), rng.integers(0, 2, 30).astype(np.int64)
        )

    def test_full_size_returns_dataset(self):
        for weights in (None, sensitivity_scores(self.data, train_logistic(self.data))):
            out = select_coreset(self.data, 30, weights, np.random.default_rng(0))
            assert np.array_equal(out.features, self.data.features)
            assert np.array_equal(out.labels, self.data.labels)

    def test_singleton_reproducible(self):
        a = select_coreset(self.data, 1, None, np.random.default_rng(9))
        b = select_coreset(self.data, 1, None, np.random.default_rng(9))
        assert np.array_equal(a.features, b.features)

    def test_sensitivity_deterministic_given_seed(self):
        weights = sensitivity_scores(self.data, train_logistic(self.data))
        a = select_coreset(self.data, 10, weights, np.random.default_rng(4))
        b = select_coreset(self.data, 10, weights, np.random.default_rng(4))
        assert np.array_equal(a.features, b.features)

    def test_oversized_rejected(self):
        with pytest.raises(ParameterError):
            select_coreset(self.data, 31, None, np.random.default_rng(0))

    def test_sensitivity_scores_follow_the_formula(self, monkeypatch):
        # 1 + ||x|| * (1 - 2 |p - 1/2|) under the given model, which is not refitted.
        monkeypatch.setattr(classify, "fit_logistic_stack", pytest.fail)
        norms = np.linalg.norm(self.data.features, axis=1)
        zeros = LinearModel(np.zeros(2), 0.0)
        assert np.array_equal(sensitivity_scores(self.data, zeros), 1.0 + norms)
        model = LinearModel(np.array([1.0, 0.0]), -0.5)
        data = make_dataset([[0.5, 3.0], [40.0, 0.0], [1.5, -2.0]], [0, 1, 1])
        scores = sensitivity_scores(data, model)
        assert scores[0] == 1.0 + math.hypot(0.5, 3.0)  # on the boundary
        assert scores[1] == pytest.approx(1.0, abs=1e-12)  # far from it
        proximity = 1.0 - 2.0 * abs(1.0 / (1.0 + math.exp(-1.0)) - 0.5)
        assert scores[2] == pytest.approx(1.0 + math.hypot(1.5, 2.0) * proximity)

    def test_unknown_strategy(self, tiny_config):
        # The strategy picks select_coreset's weights; the config rejects
        # a name that maps to none.
        with pytest.raises(ParameterError, match="coreset_strategy"):
            tiny_config("coreset", coreset_strategy="grid")


class TestKnnSelect:
    def test_two_nearest(self):
        data = make_dataset([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]], [0, 1, 0])
        out = knn_select(data, np.zeros(2), 2)
        assert np.array_equal(out.features, np.array([[1.0, 0.0], [2.0, 0.0]]))

    def test_k_equals_n(self):
        data = make_dataset([[1.0], [2.0]], [0, 1])
        out = knn_select(data, np.array([0.0]), 2)
        assert out.num_points == 2

    def test_tie_breaks_by_lower_index(self):
        data = make_dataset([[1.0], [1.0], [1.0]], [0, 1, 0])
        out = knn_select(data, np.array([0.0]), 2)
        assert list(out.labels) == [0, 1]

    def test_permutation_invariance_without_ties(self):
        rng = np.random.default_rng(5)
        features = rng.standard_normal((20, 3))
        labels = rng.integers(0, 2, 20).astype(np.int64)
        query = rng.standard_normal(3)
        base = knn_select(LabeledDataset(features, labels), query, 5)
        perm = rng.permutation(20)
        shuffled = knn_select(LabeledDataset(features[perm], labels[perm]), query, 5)
        assert np.array_equal(base.features, shuffled.features)

    def test_smaller_k_is_a_prefix_of_larger_k(self):
        # Each point appears three times, so many distances tie exactly.
        rng = np.random.default_rng(6)
        base = rng.integers(-2, 3, size=(10, 2)).astype(float)
        data = LabeledDataset(np.vstack([base, base, base]), rng.integers(0, 2, 30))
        full = knn_select(data, np.zeros(2), 30)
        for k in range(1, 31):
            out = knn_select(data, np.zeros(2), k)
            assert np.array_equal(out.features, full.features[:k])
            assert np.array_equal(out.labels, full.labels[:k])

    def test_oversized_k_rejected(self):
        data = make_dataset([[1.0]], [0])
        with pytest.raises(ParameterError):
            knn_select(data, np.array([0.0]), 2)

    def test_order_is_the_full_stable_argsort_prefix(self):
        # Tripled points tie exactly; random points almost never do.
        rng = np.random.default_rng(6)
        base = rng.integers(-2, 3, size=(10, 2)).astype(float)
        tied = LabeledDataset(np.vstack([base, base, base]), rng.integers(0, 2, 30))
        spread = LabeledDataset(rng.standard_normal((40, 3)), rng.integers(0, 2, 40))
        for data, query in ((tied, np.zeros(2)), (spread, rng.standard_normal(3))):
            sq_dists = ((data.features - query) ** 2).sum(axis=1)
            full = np.argsort(sq_dists, kind="stable")
            for k in range(1, data.num_points + 1):
                assert np.array_equal(knn_order(data, query, k), full[:k])

    def test_non_finite_query_rejected(self):
        data = make_dataset([[1.0], [2.0]], [0, 1])
        for query in ([np.nan], [np.inf]):
            with pytest.raises(ParameterError, match="finite"):
                knn_order(data, np.array(query), 1)


class TestDatasetTypes:
    def test_rejects_bad_labels(self):
        with pytest.raises(ParameterError):
            make_dataset([[1.0]], [2])

    def test_rejects_non_finite(self):
        with pytest.raises(ParameterError):
            make_dataset([[np.inf]], [0])

    def test_vectorized_predictions_match_scalar(self):
        rng = np.random.default_rng(7)
        model = LinearModel(rng.standard_normal(4), 0.5)
        pts = rng.standard_normal((20, 4))
        vec = predict_probs(model, pts)
        assert vec == pytest.approx([predict_probs(model, p[None])[0] for p in pts])

    def test_sigmoid_scalar_and_array(self):
        # Elementwise: a scalar comes back as a 0-d array.
        assert sigmoid(0.0).shape == () and sigmoid(0.0) == 0.5
        assert np.allclose(sigmoid(np.array([0.0, 1000.0])), [0.5, 1.0])
