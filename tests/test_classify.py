import dataclasses
import importlib.util
import math
import sys
from pathlib import Path

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


# A three-point neighbourhood of knn's planted task whose single-class logistic fit
# saturates (planted norm 50, trial 2 of seed 1, query 7).
SATURATING = np.array(
    [
        [-1.3356999486407577, -0.2852774400492382],
        [-1.2879611045782804, -0.3786053658889156],
        [-1.2864104704031945, -0.381318202769832],
    ]
)


@pytest.fixture
def min_norm_calls(monkeypatch):
    """The stack size of each call of ``_min_norm_directions``, which still runs."""
    calls = []
    real = classify._min_norm_directions

    def recording(hessians, grads):
        calls.append(len(hessians))
        return real(hessians, grads)

    monkeypatch.setattr(classify, "_min_norm_directions", recording)
    return calls


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
        "cfg, zero_fit",
        [
            # Every fit reaches the tolerance, after 3, 18, 18 and 22 iterations.
            (TrainConfig(max_iters=300, l2_reg=0.0), False),
            # In iterations 4 and 43 to 61 some fits halve their step while
            # others take step 1, and at iteration 61 no step passes the
            # single-class fit's Armijo test: it stalls and leaves the stack.
            (TrainConfig(max_iters=300, grad_tolerance=1e-300, l2_reg=1e-3), False),
            (TrainConfig(max_iters=0), False),
            # A fifth fit of all-zero features has an exactly singular Hessian
            # without a ridge, so the stack's inverse raises until it leaves, and
            # the stack's directions are solved one fit at a time.
            (TrainConfig(max_iters=300, l2_reg=0.0), True),
        ],
        ids=["tolerance", "stall", "no-iterations", "singular-pivot"],
    )
    def test_each_row_is_its_lone_fit(self, cfg, zero_fit, monkeypatch):
        stack, stack_labels = self.FEATURES, self.LABELS
        if zero_fit:
            stack = np.concatenate([stack, np.zeros((1, 3, 1))])
            stack_labels = np.concatenate([stack_labels, [[0, 1, 1]]])
            raises = []
            real_inv = np.linalg.inv

            def recording_inv(hessians):
                try:
                    return real_inv(hessians)
                except np.linalg.LinAlgError:
                    raises.append(len(hessians))
                    raise

            monkeypatch.setattr(np.linalg, "inv", recording_inv)
        thetas = fit_logistic_stack(stack, stack_labels, cfg)
        if zero_fit:
            assert 5 in raises  # the whole stack's inverse raised
            lone = fit_logistic_stack(stack[4:], stack_labels[4:], cfg)[0]
            assert np.array_equal(thetas[4], lone)
            assert np.allclose(lone, [0.0, math.log(2.0)])  # its bias fits the 2:1 labels
            thetas = thetas[:4]
        assert thetas.shape == (4, 2)
        for features, labels, theta in zip(stack, stack_labels, thetas):
            assert np.array_equal(theta, fit_logistic_stack(features[None], labels[None], cfg)[0])
            model = train_logistic(LabeledDataset(features, labels), cfg)
            assert np.array_equal(theta, np.append(model.weights, model.bias))
        if cfg.max_iters == 0:
            assert np.array_equal(thetas, np.zeros((4, 2)))

    def test_singular_pivot_raises_for_its_newton_group_only(self, monkeypatch):
        # Six fits of 4,000 points at d = 1 count 8,008 floats each, so a Newton
        # group holds two and the stack spans three.  Fit 2, of all-zero features and
        # no ridge, has an exactly singular Hessian in the middle group.
        rng = np.random.default_rng(11)
        features = rng.standard_normal((6, 4000, 1))
        features[2] = 0.0
        labels = (features[..., 0] + rng.standard_normal((6, 4000)) > 0).astype(np.int64)
        cfg = TrainConfig(max_iters=300, l2_reg=0.0)
        group = classify._GROUP_BYTES // (8 * (4000 * 2 + 2 * 2 * 2))
        assert group == 2
        calls = []  # per inv call: its stack size, whether it raised, whether fit 2 is in it
        real_inv = np.linalg.inv

        def recording_inv(hessians):
            singular = bool(np.any(hessians[:, 0, 0] == 0))
            try:
                inverses = real_inv(hessians)
            except np.linalg.LinAlgError:
                calls.append((len(hessians), True, singular))
                raise
            calls.append((len(hessians), False, singular))
            return inverses

        with monkeypatch.context() as patched:
            patched.setattr(np.linalg, "inv", recording_inv)
            thetas = fit_logistic_stack(features, labels, cfg)
        assert [size for size, _, _ in calls[:5]] == [2, 2, 1, 1, 2]  # the first iteration
        assert max(size for size, _, _ in calls) == group
        raised = [(size, singular) for size, failed, singular in calls if failed]
        assert (group, True) in raised  # fit 2's group raised, then fit 2 alone
        assert all(singular for _, singular in raised)
        for b, theta in enumerate(thetas):
            lone = fit_logistic_stack(features[b, None], labels[b, None], cfg)[0]
            assert np.array_equal(theta, lone)

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

    def test_line_search_divergence_raises_its_iteration_stacked_and_alone(
        self, unfloored_directions
    ):
        # The saturating neighbourhood, with no ridge and an unreachable tolerance:
        # its Hessian shrinks until the unfloored solve's Newton direction
        # overflows and no step's loss is finite.
        features = np.array(
            [
                [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]],
                SATURATING,
                [[0.0, 1.0], [0.0, -1.0], [1.0, 0.5]],
            ]
        )
        labels = np.array([[0, 1, 0], [0, 0, 0], [1, 1, 0]])
        cfg = TrainConfig(max_iters=2000, grad_tolerance=1e-300)
        with pytest.raises(DivergenceError) as lone:
            fit_logistic_stack(features[1:2], labels[1:2], cfg)
        with pytest.raises(DivergenceError) as stacked:
            fit_logistic_stack(features, labels, cfg)
        assert stacked.value.iteration == lone.value.iteration == 690
        for caught in (lone, stacked):  # the Hessian was finite: the line search's exit
            assert np.all(np.isfinite(caught.traceback[-1].locals["hessian"]))
        fit_logistic_stack(features[::2], labels[::2], cfg)  # the others fit

    def test_saturating_fit_is_not_divergent(self):
        # The same neighbourhood through the real solve: as its loss falls toward 0
        # its Hessian's eigenvalues turn subnormal, and they count as zero instead of
        # being inverted to an infinite direction at iteration 690.
        cfg = TrainConfig(max_iters=2000, grad_tolerance=1e-300)
        (theta,) = fit_logistic_stack(np.array([SATURATING]), np.zeros((1, 3)), cfg)
        assert np.all(np.isfinite(theta))
        assert np.all(predict_probs(LinearModel(theta[:-1], theta[-1]), SATURATING) < 1e-300)

    @pytest.mark.parametrize("seed", range(4))
    def test_newton_directions_match_the_min_norm_ones(self, seed, monkeypatch):
        # Stacks of well-conditioned Hessians of the solver's form, Z^T diag(p (1 - p)) Z / n
        # plus a ridge on all but the bias, each solved through its inverse alone.
        rng = np.random.default_rng(seed)
        for size in range(2, 22):
            fits, n = int(rng.integers(1, 17)), 4 * size
            Z = rng.standard_normal((fits, n, size))
            p = rng.uniform(0.05, 0.95, (fits, n))
            hessians = (Z.transpose(0, 2, 1) * (p * (1 - p))[:, None, :]) @ Z / n
            hessians += np.diag(np.append(np.full(size - 1, rng.uniform(1e-3, 1e-1)), 0.0))
            grads = rng.standard_normal((fits, size))
            expected = classify._min_norm_directions(hessians, grads)
            with monkeypatch.context() as patched:
                patched.setattr(classify, "_min_norm_directions", None)  # not called
                directions = classify._newton_directions(hessians, grads)
            scale = np.linalg.norm(expected, axis=1)
            assert np.all(np.linalg.norm(directions - expected, axis=1) <= 1e-12 * scale)

    @pytest.mark.parametrize(
        "features, labels, cfg",
        [
            ([[[1.0, 2.0]]], [[1]], TrainConfig(l2_reg=0.0)),
            ([[[1.0, 2.0]]], [[1]], TrainConfig(l2_reg=1e-300)),
            ([SATURATING], [[0, 0, 0]], TrainConfig(max_iters=2000, grad_tolerance=1e-300)),
            (
                FEATURES[1:2],
                LABELS[1:2],
                TrainConfig(max_iters=300, grad_tolerance=1e-300, l2_reg=1e-3),
            ),
        ],
        ids=["singular", "singular-ridge-1e-300", "saturating", "stall"],
    )
    def test_ill_conditioned_fits_take_the_min_norm_direction(
        self, features, labels, cfg, min_norm_calls
    ):
        # The singular, saturating and stalling fits above reach a Hessian whose
        # traces cannot rule out an eigenvalue under the cutoff.
        fit_logistic_stack(np.array(features), np.array(labels), cfg)
        assert min_norm_calls

    @pytest.mark.parametrize("workload", ["knn_sweep", "coreset_sensitivity"])
    def test_benchmark_fits_never_take_the_eigendecomposition(
        self, workload, monkeypatch, min_norm_calls
    ):
        # Every Hessian of the two classification workloads passes the trace test,
        # so their runs never call eigh.
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, "workloads", workloads)  # for its dataclass
        spec.loader.exec_module(workloads)
        run_experiment(ExperimentConfig.from_dict(workloads.make_config(workload, 1)))
        assert min_norm_calls == []

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

    @pytest.mark.parametrize("size", [True, 1.5, 2.0, np.float64(2.0), "2"])
    def test_bool_or_non_integer_size_rejected(self, size):
        with pytest.raises(ParameterError, match=r"^coreset size must be an integer in \[1, 30\]"):
            select_coreset(self.data, size, None, np.random.default_rng(0))

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

    @pytest.mark.parametrize("k", [True, 1.5, 2.0, np.float64(2.0), "2", 0, 3])
    def test_bool_or_non_integer_or_oversized_k_rejected(self, k):
        data = make_dataset([[1.0], [2.0]], [0, 1])
        with pytest.raises(ParameterError, match=r"^k must be an integer in \[1, 2\], got "):
            knn_order(data, np.zeros(1), k)

    def test_numpy_integer_k_accepted(self):
        data = make_dataset([[1.0], [2.0], [3.0]], [0, 1, 0])
        assert knn_order(data, np.zeros(1), np.int64(2)).tolist() == [0, 1]

    def test_non_finite_query_rejected(self):
        data = make_dataset([[1.0], [2.0]], [0, 1])
        for query in ([np.nan], [np.inf]):
            with pytest.raises(ParameterError, match="finite"):
                knn_order(data, np.array(query), 1)


class TestDatasetTypes:
    def test_rejects_bad_labels(self):
        with pytest.raises(ParameterError):
            make_dataset([[1.0]], [2])

    @pytest.mark.parametrize("labels", [[0.5, 1.0], [1.9, 0.2], ["1", "0"]])
    def test_rejects_fractional_or_string_labels_before_casting(self, labels):
        # They were cast to 0/1: [1.9, 0.2] read as [1, 0], ["1", "0"] as [1, 0].
        with pytest.raises(ParameterError, match="labels must be 0 or 1"):
            LabeledDataset(np.zeros((2, 1)), labels)

    def test_caller_arrays_stay_writable_and_stored_ones_are_frozen(self):
        features, labels, weights = np.zeros((2, 1)), np.array([0, 1]), np.ones(1)
        data, model = LabeledDataset(features, labels), LinearModel(weights, 0.0)
        features[0], labels[0], weights[0] = 1.0, 1, 2.0
        for stored in (data.features, data.labels, model.weights):
            with pytest.raises(ValueError, match="read-only"):
                stored[0] = 0

    def test_rejects_non_finite(self):
        with pytest.raises(ParameterError):
            make_dataset([[np.inf]], [0])

    @pytest.mark.parametrize(
        "features, labels, message",
        [(np.zeros((0, 2)), [], "non-empty"), ([[1.0], [2.0], [3.0]], [0, 1], "one label")],
    )
    def test_rejects_misshapen_data(self, features, labels, message):
        with pytest.raises(ParameterError, match=message):
            make_dataset(features, labels)

    @pytest.mark.parametrize(
        "weights, bias, message", [([np.nan], 0.0, "weights"), ([1.0], np.inf, "bias")]
    )
    def test_model_rejects_non_finite_parameters(self, weights, bias, message):
        with pytest.raises(ParameterError, match=message):
            LinearModel(weights, bias)

    def test_vectorized_predictions_match_scalar(self):
        rng = np.random.default_rng(7)
        model = LinearModel(rng.standard_normal(4), 0.5)
        pts = rng.standard_normal((20, 4))
        vec = predict_probs(model, pts)
        assert vec == pytest.approx([predict_probs(model, p[None])[0] for p in pts])

    def test_sigmoid_scalar_and_array(self):
        # Elementwise: a scalar comes back 0-d.
        assert sigmoid(0.0).shape == () and sigmoid(0.0) == 0.5
        assert np.allclose(sigmoid(np.array([0.0, 1000.0])), [0.5, 1.0])

    def test_sigmoid_matches_the_two_branch_form_bit_for_bit(self):
        # One shared divide picks its numerator per sign; each branch's own divide
        # gives the same bits, NaN, signed zeros, subnormals and infinities included.
        edges = [0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300, 5e-324, -5e-324]
        edges += [745.0, -745.0, 800.0, -800.0, np.inf, -np.inf, np.nan]
        z = np.concatenate([np.random.default_rng(3).standard_normal(100_000) * 50, edges])
        e = np.exp(-np.abs(z))
        two_branch = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        assert np.array_equal(sigmoid(z).view(np.uint64), two_branch.view(np.uint64))
