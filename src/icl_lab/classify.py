"""Logistic regression from scratch plus subset selection.

Training minimizes the mean logistic loss ``log(1 + exp(-s_i (w.x_i + b)))``,
labels mapped {0,1} -> {-1,+1}, plus an optional ridge ``l2_reg/2 * ||w||^2``
(never on the bias), by damped Newton: each iteration solves the (d+1)x(d+1)
Hessian system and halves the step from 1 until the Armijo condition holds,
so accepted losses never increase and convergence near the optimum is quadratic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, ParameterError, check_real

# Damped-Newton line search: steps 1, 1/2, ..., 2**-40; Armijo sufficient-decrease share.
_STEP_SIZES = [0.5**i for i in range(41)]
_ARMIJO = 1e-4

# Subset-selection strategies accepted by :func:`select_coreset`.
CORESET_STRATEGIES = ("uniform", "sensitivity")


def sigmoid(z):
    """Numerically stable logistic function; handles scalars and arrays."""
    arr = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(arr))  # in (0, 1], so neither branch overflows
    out = np.where(arr >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return float(out) if np.ndim(z) == 0 else out


@dataclass(frozen=True)
class LabeledDataset:
    """Binary-labeled points sharing one dimension, stored as arrays."""

    features: np.ndarray  # (N, d)
    labels: np.ndarray  # (N,) in {0, 1}

    def __post_init__(self):
        features = np.asarray(self.features, dtype=float)
        labels = np.asarray(self.labels, dtype=np.int64)
        if features.ndim != 2 or features.shape[0] < 1 or features.shape[1] < 1:
            raise ParameterError("features must be a non-empty (N, d) array")
        if not np.all(np.isfinite(features)):
            raise ParameterError("features contain non-finite values")
        if labels.shape != (features.shape[0],):
            raise ParameterError("need exactly one label per point")
        if not np.all((labels == 0) | (labels == 1)):
            raise ParameterError("labels must be 0 or 1")
        features.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    @property
    def num_points(self) -> int:
        return int(self.features.shape[0])

    @property
    def dim(self) -> int:
        return int(self.features.shape[1])

    def subset(self, indices) -> "LabeledDataset":
        idx = np.asarray(indices, dtype=np.int64)
        return LabeledDataset(self.features[idx], self.labels[idx])

    def is_single_class(self) -> bool:
        return bool(np.all(self.labels == self.labels[0]))


@dataclass(frozen=True)
class LinearModel:
    """Weight vector and bias of a logistic classifier."""

    weights: np.ndarray
    bias: float

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float)
        if weights.ndim != 1 or not np.all(np.isfinite(weights)):
            raise ParameterError("weights must be a finite vector")
        if not np.isfinite(self.bias):
            raise ParameterError("bias must be finite")
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "bias", float(self.bias))

    @property
    def dim(self) -> int:
        return int(self.weights.size)


@dataclass(frozen=True)
class TrainConfig:
    """Settings of :func:`train_logistic`; ``learning_rate`` is validated but unused."""

    learning_rate: float = 0.5
    max_iters: int = 500
    grad_tolerance: float = 1e-8
    l2_reg: float = 0.0

    def __post_init__(self):
        for name in ("learning_rate", "grad_tolerance", "l2_reg"):
            check_real(name, getattr(self, name))
        if self.learning_rate <= 0:
            raise ParameterError(f"learning_rate must be positive, got {self.learning_rate}")
        # max_iters = 0 is allowed: training then returns the all-zeros init.
        if not isinstance(self.max_iters, int) or self.max_iters < 0:
            raise ParameterError(f"max_iters must be a non-negative integer, got {self.max_iters!r}")
        if self.grad_tolerance <= 0:
            raise ParameterError(f"grad_tolerance must be positive, got {self.grad_tolerance}")
        if self.l2_reg < 0:
            raise ParameterError(f"l2_reg must be non-negative, got {self.l2_reg}")


def _problem(data: LabeledDataset, l2_reg: float):
    """Design matrix with a ones column (``theta = (w, b)``), signs, ridge per entry of theta."""
    X = np.column_stack([data.features, np.ones(data.num_points)])
    return X, 2.0 * data.labels - 1.0, np.append(np.full(data.dim, float(l2_reg)), 0.0)


def _loss(X: np.ndarray, signs: np.ndarray, ridge: np.ndarray, theta: np.ndarray) -> float:
    return float(np.logaddexp(0.0, -signs * (X @ theta)).mean() + 0.5 * (ridge * theta) @ theta)


def _gradient(X: np.ndarray, signs: np.ndarray, ridge: np.ndarray, theta: np.ndarray):
    """Gradient of :func:`_loss` and each point's probability of the other label."""
    wrong = sigmoid(-signs * (X @ theta))
    return X.T @ (-signs * wrong) / X.shape[0] + ridge * theta, wrong


def logistic_loss(model: LinearModel, data: LabeledDataset, l2_reg: float = 0.0) -> float:
    """Mean logistic loss of ``model`` on ``data`` (plus optional ridge term)."""
    _check_dim(model, data.dim)
    # Overflow to inf is legitimate here; the trainer detects and handles it.
    with np.errstate(over="ignore", invalid="ignore"):
        return _loss(*_problem(data, l2_reg), np.append(model.weights, model.bias))


def logistic_gradient(model: LinearModel, data: LabeledDataset, l2_reg: float = 0.0):
    """Analytic gradient of :func:`logistic_loss` w.r.t. (weights, bias)."""
    _check_dim(model, data.dim)
    with np.errstate(over="ignore", invalid="ignore"):
        grad, _ = _gradient(*_problem(data, l2_reg), np.append(model.weights, model.bias))
    return grad[:-1], float(grad[-1])


def train_logistic(data: LabeledDataset, cfg: TrainConfig = TrainConfig()) -> LinearModel:
    """Damped Newton from the all-zeros initialization.

    Stops at ``max_iters`` iterations or when the gradient norm drops below
    ``grad_tolerance``.  Each iteration solves the Hessian system for the
    Newton direction and halves the step from 1 until the Armijo condition
    holds; if no step down to ``2**-40`` passes, the current iterate is
    returned.  A non-finite Hessian, or a non-finite loss at the smallest step
    (which a non-finite direction always gives), raises
    :class:`DivergenceError` naming the iteration, counted from 1.
    """
    X, signs, ridge = _problem(data, cfg.l2_reg)
    theta = np.zeros(data.dim + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        loss = _loss(X, signs, ridge, theta)  # log(2): the features are finite
        for iteration in range(1, cfg.max_iters + 1):
            grad, wrong = _gradient(X, signs, ridge, theta)
            if np.linalg.norm(grad) < cfg.grad_tolerance:
                break
            hessian = (X.T * (wrong * (1.0 - wrong))) @ X / X.shape[0] + np.diag(ridge)
            if not np.all(np.isfinite(hessian)):
                raise DivergenceError(iteration)
            # Minimum-norm direction: the Hessian is singular when, say, there are
            # fewer points than d + 1 and no ridge, or the fit has saturated.
            direction = np.linalg.lstsq(hessian, grad, rcond=None)[0]
            decrease = _ARMIJO * max(float(grad @ direction), 0.0)
            for step in _STEP_SIZES:
                candidate = theta - step * direction
                new_loss = _loss(X, signs, ridge, candidate)
                if new_loss <= loss - step * decrease:
                    break
            else:
                if not np.isfinite(new_loss):
                    raise DivergenceError(iteration)
                break
            theta, loss = candidate, new_loss
    return LinearModel(weights=theta[:-1], bias=float(theta[-1]))


def _check_dim(model: LinearModel, dim: int):
    if model.dim != dim:
        raise ParameterError(f"model dimension {model.dim} does not match input dimension {dim}")


def predict_prob(model: LinearModel, x) -> float:
    """Class-1 probability at a single point: sigmoid(w.x + b)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ParameterError("query must be a single vector")
    _check_dim(model, x.size)
    return float(sigmoid(model.weights @ x + model.bias))


def predict_probs(model: LinearModel, features) -> np.ndarray:
    """Vectorized :func:`predict_prob` over rows of ``features``."""
    features = np.asarray(features, dtype=float)
    if features.ndim != 2:
        raise ParameterError("features must be an (N, d) array")
    _check_dim(model, features.shape[1])
    return sigmoid(features @ model.weights + model.bias)


# Short deterministic pilot fit used only to score points for the
# sensitivity strategy; kept fixed so selection depends only on (data, seed).
_PILOT_CONFIG = TrainConfig(max_iters=100, grad_tolerance=1e-6, l2_reg=1e-3)


def sensitivity_scores(data: LabeledDataset) -> np.ndarray:
    """Importance score per point: 1 + ||x|| * proximity to the decision boundary.

    Proximity is ``1 - 2 |p - 1/2|`` under a pilot logistic fit, so points the
    pilot finds ambiguous (p near 1/2) score high, scaled by their norm.
    """
    pilot = train_logistic(data, _PILOT_CONFIG)
    p = predict_probs(pilot, data.features)
    proximity = 1.0 - 2.0 * np.abs(p - 0.5)
    return 1.0 + np.linalg.norm(data.features, axis=1) * proximity


def select_coreset(
    data: LabeledDataset, size: int, strategy: str, rng: np.random.Generator
) -> LabeledDataset:
    """Pick ``size`` points without replacement, ``uniform`` or by ``sensitivity``.

    Indices are sorted, so the subset preserves dataset order.  ``size == N``
    returns the dataset unchanged under either strategy.
    """
    n = data.num_points
    if not 1 <= size <= n:
        raise ParameterError(f"coreset size must be in [1, {n}], got {size}")
    if strategy not in CORESET_STRATEGIES:
        raise ParameterError(f"unknown coreset strategy {strategy!r}")
    if size == n:
        return data
    if strategy == "uniform":
        idx = rng.choice(n, size=size, replace=False)
    else:
        scores = sensitivity_scores(data)
        idx = rng.choice(n, size=size, replace=False, p=scores / scores.sum())
    return data.subset(np.sort(idx))


def knn_select(data: LabeledDataset, query, k: int) -> LabeledDataset:
    """The ``k`` points nearest ``query`` in Euclidean distance, nearest first.

    Exact distance ties are broken by dataset index, lowest first.
    """
    query = np.asarray(query, dtype=float)
    if query.ndim != 1 or query.size != data.dim:
        raise ParameterError(f"query must be a vector of dimension {data.dim}")
    if not 1 <= k <= data.num_points:
        raise ParameterError(f"k must be in [1, {data.num_points}], got {k}")
    sq_dists = ((data.features - query) ** 2).sum(axis=1)
    order = np.argsort(sq_dists, kind="stable")
    return data.subset(order[:k])

