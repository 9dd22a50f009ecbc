"""Logistic regression from scratch plus subset selection.

Training is plain full-batch gradient descent on the logistic loss
``mean(log(1 + exp(-s_i (w.x_i + b))))`` with labels mapped {0,1} -> {-1,+1}
inside the exponent, optionally plus a ridge term ``l2_reg/2 * ||w||^2``.
The step size halves whenever a step would increase the loss, so the accepted
loss sequence is non-increasing by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, ParameterError

# Total step-size halvings allowed over one training run before giving up.
MAX_STEP_HALVINGS = 30

# Subset-selection strategies accepted by :func:`select_coreset`.
CORESET_STRATEGIES = ("uniform", "sensitivity")


def sigmoid(z):
    """Numerically stable logistic function; handles scalars and arrays."""
    arr = np.atleast_1d(np.asarray(z, dtype=float))
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    ez = np.exp(arr[~pos])
    out[~pos] = ez / (1.0 + ez)
    return float(out[0]) if np.ndim(z) == 0 else out


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
    """Gradient-descent hyperparameters."""

    learning_rate: float = 0.5
    max_iters: int = 500
    grad_tolerance: float = 1e-8
    l2_reg: float = 0.0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ParameterError(f"learning_rate must be positive, got {self.learning_rate}")
        # max_iters = 0 is allowed: training then returns the all-zeros init.
        if not isinstance(self.max_iters, int) or self.max_iters < 0:
            raise ParameterError(f"max_iters must be a non-negative integer, got {self.max_iters!r}")
        if self.grad_tolerance <= 0:
            raise ParameterError(f"grad_tolerance must be positive, got {self.grad_tolerance}")
        if self.l2_reg < 0:
            raise ParameterError(f"l2_reg must be non-negative, got {self.l2_reg}")


def _loss(X: np.ndarray, signs: np.ndarray, w: np.ndarray, b: float, l2_reg: float) -> float:
    # Overflow to inf is legitimate here; the trainer detects and handles it.
    with np.errstate(over="ignore", invalid="ignore"):
        z = X @ w + b
        return float(np.logaddexp(0.0, -signs * z).mean() + 0.5 * l2_reg * (w @ w))


def _gradient(X: np.ndarray, signs: np.ndarray, w: np.ndarray, b: float, l2_reg: float):
    with np.errstate(over="ignore", invalid="ignore"):
        z = X @ w + b
        coeff = -signs * sigmoid(-signs * z)  # d/dz of log(1 + exp(-s z))
        grad_w = X.T @ coeff / X.shape[0] + l2_reg * w
        grad_b = float(coeff.mean())
    return grad_w, grad_b


def logistic_loss(model: LinearModel, data: LabeledDataset, l2_reg: float = 0.0) -> float:
    """Mean logistic loss of ``model`` on ``data`` (plus optional ridge term)."""
    _check_dim(model, data.dim)
    return _loss(data.features, 2.0 * data.labels - 1.0, model.weights, model.bias, l2_reg)


def logistic_gradient(model: LinearModel, data: LabeledDataset, l2_reg: float = 0.0):
    """Analytic gradient of :func:`logistic_loss` w.r.t. (weights, bias)."""
    _check_dim(model, data.dim)
    return _gradient(data.features, 2.0 * data.labels - 1.0, model.weights, model.bias, l2_reg)


def train_logistic(data: LabeledDataset, cfg: TrainConfig = TrainConfig()) -> LinearModel:
    """Full-batch gradient descent from the all-zeros initialization.

    Stops at ``max_iters`` iterations or when the gradient norm drops below
    ``grad_tolerance``.  A step that would increase the loss is retried with a
    halved step size (at most ``MAX_STEP_HALVINGS`` halvings per run); if no
    acceptable step remains the current iterate is returned.  A step whose
    loss is non-finite even at the smallest step size raises
    :class:`DivergenceError` naming the iteration.
    """
    X = data.features
    signs = 2.0 * data.labels - 1.0
    w = np.zeros(data.dim)
    b = 0.0
    lr = cfg.learning_rate
    halvings = 0
    loss = _loss(X, signs, w, b, cfg.l2_reg)
    if not np.isfinite(loss):
        raise DivergenceError(0)
    for iteration in range(cfg.max_iters):
        grad_w, grad_b = _gradient(X, signs, w, b, cfg.l2_reg)
        with np.errstate(over="ignore"):
            grad_norm = np.sqrt(grad_w @ grad_w + grad_b * grad_b)
        if grad_norm < cfg.grad_tolerance:
            break
        accepted = False
        while True:
            w_new = w - lr * grad_w
            b_new = b - lr * grad_b
            loss_new = _loss(X, signs, w_new, b_new, cfg.l2_reg)
            if np.isfinite(loss_new) and loss_new <= loss:
                accepted = True
                break
            if halvings >= MAX_STEP_HALVINGS:
                if not np.isfinite(loss_new):
                    raise DivergenceError(iteration + 1)
                break
            lr *= 0.5
            halvings += 1
        if not accepted:
            break
        w, b, loss = w_new, b_new, loss_new
    return LinearModel(weights=w, bias=float(b))


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
_PILOT_CONFIG = TrainConfig(learning_rate=0.5, max_iters=100, grad_tolerance=1e-6, l2_reg=1e-3)


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

