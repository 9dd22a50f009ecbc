"""Logistic regression from scratch plus subset selection.

Training minimizes the mean logistic loss ``log(1 + exp(-s_i (w.x_i + b)))``,
labels mapped {0,1} -> {-1,+1}, plus an optional ridge ``l2_reg/2 * ||w||^2``
(never on the bias), by damped Newton: each iteration solves the (d+1)x(d+1)
Hessian system and halves the step from 1 until the Armijo condition holds,
so accepted losses never increase and convergence near the optimum is quadratic.
The system is solved through the Hessian's inverse where its traces prove it
well conditioned, and through its eigendecomposition, for the minimum-norm
direction, elsewhere (:func:`_newton_directions`).
:func:`fit_logistic_stack` runs a stack of same-shaped fits at once, each
exactly as it would run alone; :func:`train_logistic` is a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, ParameterError, check_int, check_real

# Damped-Newton line search: steps 1, 1/2, ..., 2**-40; Armijo sufficient-decrease share.
_STEP_SIZES = [0.5**i for i in range(41)]
_ARMIJO = 1e-4
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
# Budget of one Newton group's weighted design, Hessians and their inverses, n (d + 1)
# + 2 (d + 1)**2 floats a fit: under glibc's initial 128 KiB mmap threshold, so
# those temporaries come from the heap, whatever ran before.
_GROUP_BYTES = 128 * 1024


def sigmoid(z):
    """Numerically stable logistic function, elementwise over an array."""
    return _sigmoid_in_place(np.array(z, dtype=float))


def _sigmoid_in_place(x: np.ndarray) -> np.ndarray:
    """:func:`sigmoid` of the float64 array ``x``, written over it, with one scratch
    array: ``1 / (1 + e)`` where ``x >= 0`` and ``e / (1 + e)`` elsewhere (NaN
    included), ``e = exp(-|x|)``."""
    positive = x >= 0
    e = np.abs(x, out=np.empty_like(x))
    np.negative(e, out=e)
    np.exp(e, out=e)  # in (0, 1], so 1 + e never overflows
    np.copyto(x, e)
    np.copyto(x, 1.0, where=positive)
    np.add(e, 1.0, out=e)
    return np.divide(x, e, out=x)


@dataclass(frozen=True)
class LabeledDataset:
    """Binary-labeled points sharing one dimension, stored as arrays."""

    features: np.ndarray  # (N, d)
    labels: np.ndarray  # (N,) in {0, 1}

    def __post_init__(self):
        # Views, frozen: the caller's own arrays stay writable.
        features = np.asarray(self.features, dtype=float).view()
        labels = np.asarray(self.labels)
        if features.ndim != 2 or features.shape[0] < 1 or features.shape[1] < 1:
            raise ParameterError("features must be a non-empty (N, d) array")
        if not np.all(np.isfinite(features)):
            raise ParameterError("features contain non-finite values")
        if labels.shape != (features.shape[0],):
            raise ParameterError("need exactly one label per point")
        if not np.all((labels == 0) | (labels == 1)):  # before the cast, which would truncate
            raise ParameterError("labels must be 0 or 1")
        labels = labels.astype(np.int64, copy=False).view()
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
        weights = np.asarray(self.weights, dtype=float).view()  # frozen; the caller's is not
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
        for name in ("learning_rate", "grad_tolerance"):
            object.__setattr__(self, name, check_real(name, getattr(self, name), above=0))
        object.__setattr__(self, "l2_reg", check_real("l2_reg", self.l2_reg, at_least=0))
        # max_iters = 0 is allowed: training then returns the all-zeros init.
        object.__setattr__(self, "max_iters", check_int("max_iters", self.max_iters, 0))


def _signed_design(features, labels) -> np.ndarray:
    """``s_i (x_i, 1)`` per point, labels mapped {0,1} -> s in {-1,+1}.

    Margins ``s_i (w.x_i + b)`` are then ``Z @ theta`` with ``theta = (w, b)``;
    ``features`` and ``labels`` may be stacks, (..., N, d) and (..., N).
    """
    features = np.asarray(features, dtype=float)
    signs = 2.0 * np.asarray(labels) - 1.0
    Z = np.empty(features.shape[:-1] + (features.shape[-1] + 1,))
    np.multiply(features, signs[..., None], out=Z[..., :-1])
    Z[..., -1] = signs
    return Z


def _ridge(dim: int, l2_reg: float) -> np.ndarray:
    """Ridge weight of each entry of theta; the bias is never penalized."""
    ridge = np.full(dim + 1, float(l2_reg))
    ridge[-1] = 0.0
    return ridge


def _loss(margins: np.ndarray, e: np.ndarray, half_ridge: np.ndarray, thetas: np.ndarray):
    """Loss of every fit in a stack from its margins and ``e = exp(-|margins|)``."""
    data_term = np.add.reduce(np.log1p(e) - np.minimum(margins, 0.0), axis=1) / margins.shape[1]
    return data_term + np.add.reduce(half_ridge * thetas * thetas, axis=1)


def _gradient(Z, margins, e, ridge, thetas):
    """Gradient of :func:`_loss` per fit and each point's probability of the other label."""
    wrong = np.where(margins > 0, e, 1.0) / (1.0 + e)  # sigmoid(-margins), from the same e
    return (wrong[:, None, :] @ Z)[:, 0] / -Z.shape[1] + ridge * thetas, wrong


def _stack_of_one(model: LinearModel, data: LabeledDataset, l2_reg: float):
    """:func:`_gradient`'s inputs for one model: design, margins, their e, ridge, theta."""
    Z = _signed_design(data.features[None], data.labels[None])
    theta = np.append(model.weights, model.bias)[None]
    margins = (Z @ theta[:, :, None])[..., 0]
    return Z, margins, np.exp(-np.abs(margins)), _ridge(data.dim, l2_reg), theta


def logistic_loss(model: LinearModel, data: LabeledDataset, l2_reg: float = 0.0) -> float:
    """Mean logistic loss of ``model`` on ``data`` (plus optional ridge term)."""
    _check_dim(model, data.dim)
    # Overflow to inf is legitimate here; the trainer detects and handles it.
    with np.errstate(over="ignore", invalid="ignore"):
        _, margins, e, ridge, theta = _stack_of_one(model, data, l2_reg)
        return float(_loss(margins, e, 0.5 * ridge, theta)[0])


def logistic_gradient(model: LinearModel, data: LabeledDataset, l2_reg: float = 0.0):
    """Analytic gradient of :func:`logistic_loss` w.r.t. (weights, bias)."""
    _check_dim(model, data.dim)
    with np.errstate(over="ignore", invalid="ignore"):
        grad, _ = _gradient(*_stack_of_one(model, data, l2_reg))
    return grad[0, :-1], float(grad[0, -1])


def _min_norm_directions(hessians: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """Minimum-norm solution of every system ``H x = g`` in a stack.

    Eigenvalues at most ``eps * (d + 1)`` times the largest in magnitude count
    as zero: ``lstsq``'s ``rcond=None`` cutoff, as the singular values of a
    symmetric matrix are its eigenvalues' magnitudes.  So do subnormal ones, whose
    inverse can overflow: a saturating fit's Hessian underflows toward them.
    """
    values, vectors = np.linalg.eigh(hessians)
    magnitudes = np.abs(values)
    cutoff = np.maximum.reduce(magnitudes, axis=1, keepdims=True) * (_EPS * values.shape[1])
    np.maximum(cutoff, _TINY, out=cutoff)
    inverse = 1.0 / np.where(magnitudes > cutoff, values, np.inf)
    coords = (grads[:, None, :] @ vectors)[:, 0] * inverse
    return (vectors @ coords[:, :, None])[..., 0]


def _newton_directions(hessians: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """:func:`_min_norm_directions` of a stack of positive semi-definite Hessians,
    through ``H^-1 g`` wherever that is the same direction.

    A PSD ``H`` has largest eigenvalue at most ``tr H`` and smallest at least
    ``1 / tr H^-1``.  So where ``0 < tr H tr H^-1 < 1 / (eps (d + 1))`` and
    ``tr H^-1 < 1 / tiny``, no eigenvalue falls under the minimum-norm cutoff and
    the two directions agree in exact arithmetic.  Every other fit (singular,
    saturated, single-class) takes the eigendecomposition.  An exactly singular
    pivot makes ``inv`` raise for its group, the stack passed here; that group's
    fits are then solved one at a time, so no fit's direction depends on the
    others in its group.
    """
    try:
        inverses = np.linalg.inv(hessians)
    except np.linalg.LinAlgError:
        if len(hessians) == 1:
            return _min_norm_directions(hessians, grads)
        return np.concatenate(
            [_newton_directions(h[None], g[None]) for h, g in zip(hessians, grads)]
        )
    inverse_traces = np.trace(inverses, axis1=1, axis2=2)
    spreads = np.trace(hessians, axis1=1, axis2=2) * inverse_traces
    trusted = (spreads > 0) & (spreads < 1.0 / (_EPS * grads.shape[1]))
    trusted &= inverse_traces < 1.0 / _TINY
    directions = (inverses @ grads[:, :, None])[..., 0]
    if np.count_nonzero(trusted) < trusted.size:
        rest = ~trusted
        directions[rest] = _min_norm_directions(hessians[rest], grads[rest])
    return directions


def fit_logistic_stack(features, labels, cfg: TrainConfig = TrainConfig()) -> np.ndarray:
    """Damped Newton from the all-zeros initialization, on a stack of fits at once.

    ``features`` is (B, N, d) and ``labels`` (B, N) in {0, 1}; row b of the
    returned (B, d + 1) array is ``theta = (w, b)`` of fit b, exactly what that
    fit gives in a stack of one.  A fit stops at ``max_iters`` iterations or
    when its gradient norm drops below ``grad_tolerance``.  Each iteration
    solves the Hessian system for the minimum-norm Newton direction and halves
    the step from 1 until the Armijo condition holds; if no step down to
    ``2**-40`` passes, the fit stalls and stops at its current iterate.
    Converged and stalled fits leave the stack together, at the top of the
    next iteration.  A non-finite Hessian, or a non-finite loss at the smallest
    step (which a non-finite direction always gives), raises
    :class:`DivergenceError` naming the iteration, counted from 1.

    The stack holds one design tensor, ``Z``: ``features`` and ``labels`` are
    dropped once it is built, so a caller that passes a gathered copy as a
    temporary frees it here.  Each iteration forms the weighted design, the
    Hessians, their inverses and the directions one group of consecutive fits at
    a time, as many as fit :data:`_GROUP_BYTES` and at least one; matmul and
    ``inv`` work matrix by matrix, so the grouping moves no bit.  Margins are
    carried from iterate to iterate: a step moves them by ``Z @ direction``,
    computed once per iteration, and the accepted candidate's ``exp(-|margin|)``
    also serves the next gradient.
    """
    if np.ndim(features) != 3 or np.shape(labels) != np.shape(features)[:2]:
        raise ParameterError("need (B, N, d) features and (B, N) labels")
    Z = _signed_design(features, labels)
    del features, labels
    num_fits, n, size = Z.shape
    group = max(1, _GROUP_BYTES // (8 * (n * size + 2 * size * size)))
    ridge = _ridge(size - 1, cfg.l2_reg)
    half_ridge, ridge_matrix = 0.5 * ridge, np.diag(ridge)
    thetas = np.zeros((num_fits, size))
    # The fits still in the stack; rows maps them to rows of thetas.
    rows, theta = np.arange(num_fits), thetas.copy()
    margins, e = np.zeros((num_fits, n)), np.ones((num_fits, n))
    loss, stalled = np.full(num_fits, np.log(2.0)), np.zeros(num_fits, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for iteration in range(1, cfg.max_iters + 1):
            grad, wrong = _gradient(Z, margins, e, ridge, theta)
            squares = np.add.reduce(grad * grad, axis=1)
            norms, tiny = np.sqrt(squares), squares < _TINY
            norms[tiny] = np.hypot.reduce(grad[tiny], axis=1)  # hypot rescales: no underflow
            done = stalled | (norms < cfg.grad_tolerance)
            if np.count_nonzero(done):
                thetas[rows[done]] = theta[done]
                keep = ~done
                rows, Z, theta, margins, e, loss, stalled, grad, wrong = (
                    a[keep] for a in (rows, Z, theta, margins, e, loss, stalled, grad, wrong)
                )
                if not rows.size:
                    break
            curvature = wrong * (1.0 - wrong)
            direction = np.empty_like(grad)
            for start in range(0, len(rows), group):
                fits = slice(start, start + group)
                hessian = (Z[fits].transpose(0, 2, 1) * curvature[fits, None, :]) @ Z[fits]
                hessian /= n
                hessian += ridge_matrix
                if np.count_nonzero(np.isfinite(hessian)) < hessian.size:
                    raise DivergenceError(iteration)
                # Minimum-norm direction, H^-1 g where the Hessian is provably well
                # conditioned; it is singular when, say, there are fewer points than
                # d + 1 and no ridge, or the fit has saturated.
                direction[fits] = _newton_directions(hessian, grad[fits])
            decrease = _ARMIJO * np.maximum(np.add.reduce(grad * direction, axis=1), 0.0)
            slopes = (Z @ direction[:, :, None])[..., 0]
            pending = None  # the fits still searching; None while that is all of them
            for step in _STEP_SIZES:
                if pending is None:  # the first step, 1
                    cand_m, cand_t, target = margins - slopes, theta - direction, loss - decrease
                else:
                    cand_m = margins[pending] - step * slopes[pending]
                    cand_t = theta[pending] - step * direction[pending]
                    target = loss[pending] - step * decrease[pending]
                cand_e = np.exp(-np.abs(cand_m))
                cand_loss = _loss(cand_m, cand_e, half_ridge, cand_t)
                ok = cand_loss <= target
                if pending is None:
                    if np.count_nonzero(ok) == ok.size:
                        theta, margins, e, loss = cand_t, cand_m, cand_e, cand_loss
                        break
                    pending = np.arange(ok.size)
                accepted = pending[ok]
                theta[accepted], margins[accepted] = cand_t[ok], cand_m[ok]
                e[accepted], loss[accepted] = cand_e[ok], cand_loss[ok]
                pending = pending[~ok]
                if not pending.size:
                    break
            else:
                if np.count_nonzero(np.isfinite(cand_loss[~ok])) < pending.size:
                    raise DivergenceError(iteration)
                stalled[pending] = True  # no step decreases the loss enough
    thetas[rows] = theta
    return thetas


def train_logistic(data: LabeledDataset, cfg: TrainConfig = TrainConfig()) -> LinearModel:
    """:func:`fit_logistic_stack` on ``data`` alone."""
    theta = fit_logistic_stack(data.features[None], data.labels[None], cfg)[0]
    return LinearModel(weights=theta[:-1], bias=theta[-1])


def _check_dim(model: LinearModel, dim: int):
    if model.dim != dim:
        raise ParameterError(f"model dimension {model.dim} does not match input dimension {dim}")


def predict_probs(model: LinearModel, features) -> np.ndarray:
    """Class-1 probability ``sigmoid(w.x + b)`` at each row ``x`` of the (N, d)
    array ``features``; one point is a one-row array."""
    features = np.asarray(features, dtype=float)
    if features.ndim != 2:
        raise ParameterError("features must be an (N, d) array")
    _check_dim(model, features.shape[1])
    logits = features @ model.weights
    logits += model.bias
    return _sigmoid_in_place(logits)


def sensitivity_scores(data: LabeledDataset, pilot: LinearModel) -> np.ndarray:
    """Importance score per point: 1 + ||x|| * proximity to ``pilot``'s decision boundary.

    Proximity is ``1 - 2 |p - 1/2|`` under ``pilot``'s class-1 probability, so
    points it finds ambiguous (p near 1/2) score high, scaled by their norm.
    The coreset runner passes the trial's full-data model, fitted with the
    run's ``train`` settings; nothing is fitted here.
    """
    proximity = 1.0 - 2.0 * np.abs(predict_probs(pilot, data.features) - 0.5)
    return 1.0 + np.linalg.norm(data.features, axis=1) * proximity


def select_coreset(
    data: LabeledDataset, size: int, weights: np.ndarray | None, rng: np.random.Generator
) -> LabeledDataset:
    """Pick ``size`` points without replacement, with probability proportional to ``weights``.

    ``weights`` of None picks uniformly; :func:`sensitivity_scores` gives the
    sensitivity weights.  Indices are sorted, so the subset preserves dataset
    order.  ``size == N`` returns the dataset unchanged.
    """
    n = data.num_points
    if check_int("coreset size", size, 1, n) == n:
        return data
    p = None if weights is None else weights / weights.sum()
    idx = rng.choice(n, size=size, replace=False, p=p)
    return data.subset(np.sort(idx))


def knn_order(data: LabeledDataset, query, k: int) -> np.ndarray:
    """Indices of the ``k`` points nearest ``query`` in Euclidean distance, nearest first.

    Exact distance ties are broken by dataset index, lowest first.
    """
    query = np.asarray(query, dtype=float)
    if query.ndim != 1 or query.size != data.dim or not np.all(np.isfinite(query)):
        raise ParameterError(f"query must be a finite vector of dimension {data.dim}")
    k = check_int("k", k, 1, data.num_points)
    diffs = data.features - query
    sq_dists = np.square(diffs, out=diffs).sum(axis=1)
    # Points within the k-th smallest distance, ties included, sorted stably by distance.
    near = np.flatnonzero(sq_dists <= np.partition(sq_dists, k - 1)[k - 1])
    return near[np.argsort(sq_dists[near], kind="stable")[:k]]


def knn_select(data: LabeledDataset, query, k: int) -> LabeledDataset:
    """The points :func:`knn_order` picks, in its order."""
    return data.subset(knn_order(data, query, k))

