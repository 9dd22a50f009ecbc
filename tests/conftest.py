"""Shared fixtures: one tiny config per experiment kind, and a Newton direction
solve that overflows on a subnormal Hessian."""

import numpy as np
import pytest

from icl_lab import BoundParams, ExperimentConfig, TrainConfig

_TRAIN = TrainConfig(max_iters=20, l2_reg=1e-3)

# Sweeps are given out of order, so tests can tell the config's order from a
# sorted one. The tolerances leave most kinds with both passing and failing
# rows, so the failure comparison is exercised both ways.
_TINY = {
    "textgen": dict(
        params=BoundParams(epsilon=0.25, delta=0.05, vocab_size=6, num_contexts=2),
        samples_override=60,
    ),
    "bounded_textgen": dict(
        params=BoundParams(epsilon=0.3, delta=0.05, vocab_size=3, output_len=2, num_contexts=2),
        samples_override=60,
    ),
    "coreset": dict(
        params=BoundParams(epsilon=0.1, delta=0.05, input_dim=2),
        dataset_size=60,
        coreset_sizes=(40, 10),
        eval_points=50,
        train=_TRAIN,
    ),
    "knn": dict(
        params=BoundParams(epsilon=0.1, delta=0.05, input_dim=2),
        dataset_size=60,
        knn_sizes=(32, 8),
        eval_points=3,
        train=_TRAIN,
    ),
    "subset_penalty": dict(
        params=BoundParams(epsilon=1.0, delta=0.05, vocab_size=6, constant=2.0),
        subset_sizes=(400, 20, 100),
    ),
}


@pytest.fixture
def tiny_config():
    """``make(kind, **overrides)`` builds a three-trial config of ``kind``."""

    def make(kind: str, **overrides) -> ExperimentConfig:
        return ExperimentConfig(kind=kind, trials=3, seed=5, **dict(_TINY[kind], **overrides))

    return make


@pytest.fixture
def unfloored_directions(monkeypatch):
    """Patches the logistic fits' Newton direction solve to one whose eigenvalue
    cutoff is not floored at the smallest normal float: it inverts a subnormal
    eigenvalue, so a saturating fit's direction overflows and no line-search step
    has a finite loss, which raises the fit's divergence."""

    def directions(hessians, grads):
        values, vectors = np.linalg.eigh(hessians)
        magnitudes = np.abs(values)
        cutoff = magnitudes.max(axis=1, keepdims=True) * (np.finfo(float).eps * values.shape[1])
        inverse = 1.0 / np.where(magnitudes > cutoff, values, np.inf)
        coords = (grads[:, None, :] @ vectors)[:, 0] * inverse
        return (vectors @ coords[:, :, None])[..., 0]

    monkeypatch.setattr("icl_lab.classify._min_norm_directions", directions)
