"""Benchmark workloads: one ``icl-lab verify`` config per workload.

Each config is an acceptance config of the test suite (criteria 3, 5 and 6) or
the criterion-1 shape, with the trial count cut so that one verify run takes
about one second on a 2-core machine. The benchmark repeats that run many
times and reports means and medians. The workload seed becomes the config's
``seed``; the program sees only the generated config file.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

# Fitting hyperparameters of criteria 5 and 6 (they differ only in l2_reg).
_TRAIN = {"learning_rate": 0.5, "max_iters": 300, "grad_tolerance": 1e-8}


@dataclass(frozen=True)
class Workload:
    config: dict
    # Span names that must fire on every verify run of this workload.
    spans: tuple[str, ...]


_TEXTGEN_SPANS = (
    "experiments.run",
    "distributions.random_task",
    "distributions.sample_tokens",
    "distributions.empirical_distribution",
    "distributions.l1_distance",
    "oracle.icl_textgen_dist",
    "reports.write",
)

WORKLOADS = {
    # Criterion 3: n_i = 44,936 draws per context with V = 20, so n >> V and
    # token sampling dominates the run.
    "textgen_exact": Workload(
        config={
            "kind": "textgen",
            "params": {"epsilon": 0.2, "delta": 0.05, "vocab_size": 20, "num_contexts": 10},
            "trials": 40,
            "mode": "exact",
        },
        spans=_TEXTGEN_SPANS,
    ),
    # Criterion-1 shape (V = 50,000, m = 100) with n = 20,000 < V: costs that
    # scale with V (task generation, bincount, L1) dominate instead.
    "textgen_wide": Workload(
        config={
            "kind": "textgen",
            "params": {"epsilon": 0.1, "delta": 0.01, "vocab_size": 50_000, "num_contexts": 100},
            "trials": 2,
            "mode": "big_o",
            "samples_override": 20_000,
        },
        spans=_TEXTGEN_SPANS,
    ),
    # Criterion 6: 64 small local fits per trial (16 queries x 4 values of k).
    "knn_sweep": Workload(
        config={
            "kind": "knn",
            "params": {"epsilon": 0.2, "delta": 0.05, "input_dim": 5},
            "trials": 1,
            "knn_sizes": [16, 64, 256, 1024],
            "dataset_size": 4096,
            "train": dict(_TRAIN, l2_reg=1e-3),
        },
        spans=(
            "experiments.run",
            "experiments.datagen",
            "classify.knn_select",
            "classify.train_logistic",
            "classify.predict_probs",
            "reports.write",
        ),
    ),
    # Criterion 5 with the sensitivity strategy: few large fits (N = 2000), a
    # pilot fit per swept size and a 12,000-point evaluation per fit.
    "coreset_sensitivity": Workload(
        config={
            "kind": "coreset",
            "params": {"epsilon": 0.25, "delta": 0.05, "input_dim": 5},
            "trials": 5,
            "dataset_size": 2000,
            "coreset_sizes": [25, 100, 400, 2000],
            "coreset_strategy": "sensitivity",
            "train": dict(_TRAIN, l2_reg=1e-2),
        },
        spans=(
            "experiments.run",
            "experiments.datagen",
            "classify.select_coreset",
            "classify.train_logistic",
            "classify.predict_probs",
            "reports.write",
        ),
    ),
}


def make_config(name: str, seed: int) -> dict:
    """The verify config of workload ``name`` at workload seed ``seed``."""
    return dict(copy.deepcopy(WORKLOADS[name].config), seed=seed)


def sweep_length(config: dict) -> int:
    """Report rows per trial: one per swept size for the sweeping kinds."""
    if config["kind"] == "knn":
        return len(config["knn_sizes"])
    if config["kind"] == "coreset":
        return len(config["coreset_sizes"])
    return 1
