"""Monte Carlo verification runs for every sample-size rule.

The five runners share one sweep skeleton, :func:`_run_sweep`.  A runner
checks its kind, resolves its sweep (subset sizes, values of ``k``, or
``(None,)`` for the two textgen kinds) and supplies ``measure(rng)``, which
yields one ``(error, detail)`` pair per swept value.  The skeleton owns the
rest:

* trial ``i`` draws all of its randomness from ``trial_rng(seed, i)``, so
  results do not depend on execution order and the whole run is a pure
  function of the config;
* row ``j`` of trial ``i`` is numbered ``i * len(sweep) + j`` and fails when
  its error exceeds the allowed error, ``epsilon + 2 * eta`` unless the
  runner gives one per swept value;
* the per-value medians, their log-log slope and the report.

Trials may execute in parallel; the ``ICL_LAB_THREADS`` environment variable
caps the worker count (default 1).
"""

from __future__ import annotations

import dataclasses
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bounds import (
    MODE_EXACT,
    MODES,
    BoundParams,
    bounded_textgen_size,
    coreset_size,
    knn_context_size,
    subset_penalty,
    textgen_samples_per_context,
)
from .classify import (
    LabeledDataset,
    LinearModel,
    TrainConfig,
    knn_select,
    predict_prob,
    predict_probs,
    select_coreset,
    sensitivity_scores,
    train_logistic,
)
from .distributions import (
    CategoricalDistribution,
    l1_distance,
    random_distribution,
    sample_counts,
)
from .errors import DivergenceError, ParameterError, check_int, check_real, from_object
from .oracle import DEFAULT_SEQUENCE_LIMIT, EtaModel, icl_counts_dist, mix_probability
from .reports import (
    BoundReport,
    TrialResult,
    build_report,
    fit_log_log_slope,
    write_csv_report,
    write_json_report,
)

KINDS = ("textgen", "bounded_textgen", "coreset", "knn", "subset_penalty")
THREADS_ENV_VAR = "ICL_LAB_THREADS"

# Evaluation-set sizes used when the config leaves eval_points unset:
# classification sup errors scan a large point cloud, k-NN trains one local
# model per query so its default is small.
DEFAULT_EVAL_POINTS = {"coreset": 10_000, "knn": 16}


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one verification run (see README for the JSON schema)."""

    kind: str
    params: BoundParams
    trials: int = 100
    seed: int = 0
    eta: EtaModel = EtaModel.none()
    eval_points: int | None = None
    output_path: str | None = None
    mode: str = MODE_EXACT
    concentration: float = 1.0
    samples_override: int | None = None
    dataset_size: int = 2000
    cluster_separation: float = 1.5
    noise_scale: float = 1.0
    planted_norm: float = 2.0
    coreset_strategy: str = "uniform"
    coreset_sizes: tuple[int, ...] | None = None
    knn_sizes: tuple[int, ...] = (16, 64, 256, 1024)
    subset_sizes: tuple[int, ...] = (100, 1000, 10_000, 100_000)
    train: TrainConfig = TrainConfig()
    sequence_limit: int = DEFAULT_SEQUENCE_LIMIT

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterError(f"unknown experiment kind {self.kind!r}; expected one of {KINDS}")
        for name, low in (("trials", 1), ("seed", 0), ("dataset_size", 2), ("sequence_limit", 1)):
            check_int(name, getattr(self, name), low)
        for name in ("eval_points", "samples_override"):
            if getattr(self, name) is not None:
                check_int(name, getattr(self, name), 1)
        if self.seed >= 2**64:
            raise ParameterError(f"seed must be in [0, 2**64), got {self.seed}")
        if self.mode not in MODES:
            raise ParameterError(f"unknown bound mode {self.mode!r}; expected one of {MODES}")
        for name in ("concentration", "cluster_separation", "noise_scale", "planted_norm"):
            check_real(name, getattr(self, name))
        if self.concentration <= 0:
            raise ParameterError(f"concentration must be positive, got {self.concentration}")
        if self.cluster_separation < 0 or self.noise_scale <= 0 or self.planted_norm <= 0:
            raise ParameterError("cluster_separation must be >= 0; noise_scale, planted_norm > 0")
        if self.coreset_strategy not in ("uniform", "sensitivity"):
            raise ParameterError(f"unknown coreset_strategy {self.coreset_strategy!r}")
        for name in ("coreset_sizes", "knn_sizes", "subset_sizes"):
            sizes = getattr(self, name)
            if sizes is None:
                continue
            if not isinstance(sizes, (list, tuple)) or not sizes:
                raise ParameterError(f"{name} must be a non-empty list of integers, got {sizes!r}")
            object.__setattr__(self, name, tuple(check_int(f"{name} entries", v, 1) for v in sizes))

    def resolved_eval_points(self) -> int:
        if self.eval_points is not None:
            return self.eval_points
        return DEFAULT_EVAL_POINTS.get(self.kind, 1000)

    def to_dict(self) -> dict:
        raw = dataclasses.asdict(self)
        for key in ("coreset_sizes", "knn_sizes", "subset_sizes"):
            if raw[key] is not None:
                raw[key] = list(raw[key])
        return raw

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        data = dict(data)
        for name, section in (("params", BoundParams), ("eta", EtaModel), ("train", TrainConfig)):
            if name in data and not isinstance(data[name], section):
                data[name] = from_object(section, data[name], f"config section '{name}'")
        return from_object(cls, data, "config")

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as handle:
            try:
                payload = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ParameterError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ParameterError(f"config file {path} must contain a JSON object")
        return cls.from_dict(payload)


def max_workers() -> int:
    """Worker cap from ``ICL_LAB_THREADS``; 1 when unset."""
    raw = os.environ.get(THREADS_ENV_VAR, "").strip()
    if not raw:
        return 1
    try:
        return max(1, int(raw))
    except ValueError as exc:
        raise ParameterError(f"{THREADS_ENV_VAR} must be an integer, got {raw!r}") from exc


def trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    """Independent stream for trial ``trial_index``, a pure function of (seed, index)."""
    root = np.random.SeedSequence(entropy=seed, spawn_key=(trial_index,))
    return np.random.default_rng(root)


def _run_sweep(
    cfg: ExperimentConfig,
    measure,
    extras: dict,
    sweep: tuple = (None,),
    allowed=None,
    medians_key: str | None = None,
    slope: bool = False,
) -> BoundReport:
    """Run every trial of ``cfg``; build its report and write it to ``output_path``.

    ``measure(rng)`` yields one ``(error, detail)`` pair per value of
    ``sweep``, drawing only from the trial's stream.  Row ``j`` of trial ``i``
    is numbered ``i * len(sweep) + j`` and fails when its error exceeds
    ``allowed(value)``; by default that is ``epsilon + 2 * eta``, echoed as
    ``extras["failure_threshold"]``.  With ``medians_key`` the median error
    per swept value lands in that extras key, and with ``slope`` their log-log
    slope lands in ``extras["log_log_slope"]``.
    """
    extras = dict(extras)
    if allowed is None:
        threshold = cfg.params.epsilon + 2.0 * cfg.eta.eta
        extras["failure_threshold"] = threshold

        def allowed(value):
            return threshold

    def one_trial(i: int) -> list[TrialResult]:
        pairs = zip(sweep, measure(trial_rng(cfg.seed, i)), strict=True)
        return [
            TrialResult(i * len(sweep) + j, error, error > allowed(value), value, detail)
            for j, (value, (error, detail)) in enumerate(pairs)
        ]

    workers = max_workers()
    if workers == 1:
        nested = [one_trial(i) for i in range(cfg.trials)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            nested = list(pool.map(one_trial, range(cfg.trials)))
    rows = [row for trial_rows in nested for row in trial_rows]

    if medians_key is not None:
        grouped: dict[int, list[float]] = {}
        for row in rows:
            grouped.setdefault(row.sweep_value, []).append(row.sup_error)
        medians = {value: float(np.median(errs)) for value, errs in sorted(grouped.items())}
        extras[medians_key] = {str(k): v for k, v in medians.items()}
        if slope:
            points = [(k, v) for k, v in medians.items() if v > 0]
            extras["log_log_slope"] = fit_log_log_slope(*zip(*points)) if len(points) >= 2 else None

    # The echoed config describes the experiment, not the delivery location,
    # so reports written to different paths stay byte-identical.
    echo = dict(cfg.to_dict(), output_path=None)
    report = build_report(echo, rows, cfg.params.delta, extras)
    if cfg.output_path is not None:
        json_path = Path(cfg.output_path)
        write_json_report(report, json_path)
        write_csv_report(report, json_path.with_suffix(".csv"))
    return report


def _within_dataset(cfg: ExperimentConfig, sizes: tuple[int, ...]) -> tuple[int, ...]:
    """The swept subset sizes, each of which must fit in the dataset."""
    if max(sizes) > cfg.dataset_size:
        raise ParameterError(f"{cfg.kind} sizes {sizes} exceed dataset_size {cfg.dataset_size}")
    return sizes


def run_textgen_experiment(cfg: ExperimentConfig) -> BoundReport:
    """Estimate every context's next-token distribution from samples; check the
    worst-context L1 error against epsilon with the promised failure rate."""
    _require_kind(cfg, "textgen")
    p = cfg.params
    if p.vocab_size < 2:
        raise ParameterError(f"textgen needs vocab_size >= 2, got {p.vocab_size}")
    bound = textgen_samples_per_context(p, cfg.mode)
    per_context = cfg.samples_override or bound.per_context
    extras = {
        "samples_per_context": per_context,
        "total_samples_per_trial": per_context * p.num_contexts,
        "bound_formula": bound.formula_text,
        "bound_mode": cfg.mode,
    }
    return _run_sweep(cfg, _sup_l1_measure(cfg, p.vocab_size, per_context), extras)


def run_bounded_textgen_experiment(cfg: ExperimentConfig) -> BoundReport:
    """Same check as :func:`run_textgen_experiment` but over the joint
    distribution of length-l sequences, estimated from whole-sequence samples."""
    _require_kind(cfg, "bounded_textgen")
    p = cfg.params
    space = p.vocab_size**p.output_len
    if space > cfg.sequence_limit:
        raise ParameterError(
            f"sequence space {p.vocab_size}^{p.output_len} = {space} exceeds the "
            f"limit {cfg.sequence_limit}"
        )
    samples_per_context = cfg.samples_override or bounded_textgen_size(p)
    extras = {
        "samples_per_context": samples_per_context,
        "sequence_space": space,
        "constant": p.constant,
    }
    return _run_sweep(cfg, _sup_l1_measure(cfg, space, samples_per_context), extras)


def _sup_l1_measure(cfg: ExperimentConfig, support: int, n: int):
    """``measure(rng)`` of the textgen kinds: the responder's worst L1 error over
    ``num_contexts`` random truths on ``support`` outcomes, each estimated from
    the counts of ``n`` i.i.d. draws.

    Contexts stream: context i's truth is drawn, then its counts, and it is
    scored and dropped before context i + 1, so a trial holds O(support) memory.
    """

    def measure(rng):
        truths = (
            random_distribution(support, cfg.concentration, rng)
            for _ in range(cfg.params.num_contexts)
        )
        errs = (l1_distance(icl_counts_dist(sample_counts(t, n, rng), cfg.eta), t) for t in truths)
        yield max(errs), ""

    return measure


def nested_counts(dist: CategoricalDistribution, sizes, rng: np.random.Generator):
    """Yield the count vectors of nested i.i.d. samples of the sorted ``sizes``.

    Each size adds a ``Multinomial(n_k - n_{k-1}, p)`` draw to the previous
    counts, which gives the joint law of the counts of one token stream's prefixes.
    """
    counts = np.zeros(dist.size, dtype=np.int64)
    drawn = 0
    for n in sizes:
        if n > drawn:
            counts = counts + sample_counts(dist, n - drawn, rng)
            drawn = n
        yield counts


def cluster_dataset(
    n: int, dim: int, separation: float, noise: float, rng: np.random.Generator
) -> tuple[LabeledDataset, LinearModel]:
    """Two symmetric Gaussian blobs at +/- separation along the first axis.

    Labels mark the generating blob.  The posterior class-1 probability is
    exactly logistic with weights ``2 * separation / noise^2`` on the first
    coordinate, returned as the planted reference model.
    """
    labels = rng.integers(0, 2, size=n)
    centers = np.zeros((n, dim))
    centers[:, 0] = (2 * labels - 1) * separation
    features = centers + noise * rng.standard_normal((n, dim))
    planted_w = np.zeros(dim)
    planted_w[0] = 2.0 * separation / noise**2
    return LabeledDataset(features, labels), LinearModel(planted_w, 0.0)


def planted_linear_dataset(
    n: int, dim: int, weight_norm: float, rng: np.random.Generator
) -> tuple[LabeledDataset, LinearModel]:
    """Standard-normal inputs with Bernoulli labels from a planted logistic model."""
    direction = rng.standard_normal(dim)
    direction /= np.linalg.norm(direction)
    planted = LinearModel(weight_norm * direction, 0.0)
    features = rng.standard_normal((n, dim))
    probs = predict_probs(planted, features)
    labels = (rng.random(n) < probs).astype(np.int64)
    return LabeledDataset(features, labels), planted


def run_coreset_experiment(cfg: ExperimentConfig) -> BoundReport:
    """Train on coresets of swept sizes and compare predicted probabilities
    against the full-data model over a large evaluation cloud."""
    _require_kind(cfg, "coreset")
    p = cfg.params
    sizes = _within_dataset(cfg, cfg.coreset_sizes or (coreset_size(p),))
    eval_draws = cfg.resolved_eval_points()

    def measure(rng):
        data, _ = cluster_dataset(
            cfg.dataset_size, p.input_dim, cfg.cluster_separation, cfg.noise_scale, rng
        )
        # The pilot fit behind the scores draws nothing from rng.
        weights = sensitivity_scores(data) if cfg.coreset_strategy == "sensitivity" else None
        full_model = train_logistic(data, cfg.train)
        eval_cloud, _ = cluster_dataset(
            eval_draws, p.input_dim, cfg.cluster_separation, cfg.noise_scale, rng
        )
        eval_points = np.vstack([eval_cloud.features, data.features])
        full_probs = predict_probs(full_model, eval_points)
        for size in sizes:
            core = select_coreset(data, size, weights, rng)
            try:
                local_model = train_logistic(core, cfg.train)
            except DivergenceError as exc:
                yield float("inf"), str(exc)
                continue
            local_probs = mix_probability(predict_probs(local_model, eval_points), cfg.eta)
            detail = "single-class subset; guarantee vacuous" if core.is_single_class() else ""
            yield float(np.max(np.abs(local_probs - full_probs))), detail

    extras = {
        "sizes": list(sizes),
        "strategy": cfg.coreset_strategy,
        "eval_points": eval_draws + cfg.dataset_size,
    }
    return _run_sweep(cfg, measure, extras, sizes, medians_key="median_sup_error_by_size")


def run_knn_experiment(cfg: ExperimentConfig) -> BoundReport:
    """Per-query local models on k nearest neighbors, compared to the planted
    model; sweeps k and fits the error-decay slope."""
    _require_kind(cfg, "knn")
    p = cfg.params
    ks = _within_dataset(cfg, cfg.knn_sizes or (knn_context_size(p),))
    queries_per_trial = cfg.resolved_eval_points()

    def measure(rng):
        data, planted = planted_linear_dataset(
            cfg.dataset_size, p.input_dim, cfg.planted_norm, rng
        )
        queries = rng.standard_normal((queries_per_trial, p.input_dim))
        truth = predict_probs(planted, queries)
        errors = np.zeros((len(ks), queries_per_trial))
        single = np.zeros((len(ks), queries_per_trial), dtype=bool)
        for q, query in enumerate(queries):
            # Neighbours come nearest first, so each k takes a prefix of one sort.
            ranked = knn_select(data, query, max(ks))
            for j, k in enumerate(ks):
                neighborhood = LabeledDataset(ranked.features[:k], ranked.labels[:k])
                single[j, q] = neighborhood.is_single_class()
                prob = predict_prob(train_logistic(neighborhood, cfg.train), query)
                errors[j, q] = abs(mix_probability(prob, cfg.eta) - truth[q])
        for worst, degenerate in zip(errors.max(axis=1), single.sum(axis=1)):
            yield float(worst), f"{degenerate} single-class neighborhoods" if degenerate else ""

    extras = {"k_values": list(ks), "queries_per_trial": queries_per_trial}
    return _run_sweep(cfg, measure, extras, ks, medians_key="median_sup_error_by_k", slope=True)


def run_subset_penalty_experiment(cfg: ExperimentConfig) -> BoundReport:
    """Single-context estimation error versus sample count: sweeps a size grid
    and fits the log-log decay slope (about -1/2 for i.i.d. sampling)."""
    _require_kind(cfg, "subset_penalty")
    p = cfg.params
    sizes = tuple(sorted(cfg.subset_sizes))

    def measure(rng):
        truth = random_distribution(p.vocab_size, cfg.concentration, rng)
        for counts in nested_counts(truth, sizes, rng):
            yield l1_distance(icl_counts_dist(counts, cfg.eta), truth), ""

    def allowed(n: int) -> float:
        return subset_penalty(n, p.constant) + 2.0 * cfg.eta.eta

    extras = {"subset_sizes": list(sizes), "penalty_constant": p.constant}
    return _run_sweep(
        cfg, measure, extras, sizes, allowed, medians_key="median_l1_by_size", slope=True
    )


_RUNNERS = {
    "textgen": run_textgen_experiment,
    "bounded_textgen": run_bounded_textgen_experiment,
    "coreset": run_coreset_experiment,
    "knn": run_knn_experiment,
    "subset_penalty": run_subset_penalty_experiment,
}


def run_experiment(cfg: ExperimentConfig) -> BoundReport:
    """Dispatch to the runner matching ``cfg.kind``."""
    return _RUNNERS[cfg.kind](cfg)


def _require_kind(cfg: ExperimentConfig, kind: str):
    if cfg.kind != kind:
        raise ParameterError(f"config kind is {cfg.kind!r}, expected {kind!r}")
