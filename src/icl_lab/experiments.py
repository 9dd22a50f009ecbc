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

The three counts kinds (textgen, bounded_textgen, subset_penalty) share
:func:`_counts_measure`; subset_penalty is its one-context case over a size grid.

Trials may execute in parallel; the ``ICL_LAB_THREADS`` environment variable
caps the worker count (default 1).
"""

from __future__ import annotations

import dataclasses
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

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
    fit_logistic_stack,
    knn_order,
    predict_probs,
    select_coreset,
    sensitivity_scores,
    sigmoid,
    train_logistic,
)
from .distributions import (
    CategoricalDistribution,
    l1_distance,
    random_distribution,
    sample_counts,
)
from .errors import (
    DivergenceError,
    ParameterError,
    check_int,
    check_real,
    from_object,
    load_json_object,
)
from .oracle import (
    DEFAULT_SEQUENCE_LIMIT,
    EtaModel,
    icl_counts_dist,
    mix_probability,
    sequence_space,
)
from .reports import (
    BoundReport,
    TrialResult,
    build_report,
    csv_sibling,
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
        path = self.output_path
        if path is not None:
            if not isinstance(path, str):
                raise ParameterError(f"output_path must be null or a string, got {path!r}")
            csv_sibling(path)
        if self.seed >= 2**64:
            raise ParameterError(f"seed must be in [0, 2**64), got {self.seed}")
        if self.mode not in MODES:
            raise ParameterError(f"unknown bound mode {self.mode!r}; expected one of {MODES}")
        for name in ("concentration", "planted_norm"):
            check_real(name, getattr(self, name))
            if getattr(self, name) <= 0:
                raise ParameterError(f"{name} must be positive, got {getattr(self, name)}")
        if self.coreset_strategy not in ("uniform", "sensitivity"):
            raise ParameterError(f"unknown coreset_strategy {self.coreset_strategy!r}")
        for name in ("coreset_sizes", "knn_sizes", "subset_sizes"):
            sizes = getattr(self, name)
            if sizes is None and name != "subset_sizes":  # null: the calculator's size
                continue
            if not isinstance(sizes, (list, tuple)) or not sizes:
                raise ParameterError(f"{name} must be a non-empty list of integers, got {sizes!r}")
            object.__setattr__(self, name, tuple(check_int(f"{name} entries", v, 1) for v in sizes))

    def resolved_eval_points(self) -> int:
        if self.eval_points is not None:
            return self.eval_points
        return DEFAULT_EVAL_POINTS[self.kind]

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
        return cls.from_dict(load_json_object(path, "config file"))


def max_workers() -> int:
    """Worker cap from ``ICL_LAB_THREADS``, an integer >= 1; 1 when unset."""
    raw = os.environ.get(THREADS_ENV_VAR, "").strip()
    if not raw:
        return 1
    try:
        workers = int(raw)
    except ValueError as exc:
        raise ParameterError(f"{THREADS_ENV_VAR} must be an integer, got {raw!r}") from exc
    return check_int(THREADS_ENV_VAR, workers, 1)


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
        medians = {value: _median(errs) for value, errs in sorted(grouped.items())}
        extras[medians_key] = {str(k): v for k, v in medians.items()}
        if slope:
            points = [(k, v) for k, v in medians.items() if v > 0]
            extras["log_log_slope"] = fit_log_log_slope(*zip(*points)) if len(points) >= 2 else None

    # The echoed config describes the experiment, not the delivery location,
    # so reports written to different paths stay byte-identical.
    echo = dict(cfg.to_dict(), output_path=None)
    report = build_report(echo, rows, cfg.params.delta, extras)
    if cfg.output_path is not None:
        write_json_report(report, cfg.output_path)
        write_csv_report(report, csv_sibling(cfg.output_path))
    return report


def _median(values: list[float]) -> float:
    """``np.median`` of ``values``, without the ``numpy.ma`` import it costs."""
    if any(math.isnan(v) for v in values):
        return math.nan
    ordered = sorted(values)
    mid = len(ordered) // 2
    return float(ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2)


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
    n = cfg.samples_override or bound.per_context
    extras = {
        "samples_per_context": n,
        "total_samples_per_trial": n * p.num_contexts,
        "bound_formula": bound.formula_text,
        "bound_mode": cfg.mode,
    }
    return _run_sweep(cfg, _counts_measure(cfg, p.vocab_size, p.num_contexts, (n,)), extras)


def run_bounded_textgen_experiment(cfg: ExperimentConfig) -> BoundReport:
    """Same check as :func:`run_textgen_experiment` but over the joint
    distribution of length-l sequences, estimated from whole-sequence samples."""
    _require_kind(cfg, "bounded_textgen")
    p = cfg.params
    space = sequence_space(p.vocab_size, p.output_len, cfg.sequence_limit)
    n = cfg.samples_override or bounded_textgen_size(p)
    extras = {
        "samples_per_context": n,
        "sequence_space": space,
        "constant": p.constant,
    }
    return _run_sweep(cfg, _counts_measure(cfg, space, p.num_contexts, (n,)), extras)


def _counts_measure(cfg: ExperimentConfig, support: int, contexts: int, sizes: tuple[int, ...]):
    """``measure(rng)`` of the three counts kinds: per sorted size n, the worst L1
    error over ``contexts`` random truths on ``support`` outcomes, each estimated
    from the counts of n i.i.d. draws.  A context's errors are listed, so its
    counts are freed before the next truth is drawn: O(support) memory.
    """

    def measure(rng):
        worst = [0.0] * len(sizes)  # L1 errors are non-negative
        for _ in range(contexts):
            truth = random_distribution(support, cfg.concentration, rng)
            errors = [
                l1_distance(icl_counts_dist(c, cfg.eta), truth)
                for c in nested_counts(truth, sizes, rng)
            ]
            worst = [max(w, e) for w, e in zip(worst, errors)]
        yield from ((error, "") for error in worst)

    return measure


def nested_counts(dist: CategoricalDistribution, sizes, rng: np.random.Generator):
    """Yield the count vectors of nested i.i.d. samples of the sorted ``sizes``.

    Each size after the first adds a ``Multinomial(n_k - n_{k-1}, p)`` draw to
    the previous counts, which gives the joint law of one token stream's prefixes.
    """
    counts, drawn = None, 0
    for n in sizes:
        if n > drawn:
            draw = sample_counts(dist, n - drawn, rng)
            counts = draw if counts is None else counts + draw
            drawn = n
        yield counts


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
    """Train on coresets of swept sizes of knn's planted logistic task and compare
    predicted probabilities against the full-data model over a large evaluation cloud."""
    _require_kind(cfg, "coreset")
    p = cfg.params
    sizes = _within_dataset(cfg, cfg.coreset_sizes or (coreset_size(p),))
    eval_draws = cfg.resolved_eval_points()

    def measure(rng):
        data, _ = planted_linear_dataset(cfg.dataset_size, p.input_dim, cfg.planted_norm, rng)
        # The pilot fit behind the scores draws nothing from rng.
        weights = sensitivity_scores(data) if cfg.coreset_strategy == "sensitivity" else None
        full_model = train_logistic(data, cfg.train)
        # The cloud follows the generator's own input law.
        eval_points = np.vstack([rng.standard_normal((eval_draws, p.input_dim)), data.features])
        full_probs = predict_probs(full_model, eval_points)
        for size in sizes:
            core = select_coreset(data, size, weights, rng)
            try:
                local_model = full_model if core is data else train_logistic(core, cfg.train)
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


# Largest design tensor, (fits, k, d + 1) float64, that one stacked knn fit holds.
STACK_BYTES = 256 * 1024


def _fit_neighbourhoods(data: LabeledDataset, neighbours: np.ndarray, train: TrainConfig):
    """The (queries, d + 1) ``theta = (w, b)`` array of one logistic fit per row
    of the (queries, k) index array ``neighbours``.

    The fits run as stacks of at most :data:`STACK_BYTES` of design tensor.
    """
    num, k = neighbours.shape
    per_stack = max(1, STACK_BYTES // (8 * k * (data.dim + 1)))
    stacks = (neighbours[i : i + per_stack] for i in range(0, num, per_stack))
    return np.concatenate(
        [fit_logistic_stack(data.features[s], data.labels[s], train) for s in stacks]
    )


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
        # Neighbours come nearest first, so each k fits prefixes of one ranking per query.
        ranked = np.stack([knn_order(data, query, max(ks)) for query in queries])
        for k in ks:
            thetas = _fit_neighbourhoods(data, ranked[:, :k], cfg.train)
            # A batched matmul, unlike einsum, gives each query's w.x bit for bit.
            logits = (thetas[:, None, :-1] @ queries[:, :, None])[:, 0, 0] + thetas[:, -1]
            errors = np.abs(mix_probability(sigmoid(logits), cfg.eta) - truth)
            labels = data.labels[ranked[:, :k]]
            degenerate = int(np.count_nonzero(np.all(labels == labels[:, :1], axis=1)))
            detail = f"{degenerate} single-class neighborhoods" if degenerate else ""
            yield float(np.max(errors)), detail

    extras = {"k_values": list(ks), "queries_per_trial": queries_per_trial}
    return _run_sweep(cfg, measure, extras, ks, medians_key="median_sup_error_by_k", slope=True)


def run_subset_penalty_experiment(cfg: ExperimentConfig) -> BoundReport:
    """Textgen's measure with one context over a size grid: error versus sample
    count, and its log-log decay slope (about -1/2 for i.i.d. sampling)."""
    _require_kind(cfg, "subset_penalty")
    p = cfg.params
    sizes = tuple(sorted(cfg.subset_sizes))

    def allowed(n: int) -> float:
        return subset_penalty(n, p.constant) + 2.0 * cfg.eta.eta

    measure = _counts_measure(cfg, p.vocab_size, 1, sizes)
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
