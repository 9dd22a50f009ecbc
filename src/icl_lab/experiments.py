"""Monte Carlo verification runs for every sample-size rule.

:func:`run_experiment` runs a config with its kind's entry of ``_RUNNERS``,
and those five runners share one sweep skeleton, :func:`_run_sweep`.  A runner
resolves its sweep (subset sizes, values of ``k``, or ``(None,)`` for the two
textgen kinds) and supplies ``measure(rngs)``: given the streams of a batch of
consecutive trials, it yields per trial one ``(error, detail)`` pair per swept
value.  knn and the three counts kinds measure one trial at a time, in batches
of one (:func:`_per_trial`); coreset takes as many trials as one stack of its
largest fitted coreset holds, so that it fits each swept size across the batch
as one stacked solve.  The skeleton owns the rest:

* trial ``i`` draws all of its randomness from ``trial_rng(seed, i)``, so
  results depend neither on batching nor on execution order, and the whole
  run is a pure function of the config;
* row ``j`` of trial ``i`` is numbered ``i * len(sweep) + j`` and fails when
  its error exceeds the allowed error, ``epsilon + 2 * eta`` unless the
  runner gives one per swept value;
* the per-value medians, their log-log slope and the report.

The three counts kinds (textgen, bounded_textgen, subset_penalty) share
:func:`_counts_measure`; subset_penalty is its one-context case over a size grid.

Batches may execute in parallel; the ``ICL_LAB_THREADS`` environment variable
caps the worker count (default 1).
"""

from __future__ import annotations

import dataclasses
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

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
from .distributions import dirichlet_gammas, nested_counts, normalized_rows
from .errors import (
    DivergenceError,
    ParameterError,
    check_int,
    check_real,
    from_object,
    load_json_object,
)
from .oracle import EtaModel, icl_counts_rows, mix_with_uniform, sequence_space
from .reports import (
    BoundReport,
    TrialResult,
    build_report,
    csv_sibling,
    fit_log_log_slope,
    report_files,
    write_csv_report,
    write_json_report,
)

# Largest stacked float64 array: a counts block's (contexts, support) rows, or
# one stacked logistic fit's (fits, points, d + 1) design tensor.
STACK_BYTES = 256 * 1024

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

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterError(f"unknown experiment kind {self.kind!r}; expected one of {KINDS}")
        for name, low in (("trials", 1), ("seed", 0), ("dataset_size", 2)):
            object.__setattr__(self, name, check_int(name, getattr(self, name), low))
        for name in ("eval_points", "samples_override"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, check_int(name, getattr(self, name), 1))
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
            object.__setattr__(self, name, check_real(name, getattr(self, name)))
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
            sizes = tuple(check_int(f"{name} entries", v, 1) for v in sizes)
            if len(set(sizes)) < len(sizes):
                raise ParameterError(f"{name} must not repeat a size, got {list(sizes)}")
            object.__setattr__(self, name, sizes)
        counts_kind = self.kind in ("textgen", "bounded_textgen", "subset_penalty")
        if counts_kind and self.params.vocab_size < 2:
            raise ParameterError(f"{self.kind} needs vocab_size >= 2, got {self.params.vocab_size}")

    def resolved_eval_points(self) -> int:
        if self.eval_points is not None:
            return self.eval_points
        return DEFAULT_EVAL_POINTS[self.kind]

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

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
    batch: int = 1,
) -> BoundReport:
    """Run every trial of ``cfg``; build its report and write it to ``output_path``.

    The trials run in batches of ``batch`` consecutive ones.  ``measure(rngs)``
    yields, per stream of ``rngs``, one ``(error, detail)`` pair per value of
    ``sweep``, and each trial draws only from its own stream.  Row ``j`` of
    trial ``i`` is numbered ``i * len(sweep) + j`` and fails when its error
    exceeds ``allowed(value)``; by default that is ``epsilon + 2 * eta``, echoed
    as ``extras["failure_threshold"]``.  With ``medians_key`` the median error
    per swept value lands in that extras key, and with ``slope`` their log-log
    slope lands in ``extras["log_log_slope"]``.
    """
    extras = dict(extras)
    if allowed is None:
        threshold = cfg.params.epsilon + 2.0 * cfg.eta.eta
        extras["failure_threshold"] = threshold

        def allowed(value):
            return threshold

    def one_batch(start: int) -> list[TrialResult]:
        indices = range(start, min(start + batch, cfg.trials))
        per_trial = measure([trial_rng(cfg.seed, i) for i in indices])
        return [
            TrialResult(i * len(sweep) + j, error, error > allowed(value), value, detail)
            for i, pairs in zip(indices, per_trial, strict=True)
            for j, (value, (error, detail)) in enumerate(zip(sweep, pairs, strict=True))
        ]

    with report_files(cfg.output_path) if cfg.output_path is not None else nullcontext() as temps:
        workers = max_workers()
        starts = range(0, cfg.trials, batch)
        if workers == 1:
            nested = [one_batch(start) for start in starts]
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                nested = list(pool.map(one_batch, starts))
        rows = [row for batch_rows in nested for row in batch_rows]

        if medians_key is not None:
            grouped: dict[int, list[float]] = {}
            for row in rows:
                grouped.setdefault(row.sweep_value, []).append(row.sup_error)
            medians = {value: _median(errs) for value, errs in sorted(grouped.items())}
            extras[medians_key] = {str(k): v for k, v in medians.items()}
            if slope:
                points = [(k, v) for k, v in medians.items() if v > 0]
                fit = fit_log_log_slope(*zip(*points)) if len(points) >= 2 else None
                extras["log_log_slope"] = fit

        # The echoed config describes the experiment, not the delivery location,
        # so reports written to different paths stay byte-identical.
        echo = dict(cfg.to_dict(), output_path=None)
        report = build_report(echo, rows, cfg.params.delta, extras)
        if temps is not None:
            write_json_report(report, temps[0])
            write_csv_report(report, temps[1])
    return report


def _per_trial(measure):
    """The batch ``measure(rngs)`` of a runner whose ``measure(rng)`` takes one trial."""
    return partial(map, measure)


def _median(values: list[float]) -> float:
    """``np.median`` of ``values``, which hold no NaN (``TrialResult`` refuses one),
    without the ``numpy.ma`` import it costs."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    return float(ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2)


def _within_dataset(cfg: ExperimentConfig, sizes: tuple[int, ...]) -> tuple[int, ...]:
    """The swept subset sizes, each of which must fit in the dataset."""
    if max(sizes) > cfg.dataset_size:
        raise ParameterError(f"{cfg.kind} sizes {sizes} exceed dataset_size {cfg.dataset_size}")
    return sizes


def _run_textgen(cfg: ExperimentConfig) -> BoundReport:
    """Estimate every context's next-token distribution from samples; check the
    worst-context L1 error against epsilon with the promised failure rate."""
    p = cfg.params
    bound = textgen_samples_per_context(p, cfg.mode)
    n = cfg.samples_override or bound.per_context
    extras = {
        "samples_per_context": n,
        "total_samples_per_trial": n * p.num_contexts,
        "bound_formula": bound.formula_text,
        "bound_mode": cfg.mode,
    }
    measure = _counts_measure(cfg, p.vocab_size, p.num_contexts, (n,))
    return _run_sweep(cfg, _per_trial(measure), extras)


def _run_bounded_textgen(cfg: ExperimentConfig) -> BoundReport:
    """Same check as :func:`_run_textgen` but over the joint distribution of
    length-l sequences, estimated from whole-sequence samples."""
    p = cfg.params
    space = sequence_space(p.vocab_size, p.output_len)
    n = cfg.samples_override or bounded_textgen_size(p)
    extras = {
        "samples_per_context": n,
        "sequence_space": space,
        "constant": p.constant,
    }
    measure = _counts_measure(cfg, space, p.num_contexts, (n,))
    return _run_sweep(cfg, _per_trial(measure), extras)


def _counts_measure(cfg: ExperimentConfig, support: int, contexts: int, sizes: tuple[int, ...]):
    """``measure(rng)`` of the three counts kinds: per sorted size n, the worst L1
    error over ``contexts`` random truths on ``support`` outcomes, each estimated
    from the counts of n i.i.d. draws.

    Contexts run in blocks of as many as fit in :data:`STACK_BYTES` per
    (contexts, support) array, and at least one (one once support exceeds 16,384),
    so a trial holds O(block) memory, not O(contexts * support).  A block draws all
    of its truths, then its counts.
    """
    rows = _stack_rows(support)

    def block_error(truths, counts):
        """Worst row of ``l1_distance(icl_counts_dist(counts, eta), truth)``: the
        responder's rows, renormalized once as the distribution is, bit for bit."""
        diff = normalized_rows(icl_counts_rows(counts, cfg.eta))
        diff -= truths
        return np.abs(diff, out=diff).sum(axis=1).max()

    def measure(rng):
        worst = np.zeros(len(sizes))  # L1 errors are non-negative
        for start in range(0, contexts, rows):
            draws = dirichlet_gammas(min(rows, contexts - start), support, cfg.concentration, rng)
            truths = normalized_rows(draws / draws.sum(axis=1, keepdims=True))
            # The draws and the last block's truths go only once the new truths exist:
            # freed earlier, the heap top is trimmed and regrown every block (3x the
            # page faults at V=50,000).
            del draws
            errors = [block_error(truths, c) for c in nested_counts(truths, sizes, rng)]
            worst = np.maximum(worst, errors)
        yield from ((float(error), "") for error in worst)

    return measure


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


def _run_coreset(cfg: ExperimentConfig) -> BoundReport:
    """Train on coresets of swept sizes of knn's planted logistic task and compare
    predicted probabilities against the full-data model over a large evaluation cloud.

    Each trial draws its dataset, fits the full model alone with the run's
    ``train`` settings (a fit draws nothing), weights the points by that model
    under the sensitivity strategy and selects every coreset; each size below
    ``dataset_size`` is then fitted across the batch as one stack.  Last, each
    trial draws its evaluation cloud and is scored, so one cloud is alive at a time.
    """
    p = cfg.params
    sizes = _within_dataset(cfg, cfg.coreset_sizes or (coreset_size(p),))
    eval_draws = cfg.resolved_eval_points()
    # A batch is as many trials as one stack of the largest fitted size holds.
    fitted = [size for size in sizes if size < cfg.dataset_size]
    batch = _stack_rows(max(fitted) * (p.input_dim + 1)) if fitted else 1

    def draw(rng):
        data, _ = planted_linear_dataset(cfg.dataset_size, p.input_dim, cfg.planted_norm, rng)
        full_model = train_logistic(data, cfg.train)
        sensitive = cfg.coreset_strategy == "sensitivity"
        weights = sensitivity_scores(data, full_model) if sensitive else None
        return data, full_model, [select_coreset(data, size, weights, rng) for size in sizes]

    def score(rng, data, full_model, cores, models):
        # The cloud follows the generator's own input law.
        eval_points = np.vstack([rng.standard_normal((eval_draws, p.input_dim)), data.features])
        full_probs = predict_probs(full_model, eval_points)
        for core, model in zip(cores, models):
            if isinstance(model, DivergenceError):
                yield float("inf"), str(model)
                continue
            probs = full_probs if model is full_model else predict_probs(model, eval_points)
            local_probs = mix_with_uniform(probs, cfg.eta, 2)
            detail = "single-class subset; guarantee vacuous" if core.is_single_class() else ""
            yield float(np.max(np.abs(local_probs - full_probs))), detail

    def measure(rngs):
        drawn = [draw(rng) for rng in rngs]
        # Per swept size, one model per trial; the whole dataset's is the full model.
        by_size = [
            _fit_cores([cores[j] for _, _, cores in drawn], cfg.train)
            if size < cfg.dataset_size
            else [full_model for _, full_model, _ in drawn]
            for j, size in enumerate(sizes)
        ]
        for rng, trial, models in zip(rngs, drawn, zip(*by_size)):
            yield score(rng, *trial, models)

    extras = {
        "sizes": list(sizes),
        "strategy": cfg.coreset_strategy,
        "eval_points": eval_draws + cfg.dataset_size,
    }
    return _run_sweep(
        cfg, measure, extras, sizes, medians_key="median_sup_error_by_size", batch=batch
    )


def _fit_cores(cores: list[LabeledDataset], train: TrainConfig) -> list:
    """Per same-sized core, its fitted :class:`LinearModel` or its fit's
    :class:`DivergenceError`.  The cores are fitted as one stack; when the stack
    diverges, each is refitted alone, so each gets exactly its lone outcome."""
    features = np.stack([core.features for core in cores])
    try:
        thetas = fit_logistic_stack(features, np.stack([core.labels for core in cores]), train)
    except DivergenceError as exc:
        if len(cores) == 1:
            return [exc]
        return [model for core in cores for model in _fit_cores([core], train)]
    return [LinearModel(theta[:-1], theta[-1]) for theta in thetas]


def _stack_rows(floats: int) -> int:
    """Rows per stacked array: as many rows of ``floats`` float64 values as fit in
    :data:`STACK_BYTES`, and at least one."""
    return max(1, STACK_BYTES // (8 * floats))


def _fit_neighbourhoods(data: LabeledDataset, neighbours: np.ndarray, train: TrainConfig):
    """The (queries, d + 1) ``theta = (w, b)`` array of one logistic fit per row
    of the (queries, k) index array ``neighbours``, run in stacks of
    :func:`_stack_rows` fits.
    """
    num, k = neighbours.shape
    per_stack = _stack_rows(k * (data.dim + 1))
    stacks = (neighbours[i : i + per_stack] for i in range(0, num, per_stack))
    return np.concatenate(
        [fit_logistic_stack(data.features[s], data.labels[s], train) for s in stacks]
    )


def _run_knn(cfg: ExperimentConfig) -> BoundReport:
    """Per-query local models on k nearest neighbors, compared to the planted
    model; sweeps k and fits the error-decay slope."""
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
            errors = np.abs(mix_with_uniform(sigmoid(logits), cfg.eta, 2) - truth)
            labels = data.labels[ranked[:, :k]]
            degenerate = int(np.count_nonzero(np.all(labels == labels[:, :1], axis=1)))
            detail = f"{degenerate} single-class neighborhoods" if degenerate else ""
            yield float(np.max(errors)), detail

    extras = {"k_values": list(ks), "queries_per_trial": queries_per_trial}
    return _run_sweep(
        cfg, _per_trial(measure), extras, ks, medians_key="median_sup_error_by_k", slope=True
    )


def _run_subset_penalty(cfg: ExperimentConfig) -> BoundReport:
    """Textgen's measure with one context over a size grid: error versus sample
    count, and its log-log decay slope (about -1/2 for i.i.d. sampling)."""
    p = cfg.params
    sizes = tuple(sorted(cfg.subset_sizes))

    def allowed(n: int) -> float:
        return subset_penalty(n, p.constant) + 2.0 * cfg.eta.eta

    measure = _per_trial(_counts_measure(cfg, p.vocab_size, 1, sizes))
    extras = {"subset_sizes": list(sizes), "penalty_constant": p.constant}
    return _run_sweep(
        cfg, measure, extras, sizes, allowed, medians_key="median_l1_by_size", slope=True
    )


_RUNNERS = {
    "textgen": _run_textgen,
    "bounded_textgen": _run_bounded_textgen,
    "coreset": _run_coreset,
    "knn": _run_knn,
    "subset_penalty": _run_subset_penalty,
}
KINDS = tuple(_RUNNERS)


def run_experiment(cfg: ExperimentConfig) -> BoundReport:
    """Run ``cfg`` with its kind's runner; build its report and write it to
    ``cfg.output_path`` when that is set."""
    return _RUNNERS[cfg.kind](cfg)
