"""Monte Carlo verification runs for every sample-size rule.

:func:`run_experiment` runs a config with its kind's entry of ``_RUNNERS``,
and those five runners share one sweep skeleton, :func:`_run_sweep`.  A runner
resolves its sweep (subset sizes, values of ``k``, or ``(None,)`` for the two
textgen kinds) and supplies ``measure(rngs)`` and the trials per batch: knn
measures one trial at a time; coreset takes as many trials as one stack of its
largest fitted coreset holds, so that it fits each swept size across the batch
as one stacked solve; the three counts kinds (textgen, bounded_textgen,
subset_penalty) take both from :func:`_counts_measure`.

Trial ``i`` draws all of its randomness from ``trial_rng(seed, i)``, so results
depend neither on how trials are batched nor on execution order, and the whole
run is a pure function of the config.  Batches may execute in parallel, up to
:func:`max_workers` at a time.
"""

from __future__ import annotations

import dataclasses
import os
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
from .distributions import add_counts, check_draw_sizes, dirichlet_rows, write_counts
from .errors import DivergenceError, ParameterError, check_int, check_real, from_object, shown
from .oracle import check_eta, icl_counts_rows, mix_with_uniform, sequence_space
from .reports import (
    BoundReport,
    TrialResult,
    build_report,
    fit_log_log_slope,
    report_files,
    write_csv_report,
    write_json_report,
)

# Largest stacked array: a counts batch's (block, support) truths, count rows (then
# its responder) or int64 running counts, one stacked logistic fit's (fits,
# points, d + 1) design tensor, one chunk of a coreset evaluation cloud, or one
# knn k's (queries, k) int64 neighbour indices, as many queries as its fits' design
# tensor holds.
# A counts trial whose contexts span blocks takes its draw order from the block
# height, so changing this changes those reports (textgen at V=50,000, m=100).
STACK_BYTES = 256 * 1024

# Each coreset cloud chunk but the last holds a multiple of this many points.
# BLAS's gemv sums the rows of ``X @ w`` in groups, so whole groups give each point
# the bits of the unchunked one-thread product (OpenBLAS 0.3.31, d = 1 to 130: 4 and
# 8-row chunks do, at any thread count; at d >= 8, 2, 3 and 7-row chunks do not).
# A short last chunk matched too, but a lone row did not: the dataset joins it.
_CLOUD_ROWS = 8

THREADS_ENV_VAR = "ICL_LAB_THREADS"


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one verification run (see README for the JSON schema)."""

    kind: str
    params: BoundParams
    trials: int = 100
    seed: int = 0
    eta: float = 0.0
    eval_points: int | None = None
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
        # numpy's ceilings; a sample size's is left to check_draw_sizes' own message.
        needed = (("trials", 1, 2**63 - 1), ("seed", 0, 2**64 - 1), ("dataset_size", 2, 2**63 - 1))
        for name, low, high in needed:
            object.__setattr__(self, name, check_int(name, getattr(self, name), low, high))
        for name, high in (("eval_points", 2**63 - 1), ("samples_override", None)):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, check_int(name, getattr(self, name), 1, high))
        object.__setattr__(self, "eta", check_eta(self.eta))
        if self.mode not in MODES:
            raise ParameterError(f"unknown bound mode {self.mode!r}; expected one of {MODES}")
        for name in ("concentration", "planted_norm"):
            object.__setattr__(self, name, check_real(name, getattr(self, name), above=0))
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
                raise ParameterError(f"{name} must not repeat a size, got {shown(list(sizes))}")
            object.__setattr__(self, name, sizes)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        data = dict(data)
        for name, section in (("params", BoundParams), ("train", TrainConfig)):
            if name in data and not isinstance(data[name], section):
                data[name] = from_object(section, data[name], f"config section '{name}'")
        return from_object(cls, data, "config")


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
    """Run every trial of ``cfg`` and build its report.

    The trials run in batches of ``batch`` consecutive ones.  ``measure(rngs)``
    yields, per stream of ``rngs``, one ``(error, detail)`` pair per value of
    ``sweep``, and each trial draws only from its own stream.  Row ``j`` of
    trial ``i`` is numbered ``i * len(sweep) + j`` and fails when its error
    exceeds ``allowed(value) + 2 * eta``, widened for the responder's mix;
    ``allowed`` is ``epsilon`` by default, and then the sum is echoed as
    ``extras["failure_threshold"]``.  With ``medians_key`` the median error
    per swept value lands in that extras key, and with ``slope`` their log-log
    slope lands in ``extras["log_log_slope"]``.
    """
    extras = dict(extras)
    limits = [(allowed(v) if allowed else cfg.params.epsilon) + 2.0 * cfg.eta for v in sweep]
    if allowed is None:
        extras["failure_threshold"] = limits[0]

    def one_batch(start: int) -> list[TrialResult]:
        indices = range(start, min(start + batch, cfg.trials))
        per_trial = measure([trial_rng(cfg.seed, i) for i in indices])
        return [
            TrialResult(i * len(sweep) + j, error, error > limits[j], value, detail)
            for i, pairs in zip(indices, per_trial, strict=True)
            for j, (value, (error, detail)) in enumerate(zip(sweep, pairs, strict=True))
        ]

    starts = range(0, cfg.trials, batch)
    workers = min(max_workers(), len(starts))  # a lone batch runs without a pool
    if workers == 1:
        nested = [one_batch(start) for start in starts]
    else:
        from concurrent.futures import ThreadPoolExecutor  # loaded only when a pool starts

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
    return build_report(cfg.to_dict(), rows, cfg.params.delta, extras)


def _median(values: list[float]) -> float:
    """``np.median`` of ``values``, which hold no NaN (``TrialResult`` refuses one),
    without the ``numpy.ma`` import it costs."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    return float(ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2)


def _within_dataset(cfg: ExperimentConfig, sizes: tuple[int, ...]) -> tuple[int, ...]:
    """The swept subset sizes, each of which must fit in the dataset."""
    if max(sizes) > cfg.dataset_size:
        message = f"{cfg.kind} sizes {shown(sizes)} exceed dataset_size {cfg.dataset_size}"
        raise ParameterError(message)
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
    measure, batch = _counts_measure(cfg, p.vocab_size, p.num_contexts, (n,))
    return _run_sweep(cfg, measure, extras, batch=batch)


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
    measure, batch = _counts_measure(cfg, space, p.num_contexts, (n,))
    return _run_sweep(cfg, measure, extras, batch=batch)


def _counts_measure(cfg: ExperimentConfig, support: int, contexts: int, sizes: tuple[int, ...]):
    """``(measure, batch)`` of the three counts kinds: ``measure(rngs)`` yields, per
    trial and per strictly increasing size n, the worst L1 error over ``contexts``
    random truths on ``support`` outcomes, each estimated from the counts of n
    i.i.d. draws, and ``batch`` is the trials it takes at a time.

    A trial's contexts run in blocks of :func:`_stack_rows` of them, at least one,
    and a block of the batch holds that many contexts of each of its trials, each
    trial owning consecutive rows.  ``batch``, ``_stack_rows(support * contexts)``,
    keeps a block within :func:`_stack_rows` rows: many whole trials, or one trial's
    part.  The batch allocates its workspace once, sized to its first (largest)
    block, and fills it block after block, a short block through its leading rows:
    the (rows, support) truths, drawn in place by :func:`dirichlet_rows`, and one
    vector of rows * support floats, the block's count rows, then its responder,
    with the largest n < V draw's n floats after them, where the last row's
    :func:`write_counts` merge runs.  A grid of several sizes carries its running
    counts in one int64 (rows, support) array, added to by :func:`add_counts`, and
    its count rows are written once per size, by the responder's divide of those
    counts.  A block draws, trial after trial and each from its own stream, all of
    its truths, then per size its counts, forms the responder in the count rows and
    takes their L1 errors row-wise.  So every stream sees the draws of its trial run
    alone, and a batch holds O(block) memory, not O(contexts * support).  Each row
    is normalized once: a truth row over its own sum, a responder row as its counts
    over the draw's exact size.
    """
    sizes, sampled = check_draw_sizes(sizes, support)  # refused before any trial runs
    per_block = _stack_rows(support)
    heights = [min(per_block, contexts - start) for start in range(0, contexts, per_block)]

    def measure(rngs):
        rows = len(rngs) * heights[0]
        worst = np.zeros((len(rngs), len(sizes)))  # L1 errors are non-negative
        truth_rows = np.empty((rows, support))
        work = np.empty(rows * support + sampled)
        carry = np.empty((rows, support), np.int64) if len(sizes) > 1 else None
        for height in heights:
            truths = truth_rows[: len(rngs) * height]
            counts = work[: truths.size].reshape(truths.shape)
            owned = [slice(k * height, (k + 1) * height) for k in range(len(rngs))]
            for rng, own in zip(rngs, owned):
                dirichlet_rows(height, support, cfg.concentration, rng, out=truths[own])
            if carry is not None:
                carry[: len(truths)] = 0
            errors, drawn = [], 0
            for size in sizes:
                for rng, own in zip(rngs, owned):
                    # A trial's merges run from its own rows on, past those drawn.
                    keys = work[own.start * support :]
                    if carry is None:
                        write_counts(truths[own], size - drawn, rng, keys)
                    else:
                        add_counts(truths[own], size - drawn, rng, carry[own], keys)
                drawn = size
                drawn_counts = counts if carry is None else carry[: len(truths)]
                diff = icl_counts_rows(drawn_counts, cfg.eta, out=counts, totals=size)
                diff -= truths
                errors.append(np.abs(diff, out=diff).sum(axis=1))
            per_trial = np.reshape(errors, (len(sizes), len(rngs), height)).max(axis=2)
            worst = np.maximum(worst, per_trial.T)
        for trial in worst:
            yield [(float(error), "") for error in trial]

    return measure, _stack_rows(support * contexts)


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
    ``dataset_size`` is then fitted across the batch as one stack.  A trial keeps
    only what scoring reads: the dataset's points, the full model, the cores
    still to fit and each size's single-class flag; each size's cores go once
    their stack is fitted.  Last, each trial draws its evaluation cloud and scores
    every model on it, chunk by chunk: a chunk is :func:`_stack_rows` points rounded
    down to whole groups of :data:`_CLOUD_ROWS`, and the dataset joins the last
    chunk, so no chunk is a lone point.  Each size keeps its running largest gap,
    so a trial holds one chunk, not the cloud.
    """
    p = cfg.params
    sizes = _within_dataset(cfg, cfg.coreset_sizes or (coreset_size(p),))
    eval_draws = cfg.eval_points or 10_000
    # A batch is as many trials as one stack of the largest fitted size holds.
    fitted = [size for size in sizes if size < cfg.dataset_size]
    batch = _stack_rows(max(fitted) * (p.input_dim + 1)) if fitted else 1
    chunk = max(_CLOUD_ROWS, _stack_rows(p.input_dim) // _CLOUD_ROWS * _CLOUD_ROWS)

    def draw(rng):
        data, _ = planted_linear_dataset(cfg.dataset_size, p.input_dim, cfg.planted_norm, rng)
        full_model = train_logistic(data, cfg.train)
        sensitive = cfg.coreset_strategy == "sensitivity"
        weights = sensitivity_scores(data, full_model) if sensitive else None
        cores = [select_coreset(data, size, weights, rng) for size in sizes]
        # The size-N core is the dataset itself, whose points alone are scored.
        to_fit = [core for size, core in zip(sizes, cores) if size < cfg.dataset_size]
        return data.features, full_model, to_fit, [core.is_single_class() for core in cores]

    def score(rng, features, full_model, single_class, models):
        worst = np.zeros(len(models))  # gaps are non-negative; np.maximum keeps a NaN
        for start in range(0, eval_draws, chunk):
            # The cloud follows the generator's own input law.
            points = rng.standard_normal((min(chunk, eval_draws - start), p.input_dim))
            if start + chunk >= eval_draws:
                points = np.vstack([points, features])
            full_probs = predict_probs(full_model, points)
            for j, model in enumerate(models):
                if not isinstance(model, DivergenceError):
                    probs = full_probs if model is full_model else predict_probs(model, points)
                    gaps = np.abs(mix_with_uniform(probs, cfg.eta, 2) - full_probs)
                    worst[j] = np.maximum(worst[j], np.max(gaps))
        for single, model, gap in zip(single_class, models, worst):
            if isinstance(model, DivergenceError):
                yield float("inf"), str(model)
                continue
            yield float(gap), "single-class subset; guarantee vacuous" if single else ""

    def measure(rngs):
        drawn = [draw(rng) for rng in rngs]
        # Per swept size, one model per trial; the whole dataset's is the full model.
        # Each fitted size pops its core from every trial, so no core outlives its fit.
        by_size = [
            _fit_cores([to_fit.pop(0) for _, _, to_fit, _ in drawn], cfg.train)
            if size < cfg.dataset_size
            else [full_model for _, full_model, _, _ in drawn]
            for size in sizes
        ]
        for rng, (features, full_model, _, single_class), models in zip(
            rngs, drawn, zip(*by_size)
        ):
            yield score(rng, features, full_model, single_class, models)

    extras = {
        "sizes": list(sizes),
        "strategy": cfg.coreset_strategy,
        "eval_points": eval_draws + cfg.dataset_size,
    }
    return _run_sweep(
        cfg, measure, extras, sizes, medians_key="median_sup_error_by_size", batch=batch
    )


def _fit_rows(features: np.ndarray, labels: np.ndarray, train: TrainConfig):
    """:func:`fit_logistic_stack`'s (B, d + 1) thetas of the stack ``features``,
    ``labels``, and per fit its :class:`DivergenceError` or None.  When the stack
    diverges, each fit is refitted alone, so each gets exactly its lone outcome;
    a diverged fit's theta is NaN."""
    try:
        return fit_logistic_stack(features, labels, train), [None] * len(labels)
    except DivergenceError as exc:
        if len(labels) == 1:
            return np.full((1, features.shape[2] + 1), np.nan), [exc]
        fits = [_fit_rows(features[b, None], labels[b, None], train) for b in range(len(labels))]
        return np.concatenate([thetas for thetas, _ in fits]), [lone for _, (lone,) in fits]


def _fit_cores(cores: list[LabeledDataset], train: TrainConfig) -> list:
    """Per same-sized core, its fitted :class:`LinearModel` or its fit's
    :class:`DivergenceError`, the cores fitted as one stack by :func:`_fit_rows`."""
    features = np.stack([core.features for core in cores])
    thetas, failures = _fit_rows(features, np.stack([core.labels for core in cores]), train)
    return [exc or LinearModel(t[:-1], t[-1]) for t, exc in zip(thetas, failures)]


def _stack_rows(floats: int) -> int:
    """Rows per stacked array: as many rows of ``floats`` float64 values as fit in
    :data:`STACK_BYTES`, and at least one."""
    return max(1, STACK_BYTES // (8 * floats))


def _run_knn(cfg: ExperimentConfig) -> BoundReport:
    """Per-query local models on k nearest neighbors, compared to the planted
    model; sweeps k and fits the error-decay slope.

    Each trial draws its dataset, then its queries from its own stream, and
    scores the planted model on them once.  Each query is ranked once, at the
    largest k, and each k copies its ranking's first k indices into its own
    int64 stack of ``_stack_rows(k * (d + 1))`` neighbourhoods, at most the
    trial's queries.  A full stack, and each k's last one, is fitted by
    :func:`_fit_rows` and scored against the planted truth of its queries.  Per
    k the trial keeps its running largest error, its count of single-class
    neighbourhoods and its diverged queries, numbered across the trial, so a
    trial holds its queries and truths, one ranking and one stack per k.
    """
    p = cfg.params
    ks = _within_dataset(cfg, cfg.knn_sizes or (knn_context_size(p),))
    queries_per_trial = cfg.eval_points or 16  # few by default: one local fit per query

    def trial(rng):
        data, planted = planted_linear_dataset(
            cfg.dataset_size, p.input_dim, cfg.planted_norm, rng
        )
        queries = rng.standard_normal((queries_per_trial, p.input_dim))
        truth = predict_probs(planted, queries)
        worst = np.zeros(len(ks))  # errors are non-negative
        degenerate = [0] * len(ks)
        diverged = [[] for _ in ks]
        heights = (min(_stack_rows(k * (p.input_dim + 1)), queries_per_trial) for k in ks)
        stacks = [np.empty((h, k), dtype=np.int64) for h, k in zip(heights, ks)]
        for q, query in enumerate(queries):
            # Neighbours come nearest first, so each k fits a prefix of one ranking per query.
            ranked = knn_order(data, query, max(ks))
            for j, stack in enumerate(stacks):
                row = q % len(stack)
                stack[row] = ranked[: stack.shape[1]]
                if row + 1 < len(stack) and q + 1 < queries_per_trial:
                    continue
                span, neighbours = slice(q - row, q + 1), stack[: row + 1]
                labels = data.labels[neighbours]
                thetas, excs = _fit_rows(data.features[neighbours], labels, cfg.train)
                # A batched matmul, unlike einsum, gives each query's w.x bit for bit.
                logits = (thetas[:, None, :-1] @ queries[span, :, None])[:, 0, 0] + thetas[:, -1]
                errors = np.abs(mix_with_uniform(sigmoid(logits), cfg.eta, 2) - truth[span])
                worst[j] = np.maximum(worst[j], np.max(errors))
                degenerate[j] += int(np.count_nonzero(np.all(labels == labels[:, :1], axis=1)))
                diverged[j] += [f"query {i}: {e}" for i, e in enumerate(excs, span.start) if e]
        for error, single, failed in zip(worst, degenerate, diverged):
            notes = [f"{single} single-class neighborhoods"] if single else []
            # A query whose fit diverged scores inf, and so does its row.
            yield np.inf if failed else float(error), "; ".join(notes + failed)

    def measure(rngs):  # batches of one trial
        return map(trial, rngs)

    extras = {"k_values": list(ks), "queries_per_trial": queries_per_trial}
    return _run_sweep(cfg, measure, extras, ks, medians_key="median_sup_error_by_k", slope=True)


def _run_subset_penalty(cfg: ExperimentConfig) -> BoundReport:
    """Textgen's measure with one context over a size grid: error versus sample
    count, and its log-log decay slope (about -1/2 for i.i.d. sampling)."""
    p = cfg.params
    sizes = tuple(sorted(cfg.subset_sizes))
    measure, batch = _counts_measure(cfg, p.vocab_size, 1, sizes)
    extras = {"subset_sizes": list(sizes), "penalty_constant": p.constant}
    return _run_sweep(
        cfg,
        measure,
        extras,
        sizes,
        lambda n: subset_penalty(n, p.constant),
        medians_key="median_l1_by_size",
        slope=True,
        batch=batch,
    )


_RUNNERS = {
    "textgen": _run_textgen,
    "bounded_textgen": _run_bounded_textgen,
    "coreset": _run_coreset,
    "knn": _run_knn,
    "subset_penalty": _run_subset_penalty,
}
KINDS = tuple(_RUNNERS)


def run_experiment(cfg: ExperimentConfig, output=None) -> BoundReport:
    """Run ``cfg`` with its kind's runner and return its report; with ``output``, also
    write it there as JSON and to the ``.csv`` sibling as CSV, through
    :func:`report_files` (a bad path runs no trial, a failed run writes no report)."""
    if output is None:
        return _RUNNERS[cfg.kind](cfg)
    with report_files(output) as (json_temp, csv_temp):
        report = _RUNNERS[cfg.kind](cfg)
        write_json_report(report, json_temp)
        write_csv_report(report, csv_temp)
    return report
