"""Spans and work counters recorded around icl_lab's public functions.

The package itself is not changed: :func:`install` replaces module attributes
with timing wrappers. The experiment runners bind names at import time, so
each function is patched in every namespace it is looked up from (for
example ``icl_lab.experiments.train_logistic`` for the runners and
``icl_lab.classify.train_logistic`` for the sensitivity pilot fit). One
wrapper serves every namespace of a function, so both lookups land in the
same span name.

The span name is ``<layer>.<function>``, the layer being the module that
defines the function. Spans nest by call order; the tracer assumes a single
thread, which holds while ``ICL_LAB_THREADS`` is unset.

``bounds`` (closed-form calculators, microseconds per run) and ``prompts``
(never called by ``verify``) are deliberately not traced.
"""

from __future__ import annotations

import importlib
import inspect
import math
import os
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    """Records spans ``[name, start, end, parent]`` in memory, plus counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """A wrapper of ``fn`` that records a span named ``name``.

        ``count(counts, arguments, result)`` runs after the span has closed,
        so counter work (such as a gradient evaluation) is kept out of the
        layer's time. Exceptions are counted under ``<name>.errors`` and
        re-raised.
        """
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            record = [name, time.perf_counter(), None, self._open[-1] if self._open else None]
            self._open.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counts[name + ".errors"] += 1
                raise
            finally:
                record[2] = time.perf_counter()
                self._open.pop()
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self.counts, bound.arguments, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, summed duration and summed self time."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for (name, start, end, _), inner in zip(self.spans, child_time):
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - inner
        return out


def _count_draws(counts, arguments, result):
    counts["distributions.sample_tokens.draws"] += int(arguments["n"])


def _count_fit(counts, arguments, model):
    from icl_lab.classify import logistic_gradient

    data, cfg = arguments["data"], arguments["cfg"]
    counts["classify.train_logistic.points"] += data.num_points
    grad_w, grad_b = logistic_gradient(model, data, cfg.l2_reg)
    grad_norm = math.sqrt(float(grad_w @ grad_w) + grad_b * grad_b)
    if grad_norm < cfg.grad_tolerance:
        counts["classify.train_logistic.converged"] += 1


def _count_eval_points(counts, arguments, result):
    counts["classify.predict_probs.points"] += len(result)


def _count_written(counts, arguments, result):
    counts["reports.write.bytes"] += os.path.getsize(arguments["path"])


# (span name, defining module, function, namespaces it is looked up from, counter)
PATCHES = (
    ("experiments.run", "experiments", "run_experiment", ("cli",), None),
    ("experiments.datagen", "experiments", "cluster_dataset", ("experiments",), None),
    ("experiments.datagen", "experiments", "planted_linear_dataset", ("experiments",), None),
    ("distributions.random_task", "distributions", "random_task", ("experiments",), None),
    ("distributions.sample_tokens", "distributions", "sample_tokens", ("experiments",), _count_draws),
    ("distributions.empirical_distribution", "distributions", "empirical_distribution", ("oracle",), None),
    ("distributions.l1_distance", "distributions", "l1_distance", ("experiments",), None),
    ("oracle.icl_textgen_dist", "oracle", "icl_textgen_dist", ("experiments",), None),
    ("classify.train_logistic", "classify", "train_logistic", ("experiments", "classify"), _count_fit),
    ("classify.knn_select", "classify", "knn_select", ("experiments",), None),
    ("classify.select_coreset", "classify", "select_coreset", ("experiments",), None),
    ("classify.predict_probs", "classify", "predict_probs", ("experiments", "classify"), _count_eval_points),
    ("reports.write", "reports", "write_json_report", ("experiments",), _count_written),
    ("reports.write", "reports", "write_csv_report", ("experiments",), _count_written),
)


def install(tracer: Tracer) -> None:
    """Patch every function of :data:`PATCHES` in each of its lookup namespaces.

    A function missing from its defining module is reported on stderr and
    left untraced, so its metrics read 0 (the smoke test catches that).
    """
    for name, home, attr, namespaces, count in PATCHES:
        fn = getattr(importlib.import_module(f"icl_lab.{home}"), attr, None)
        if fn is None:
            print(f"perfbench: icl_lab.{home}.{attr} not found; not traced", file=sys.stderr)
            continue
        wrapper = tracer.wrap(name, fn, count)
        for namespace in namespaces:
            module = importlib.import_module(f"icl_lab.{namespace}")
            if getattr(module, attr, None) is fn:
                setattr(module, attr, wrapper)


# (metric, unit, value from (span totals, counters)); the order of BENCHMARK.json.
LAYER_METRICS = (
    ("distributions.sample_tokens.calls", "count", lambda t, c: t["distributions.sample_tokens"]["calls"]),
    ("distributions.sample_tokens.draws", "count", lambda t, c: c["distributions.sample_tokens.draws"]),
    ("distributions.sample_tokens.s", "s", lambda t, c: t["distributions.sample_tokens"]["s"]),
    ("distributions.random_task.calls", "count", lambda t, c: t["distributions.random_task"]["calls"]),
    ("distributions.random_task.s", "s", lambda t, c: t["distributions.random_task"]["s"]),
    ("distributions.empirical_distribution.calls", "count",
     lambda t, c: t["distributions.empirical_distribution"]["calls"]),
    ("distributions.empirical_distribution.s", "s", lambda t, c: t["distributions.empirical_distribution"]["s"]),
    ("distributions.l1_distance.s", "s", lambda t, c: t["distributions.l1_distance"]["s"]),
    ("oracle.icl_textgen_dist.calls", "count", lambda t, c: t["oracle.icl_textgen_dist"]["calls"]),
    ("oracle.icl_textgen_dist.self_s", "s", lambda t, c: t["oracle.icl_textgen_dist"]["self_s"]),
    ("classify.train_logistic.calls", "count", lambda t, c: t["classify.train_logistic"]["calls"]),
    ("classify.train_logistic.points", "count", lambda t, c: c["classify.train_logistic.points"]),
    ("classify.train_logistic.s", "s", lambda t, c: t["classify.train_logistic"]["s"]),
    ("classify.train_logistic.converged", "count", lambda t, c: c["classify.train_logistic.converged"]),
    ("classify.train_logistic.converged_ratio", "ratio",
     lambda t, c: c["classify.train_logistic.converged"] / max(1, t["classify.train_logistic"]["calls"])),
    ("classify.knn_select.calls", "count", lambda t, c: t["classify.knn_select"]["calls"]),
    ("classify.knn_select.s", "s", lambda t, c: t["classify.knn_select"]["s"]),
    ("classify.select_coreset.calls", "count", lambda t, c: t["classify.select_coreset"]["calls"]),
    ("classify.select_coreset.self_s", "s", lambda t, c: t["classify.select_coreset"]["self_s"]),
    ("classify.predict_probs.points", "count", lambda t, c: c["classify.predict_probs.points"]),
    ("classify.predict_probs.s", "s", lambda t, c: t["classify.predict_probs"]["s"]),
    ("experiments.datagen.s", "s", lambda t, c: t["experiments.datagen"]["s"]),
    ("experiments.self_s", "s", lambda t, c: t["experiments.run"]["self_s"]),
    ("reports.write.s", "s", lambda t, c: t["reports.write"]["s"]),
    ("reports.write.bytes", "bytes", lambda t, c: c["reports.write.bytes"]),
    ("reports.write.failures", "count", lambda t, c: c["reports.write.errors"]),
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every metric of :data:`LAYER_METRICS` for the spans recorded so far."""
    totals = tracer.totals()
    return {name: value(totals, tracer.counts) for name, _, value in LAYER_METRICS}


def span_calls(tracer: Tracer) -> dict[str, int]:
    return {name: int(entry["calls"]) for name, entry in tracer.totals().items()}
