"""One process of the benchmark: a single ``icl-lab verify`` run.

Usage: ``python3 child.py MODE KIND CONFIG OUTPUT RESULT SPAWN_NS``

MODE is one of:

* ``setup`` -- stop at the first trial and record the seconds from
  ``SPAWN_NS`` (the parent's ``time.monotonic_ns()`` just before it started
  this process) to that point: interpreter start, ``import icl_lab``, argument
  and config parsing.
* ``run``   -- the whole verify run, entered through ``icl_lab.cli.main``.
* ``trace`` -- as ``run``, with the spans of :mod:`tracer` installed.

The ``setup`` mode then times :func:`reference_seconds`, a fixed kernel that
does not touch icl_lab, so the parent can tell how fast the shared host ran
just before the next verify run. The outcome goes to the JSON file RESULT. An
exception raised by the verify run is recorded there as a failed run; this
process still exits 0.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


class FirstTrial(Exception):
    """Raised by the patched trial RNG factory to end a ``setup`` run."""


def _first_trial(seed, trial_index):
    raise FirstTrial


def reference_seconds() -> float:
    """Seconds taken by a fixed mix of interpreter-bound and numpy work.

    The program's work is of the same kinds: small-array gradient steps as in
    the classify fits, inverse-CDF draws over a 50,000-entry table as in the
    textgen samplers, and plain bytecode. The kernel never changes with the
    program, so its time measures only the host's speed, which on a shared
    machine swings by up to a factor of two over seconds to minutes.
    """
    import numpy as np

    start = time.perf_counter()
    rng = np.random.default_rng(0)
    x = rng.standard_normal((256, 5))
    w = np.zeros(5)
    for _ in range(1200):
        p = 1.0 / (1.0 + np.exp(-(x @ w)))
        w -= 0.5 * (x.T @ (p - 0.5)) / len(x)
    cdf = np.cumsum(rng.gamma(0.5, 1.0, 50_000))
    np.searchsorted(cdf, rng.random(1_000_000) * cdf[-1])
    total = 0
    for i in range(800_000):
        total += i & 7
    return time.perf_counter() - start


def main(argv: list[str]) -> int:
    mode, kind, config, output, result_path, spawn_ns = argv
    sys.path.insert(0, str(SRC))
    import icl_lab.cli
    import icl_lab.experiments

    if not Path(icl_lab.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported icl_lab from {icl_lab.__file__}, not {SRC}", file=sys.stderr)
        return 1
    verify_argv = ["verify", kind, "--config", config, "--output", output]
    result: dict = {"exit_code": None, "error": None}

    if mode == "setup":
        icl_lab.experiments.trial_rng = _first_trial
        try:
            result["exit_code"] = icl_lab.cli.main(verify_argv)
            result["error"] = "run ended before its first trial"
        except FirstTrial:
            result["setup_s"] = (time.monotonic_ns() - int(spawn_ns)) * 1e-9
            result["reference_s"] = reference_seconds()
    else:
        tracer = None
        if mode == "trace":
            import tracer as tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        start = time.perf_counter()
        try:
            result["exit_code"] = icl_lab.cli.main(verify_argv)
        except Exception as exc:  # the run's failure is the measurement
            result["error"] = "".join(traceback.format_exception_only(exc)).strip()
        result["verdict_s"] = time.perf_counter() - start
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            result["layers"] = tracing.layer_metrics(tracer)
            result["span_calls"] = tracing.span_calls(tracer)

    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
