"""Benchmark of ``icl-lab verify``, end to end and layer by layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload textgen_exact --seed 1 --seconds 20 --trace 0

Each workload (see ``workloads.py``) is run as a closed loop with one client:
one ``icl-lab verify`` process at a time, entered through
``icl_lab.cli.main``, with ``ICL_LAB_THREADS`` unset (one trial worker). All
runs of one benchmark invocation use the same config, so their reports must
be byte-identical; every report is also checked by ``checks.py``.

``--trace 0`` measures the end-to-end metrics for ``--seconds`` seconds:

* ``verdict_s``   -- seconds from entering ``cli.main`` (config reading
  included) to the JSON and CSV reports being written, mean over runs;
* ``setup_s``     -- seconds from process spawn to the first trial
  (interpreter start, ``import icl_lab``, argument and config parsing),
  median over one short process per run;
* ``peak_rss_mb`` -- peak resident memory of the verify process, median.

Both times are given at the reference host speed: the wall-clock mean or
median is multiplied by ``REFERENCE_S`` over the mean time of the fixed
kernel ``child.reference_seconds``, timed in every set-up process. A shared
host changes speed by up to a factor of two over minutes, which moves every
wall time alike; the kernel does not depend on the program, so a change to
the program moves the scaled times as it moves the wall times. The summary
line gives the wall-clock times.

Failed runs (an exception, a missing report or a failed check) are counted in
the result line's ``failed`` against ``attempted``; their share is printed as
``failed_ops`` in the summary line.

``--trace 1`` alternates traced and untraced runs for ``--seconds`` seconds
and reports the per-layer metrics of ``tracer.LAYER_METRICS`` (medians over
traced runs) plus the tracing overhead. Per-layer times are wall seconds.

Output: a JSON environment line, a JSON summary line (quartiles, run counts,
failure texts) and, last, the result line
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import checks
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
# Runs measured even when --seconds has already passed, so quartiles exist.
MIN_RUNS = 3
# Every process must end by then, so the benchmark exits within 180 s.
TIME_LIMIT_S = 170.0

END_TO_END = (("verdict_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# Seconds ``child.reference_seconds`` takes on the reference host; times are
# scaled to it. It is near the kernel's time on an unloaded core of the 2-vCPU
# Xeon (Sapphire Rapids) VM the bounds were set on, so scaled times read close
# to wall times there.
REFERENCE_S = 0.25
TRACE_METRICS = (
    ("trace.traced_verdict_s", "s"),
    ("trace.untraced_verdict_s", "s"),
    ("trace.overhead_s", "s"),
)


def spread(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    if len(values) < 2:
        q1 = q3 = values[0] if values else None
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values) if values else None,
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


def environment() -> dict:
    """Interpreter, numpy and BLAS versions, core count and thread settings."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        # Inherited value; verify runs always get it unset (one worker).
        "ICL_LAB_THREADS": os.environ.get("ICL_LAB_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


class Session:
    """Child processes for one workload config, run one at a time in ``workdir``."""

    def __init__(self, config: dict, workdir: Path, stop_at: float, deadline: float):
        self.config = config
        self.workdir = workdir
        self.stop_at = stop_at
        self.deadline = deadline
        self.config_path = workdir / "config.json"
        self.config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
        self.env = {k: v for k, v in os.environ.items() if k != "ICL_LAB_THREADS"}
        self.spawned = 0
        self.attempted = 0
        self.failed = 0
        self.errors: Counter = Counter()
        self.problems: list[str] = []
        self.reference: tuple[str, str] | None = None

    def more_runs(self, min_runs: int, iteration_s: float) -> bool:
        """Whether to start another loop iteration, expected to take ``iteration_s``.

        The loop stops at the iteration whose expected midpoint passes
        ``stop_at``, so a run lasts about ``--seconds`` on average.
        """
        now = time.monotonic()
        if now + iteration_s >= self.deadline:
            return False
        return self.attempted < min_runs or now + iteration_s / 2 < self.stop_at

    def _spawn(self, mode: str) -> tuple[dict, Path]:
        self.spawned += 1
        output = self.workdir / f"report{self.spawned}.json"
        result_path = self.workdir / f"result{self.spawned}.json"
        argv = [
            sys.executable, str(CHILD), mode, self.config["kind"], str(self.config_path),
            str(output), str(result_path), str(time.monotonic_ns()),
        ]
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run(
                argv, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return {"error": f"{mode} process exceeded {timeout:.0f} s"}, output
        if proc.returncode != 0 or not result_path.is_file():
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            return {"error": f"{mode} process exited {proc.returncode}: {tail[0]}"}, output
        return json.loads(result_path.read_text(encoding="utf-8")), output

    def setup_probe(self) -> dict | None:
        """A set-up process's result with ``setup_s``, or None if it failed."""
        result, _ = self._spawn("setup")
        if "setup_s" not in result:
            self.errors[f"setup probe: {result['error']}"] += 1
            return None
        return result

    def verify(self, mode: str) -> dict:
        """One verify run: counted, checked and compared with the first report."""
        result, output = self._spawn(mode)
        self.attempted += 1
        error = result.get("error")
        if error is None:
            error = self._check(result, output)
        if error is not None:
            self.failed += 1
            self.errors[error] += 1
        return result

    def _check(self, result: dict, output: Path) -> str | None:
        outputs = checks.read_outputs(output)
        if outputs is None:
            return "no JSON + CSV report written"
        try:
            problems = checks.check_report(self.config, *outputs, result["exit_code"])
        except (KeyError, TypeError, ValueError) as exc:
            problems = [f"malformed report: {exc!r}"]
        if self.reference is None:
            self.reference = outputs
        elif outputs != self.reference:
            problems.append("report bytes differ from the first run at this seed")
        if problems:
            self.problems += problems
            return "failed output checks"
        return None


def _measure_end_to_end(session: Session) -> tuple[dict, dict]:
    setups, verdicts, rss, references = [], [], [], []
    iteration_s = 0.0
    while session.more_runs(MIN_RUNS, iteration_s):
        begin = time.monotonic()
        setup = session.setup_probe()
        if setup is not None:
            setups.append(setup["setup_s"])
            references.append(setup["reference_s"])
        result = session.verify("run")
        if "verdict_s" in result:
            verdicts.append(result["verdict_s"])
            rss.append(result["peak_rss_mb"])
        iteration_s = time.monotonic() - begin
    series = {
        "wall_verdict_s": verdicts,
        "wall_setup_s": setups,
        "peak_rss_mb": rss,
        "reference_s": references,
    }
    summary = {name: spread(values) for name, values in series.items()}
    if not verdicts or not setups:
        return {}, summary
    # Means, not medians: a run holds only 10-20 verify runs whose wall times
    # scatter by up to 40% around their centre, and with that scatter the
    # mean of a knn_sweep run varied a quarter less across runs than its
    # median did.
    scale = REFERENCE_S / statistics.fmean(references)
    summary["speed_scale"] = scale
    summary["series"] = series
    metrics = {
        "verdict_s": statistics.fmean(verdicts) * scale,
        "setup_s": summary["wall_setup_s"]["median"] * scale,
        "peak_rss_mb": summary["peak_rss_mb"]["median"],
    }
    return metrics, summary


def _measure_layers(session: Session, expected_spans: tuple[str, ...]) -> tuple[dict, dict]:
    traced, untraced, layers = [], [], []
    missing: set[str] = set()
    iteration_s = 0.0
    while session.more_runs(2 * MIN_RUNS, iteration_s):
        begin = time.monotonic()
        result = session.verify("trace")
        if "layers" in result:
            traced.append(result["verdict_s"])
            layers.append(result["layers"])
            missing.update(s for s in expected_spans if not result["span_calls"].get(s))
        result = session.verify("run")
        if "verdict_s" in result:
            untraced.append(result["verdict_s"])
        iteration_s = time.monotonic() - begin
    if not layers or not untraced:
        return {}, {}
    metrics = {
        name: statistics.median(run[name] for run in layers) for name, _, _ in tracer.LAYER_METRICS
    }
    traced_s, untraced_s = statistics.median(traced), statistics.median(untraced)
    metrics.update({
        "trace.traced_verdict_s": traced_s,
        "trace.untraced_verdict_s": untraced_s,
        "trace.overhead_s": traced_s - untraced_s,
    })
    summary = {
        "traced_verdict_s": spread(traced),
        "untraced_verdict_s": spread(untraced),
        "expected_spans_missing": sorted(missing),
    }
    return metrics, summary


def metric_units(trace: bool) -> list[tuple[str, str]]:
    """(name, unit) of every metric the result line carries."""
    if trace:
        return [(n, u) for n, u, _ in tracer.LAYER_METRICS] + list(TRACE_METRICS)
    return list(END_TO_END)


def measure(name: str, config: dict, seconds: float, trace: bool, workdir: Path) -> tuple[dict, dict]:
    """Run workload ``name`` with ``config``; returns (result line, summary)."""
    workdir.mkdir(parents=True)
    start = time.monotonic()
    session = Session(config, workdir, stop_at=start + seconds, deadline=start + TIME_LIMIT_S)
    session.setup_probe()  # warm-up: bytecode caches, page cache
    if trace:
        metrics, summary = _measure_layers(session, workloads.WORKLOADS[name].spans)
    else:
        metrics, summary = _measure_end_to_end(session)
    summary.update({
        "workload": name,
        "seed": config["seed"],
        "trace": int(trace),
        "seconds": round(time.monotonic() - start, 3),
        "failed_ops": {
            "failed": session.failed,
            "attempted": session.attempted,
            "share": session.failed / max(1, session.attempted),
        },
        "errors": dict(session.errors),
        "check_problems": session.problems[:10],
    })
    result = {
        "correct": not session.problems,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {
            n: {"value": metrics[n], "unit": u}
            for n, u in metric_units(trace)
            if metrics.get(n) is not None
        },
    }
    return result, summary


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not 0 <= args.seconds <= 60:
        parser.error("--seconds must be in [0, 60]")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "icl_lab" / "cli.py").is_file():
        print(f"perfbench: no icl_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work_root = ROOT / ".perfbench_work"
    workdir = work_root / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    try:
        config = workloads.make_config(args.workload, args.seed)
        result, summary = measure(args.workload, config, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    print(json.dumps({"env": environment()}))
    print(json.dumps({"summary": summary}))
    if len(result["metrics"]) != len(metric_units(bool(args.trace))):
        print("perfbench: no run produced measurements", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
