"""Render a fixed set of verify reports and print each file's sha256.

Usage, from the root of a source checkout:

    python3 tools/report_digests.py OUTDIR

The set is the four ``perfbench/workloads.py`` configs at seeds 1 and 2, each
kind's ``tests/conftest.py`` tiny config at eta 0 and 0.1, textgen at V = 2,000,
m = 40, n = 500 (three blocks of an n < V draw), and subset_penalty at
V = 20,000 with its default sizes (one row a block) and at V = 2,000 with sizes
(100, 500, 1,500, 5,000), 20 trials (nested n < V draws in a block of several
trials), coreset at d = 5 with sensitivity weights, eta 0.1 and a 20,001-point
cloud (three chunks of 6,552 points and a short one), and knn at d = 5, eta 0.1
with 45 queries and with 33: at k = 1,024 a stack holds 5 queries, so 45 fill
nine stacks and 33 end in a stack of 3, while k = 16's one stack holds them all.
Each config is written to OUTDIR and run through ``icl_lab.cli.main`` of this
checkout's ``src``, which writes its JSON and CSV reports there.  Stdout gets the
ledger's header, which names the platform (numpy's version, the BLAS core numpy's
bundled OpenBLAS picked and numpy's CPU dispatch targets, all of which move
classification bits), then one ``sha256  file`` line per report.  To check that
two trees give byte-identical reports, run this script in each tree and ``diff``
the two outputs.  ``tests/report_digests.txt`` holds the output of the current
tree, and a Tier-1 test checks that it still holds.

Where reports move on purpose, render both trees and compare the two OUTDIRs:

    python3 tools/report_digests.py --compare OLD NEW

which prints each report whose bytes changed, the largest relative move of a
CSV row's ``sup_error``, every row's ``failed`` and every report's ``pass``
that flipped, and the largest move of a JSON report's ``log_log_slope``.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import dataclasses
import hashlib
import importlib.util
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402

from icl_lab.bounds import BoundParams  # noqa: E402
from icl_lab.cli import EXIT_FAILED_VERIFICATION, EXIT_OK, main  # noqa: E402
from icl_lab.classify import TrainConfig  # noqa: E402
from icl_lab.experiments import ExperimentConfig  # noqa: E402


def tiny_configs() -> dict:
    """Name -> config dict of each kind's test-suite tiny config at eta 0 and 0.1."""
    spec = importlib.util.spec_from_file_location("conftest", ROOT / "tests" / "conftest.py")
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    return {
        f"tiny-{kind}-eta{eta}": ExperimentConfig(
            kind=kind, trials=3, seed=5, eta=eta, **fields
        ).to_dict()
        for kind, fields in conftest._TINY.items()
        for eta in (0.0, 0.1)
    }


def configs() -> dict:
    """Name -> config dict of every report in the set."""
    named = {
        f"{name}-seed{seed}": workloads.make_config(name, seed)
        for name in workloads.WORKLOADS
        for seed in (1, 2)
    }
    named.update(tiny_configs())
    wide = BoundParams(epsilon=0.2, delta=0.05, vocab_size=2_000, num_contexts=40)
    named["textgen-V2000-m40-n500"] = ExperimentConfig(
        kind="textgen", params=wide, trials=3, seed=5, samples_override=500, mode="big_o"
    ).to_dict()
    penalty = BoundParams(epsilon=1.0, delta=0.05, vocab_size=20_000, constant=2.0)
    named["subset_penalty-V20000"] = ExperimentConfig(
        kind="subset_penalty", params=penalty, trials=3, seed=5
    ).to_dict()
    nested = dataclasses.replace(penalty, vocab_size=2_000)
    named["subset_penalty-V2000-trials20"] = ExperimentConfig(
        kind="subset_penalty",
        params=nested,
        trials=20,
        seed=5,
        subset_sizes=(100, 500, 1_500, 5_000),
    ).to_dict()
    named["coreset-d5-eval20001"] = ExperimentConfig(
        kind="coreset",
        params=BoundParams(epsilon=0.25, delta=0.05, input_dim=5),
        trials=3,
        seed=5,
        eta=0.1,
        eval_points=20_001,
        dataset_size=500,
        coreset_sizes=(50, 200, 500),
        coreset_strategy="sensitivity",
        train=TrainConfig(max_iters=300, l2_reg=1e-2),
    ).to_dict()
    named["knn-d5-eval45"] = ExperimentConfig(
        kind="knn",
        params=BoundParams(epsilon=0.2, delta=0.05, input_dim=5),
        trials=2,
        seed=5,
        eta=0.1,
        eval_points=45,
        dataset_size=2_048,
        knn_sizes=(16, 1_024),
        train=TrainConfig(max_iters=300, l2_reg=1e-3),
    ).to_dict()
    named["knn-d5-eval33"] = dict(named["knn-d5-eval45"], eval_points=33)
    return named


def render(outdir: Path) -> list[Path]:
    """Write every config and its reports under ``outdir``; the report paths."""
    outdir.mkdir(parents=True, exist_ok=True)
    reports = []
    for name, config in configs().items():
        config_path, report = outdir / f"{name}.config.json", outdir / f"{name}.json"
        config_path.write_text(json.dumps(config))
        argv = ["verify", config["kind"], "--config", str(config_path), "--output", str(report)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        if code not in (EXIT_OK, EXIT_FAILED_VERIFICATION):
            raise SystemExit(f"{name}: verify exited {code}")
        reports += [report, report.with_suffix(".csv")]
    return reports


def digests(outdir: Path) -> list[str]:
    """Render the set under ``outdir``; one ``sha256  file`` line per report."""
    return [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.name}" for p in render(outdir)]


def blas_core() -> str:
    """The kernel numpy's bundled OpenBLAS picked on this host, or "unknown"."""
    site, name = Path(np.__file__).parents[1], "libscipy_openblas64_*"
    for lib in [*site.glob(f"numpy.libs/{name}"), *site.glob(f"numpy/.dylibs/{name}")]:
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def platform() -> dict:
    """What report bits depend on besides the config: numpy's version (its streams),
    the BLAS core and the CPU dispatch targets numpy's SIMD loops use here."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath

    dispatch = [target for target in umath.__cpu_dispatch__ if umath.__cpu_features__.get(target)]
    return {"numpy": np.__version__, "BLAS core": blas_core(), "CPU dispatch": " ".join(dispatch)}


def header() -> list[str]:
    """The ledger's comment lines, naming this host's :func:`platform`."""
    here = platform()
    return [
        f"# sha256 of each tools/report_digests.py report, rendered with numpy {here['numpy']}.",
        f"# BLAS core: {here['BLAS core']}.",
        f"# CPU dispatch: {here['CPU dispatch']}.",
        "# A change that moves report bytes on purpose updates this file in the same commit.",
    ]


def _relative_move(old: float, new: float) -> float:
    if old == new:  # inf included
        return 0.0
    return abs(new - old) / abs(old) if math.isfinite(old) and old else math.inf


def _largest(moves: list[tuple[float, str]], what: str) -> str:
    if not moves:
        return f"largest {what} move: none compared"
    size, where = max(moves, key=lambda move: move[0])
    return f"largest {what} move: {size:.2g} ({where})"


def compare(old: Path, new: Path) -> list[str]:
    """How the reports rendered under ``new`` differ from those under ``old``."""
    names = sorted(
        {
            path.name
            for outdir in (old, new)
            for path in outdir.iterdir()
            if path.suffix in (".json", ".csv") and not path.name.endswith(".config.json")
        }
    )
    lines, flips, errors, slopes = [], [], [], []
    for name in names:
        before, after = old / name, new / name
        if not (before.exists() and after.exists()):
            lines.append(f"only in {'new' if after.exists() else 'old'}: {name}")
            continue
        if before.read_bytes() == after.read_bytes():
            continue
        lines.append(f"changed: {name}")
        if name.endswith(".csv"):
            with before.open() as a, after.open() as b:
                rows = list(zip(csv.DictReader(a), csv.DictReader(b), strict=True))
            for was, now in rows:
                where = f"{name} trial_index {now['trial_index']}"
                moved = _relative_move(float(was["sup_error"]), float(now["sup_error"]))
                errors.append((moved, where))
                if was["failed"] != now["failed"]:
                    flips.append(f"failed flip: {where}: {was['failed']} -> {now['failed']}")
        else:
            was, now = (json.loads(path.read_text()) for path in (before, after))
            if was["pass"] != now["pass"]:
                flips.append(f"pass flip: {name}: {was['pass']} -> {now['pass']}")
            slope_was, slope_now = (report["extras"].get("log_log_slope") for report in (was, now))
            if slope_was != slope_now:
                if slope_was is None or slope_now is None:
                    slopes.append((math.inf, f"{name}: {slope_was} -> {slope_now}"))
                else:
                    slopes.append((abs(slope_now - slope_was), name))
    lines.append(f"{len(lines)} of {len(names)} reports changed")
    lines.append(_largest(errors, "relative sup_error"))
    lines += flips or ["no failed or pass flip"]
    lines.append(_largest(slopes, "log_log_slope"))
    return lines


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        print("\n".join(compare(Path(sys.argv[2]), Path(sys.argv[3]))))
    elif len(sys.argv) == 2:
        print("\n".join(header() + digests(Path(sys.argv[1]))))
    else:
        raise SystemExit(__doc__)
