"""Command-line interface.

Subcommands:

* ``bounds calc``   — evaluate a sample-size rule and print it as JSON.
* ``verify <kind>`` — run a Monte Carlo verification experiment from a JSON
  config and write JSON + CSV reports.
* ``prompt build``  — assemble a prompt from a JSON file of example pairs.

Exit codes: 0 success, 1 parameter/usage error, 2 experiment did not pass,
3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .bounds import (
    MODE_BIG_O,
    MODE_EXACT,
    BoundParams,
    bounded_textgen_size,
    coreset_size,
    knn_context_size,
    subset_penalty,
    textgen_samples_per_context,
)
from .errors import ParameterError
from .experiments import KINDS, ExperimentConfig, run_experiment
from .prompts import ExamplePair, PromptConfig, build_prompt

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILED_VERIFICATION = 2
EXIT_IO = 3

_CLI_MODES = {"bigo": MODE_BIG_O, "exact": MODE_EXACT}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icl-lab",
        description="Sample-size calculators and Monte Carlo verification experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bounds = sub.add_parser("bounds", help="sample-size calculators")
    bounds_sub = bounds.add_subparsers(dest="bounds_command", required=True)
    calc = bounds_sub.add_parser("calc", help="evaluate one calculator and print JSON")
    calc.add_argument("--kind", required=True, choices=KINDS)
    calc.add_argument("--V", type=int, help="vocabulary size")
    calc.add_argument("--m", type=int, help="number of contexts")
    calc.add_argument("--d", type=int, help="input dimension")
    calc.add_argument("--l", type=int, help="output sequence length")
    calc.add_argument("--epsilon", type=float, help="error tolerance in (0, 2]")
    calc.add_argument("--delta", type=float, help="failure probability in (0, 1)")
    calc.add_argument("--mode", choices=sorted(_CLI_MODES), default="bigo")
    calc.add_argument("--constant", type=float, default=1.0)
    calc.add_argument("--size", type=int, help="subset size (subset_penalty only)")
    calc.set_defaults(handler=_cmd_bounds_calc)

    verify = sub.add_parser("verify", help="run a Monte Carlo verification experiment")
    verify.add_argument("kind", choices=KINDS)
    verify.add_argument("--config", required=True, help="experiment config JSON file")
    verify.add_argument("--output", help="report path (JSON; a CSV sibling is written too)")
    verify.add_argument("--trials", type=int, help="override the config trial count")
    verify.add_argument("--seed", type=int, help="override the config seed")
    verify.set_defaults(handler=_cmd_verify)

    prompt = sub.add_parser("prompt", help="prompt assembly")
    prompt_sub = prompt.add_subparsers(dest="prompt_command", required=True)
    build = prompt_sub.add_parser("build", help="build a prompt from a pairs file")
    build.add_argument("--pairs", required=True, help="JSON file with example pairs")
    build.add_argument("--query", help="query text (falls back to the file's 'query' field)")
    build.add_argument("--separator", help="override the separator token")
    build.set_defaults(handler=_cmd_prompt_build)

    return parser


def _require_flags(args: argparse.Namespace, kind: str, names: tuple[str, ...]):
    for name in names:
        if getattr(args, name) is None:
            raise ParameterError(f"missing --{name} (required for kind '{kind}')")


def _cmd_bounds_calc(args: argparse.Namespace) -> int:
    kind = args.kind
    if kind == "subset_penalty":
        _require_flags(args, kind, ("size",))
        payload = {
            "kind": kind,
            "subset_size": args.size,
            "penalty": subset_penalty(args.size, args.constant),
            "formula": f"penalty = {args.constant:g} / sqrt(size); size={args.size}",
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return EXIT_OK

    required = {
        "textgen": ("V", "m", "epsilon", "delta"),
        "bounded_textgen": ("V", "l", "epsilon", "delta"),
        "coreset": ("d", "epsilon"),
        "knn": ("epsilon", "delta"),
    }[kind]
    _require_flags(args, kind, required)
    params = BoundParams(
        epsilon=args.epsilon,
        delta=args.delta if args.delta is not None else 0.5,
        vocab_size=args.V if args.V is not None else 2,
        num_contexts=args.m if args.m is not None else 1,
        input_dim=args.d if args.d is not None else 1,
        output_len=args.l if args.l is not None else 1,
        constant=args.constant,
    )
    if kind == "textgen":
        result = textgen_samples_per_context(params, _CLI_MODES[args.mode])
        payload = {
            "kind": kind,
            "mode": result.mode,
            "per_context": result.per_context,
            "total": result.total,
            "formula": result.formula_text,
        }
    elif kind == "bounded_textgen":
        size = bounded_textgen_size(params)
        payload = {
            "kind": kind,
            "size": size,
            "formula": f"k = ceil({params.constant:g} * (l*ln(V)/eps^2) * ln(1/delta)); "
            f"V={params.vocab_size}, l={params.output_len} (natural log)",
        }
    elif kind == "coreset":
        payload = {
            "kind": kind,
            "size": coreset_size(params),
            "formula": f"size = ceil({params.constant:g} * d/eps); d={params.input_dim}",
        }
    else:
        payload = {
            "kind": kind,
            "size": knn_context_size(params),
            "formula": f"k = ceil({params.constant:g} * (1/eps^2) * ln(1/delta)) (natural log)",
        }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    cfg = ExperimentConfig.from_json_file(args.config)
    if cfg.kind != args.kind:
        raise ParameterError(f"config kind {cfg.kind!r} does not match subcommand {args.kind!r}")
    overrides = {}
    if args.output is not None:
        overrides["output_path"] = args.output
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    report = run_experiment(cfg)
    summary = {
        "kind": cfg.kind,
        "trials": len(report.trials),
        "failure_rate": report.failure_rate,
        "delta_target": report.delta_target,
        "ci_halfwidth": report.ci_halfwidth,
        "pass": report.passed,
    }
    if cfg.output_path is not None:
        summary["output_json"] = cfg.output_path
        summary["output_csv"] = str(Path(cfg.output_path).with_suffix(".csv"))
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK if report.passed else EXIT_FAILED_VERIFICATION


def _load_pairs_file(path: str) -> tuple[list[ExamplePair], str | None, dict]:
    with open(path, encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ParameterError(f"pairs file {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "pairs" not in payload:
        raise ParameterError(f"pairs file {path} must be a JSON object with a 'pairs' list")
    pairs = []
    for entry in payload["pairs"]:
        if isinstance(entry, dict):
            pairs.append(ExamplePair(entry["input"], entry["output"]))
        else:
            input_text, output_text = entry
            pairs.append(ExamplePair(input_text, output_text))
    return pairs, payload.get("query"), payload.get("config", {})


def _cmd_prompt_build(args: argparse.Namespace) -> int:
    pairs, file_query, config_dict = _load_pairs_file(args.pairs)
    query = args.query if args.query is not None else file_query
    if query is None:
        raise ParameterError("missing --query (and the pairs file has no 'query' field)")
    if args.separator is not None:
        config_dict = dict(config_dict, separator=args.separator)
    config = PromptConfig(**config_dict)
    print(build_prompt(pairs, query, config))
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else EXIT_USAGE
        return EXIT_OK if code == 0 else EXIT_USAGE
    try:
        return args.handler(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
