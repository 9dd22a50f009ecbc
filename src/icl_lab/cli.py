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
from functools import partial

from .bounds import (
    FORMULAS,
    MODE_BIG_O,
    MODE_EXACT,
    BoundParams,
    bounded_textgen_size,
    coreset_size,
    knn_context_size,
    subset_penalty,
    textgen_samples_per_context,
)
from .errors import ParameterError, check_keys, from_object, load_json_object
from .experiments import KINDS, ExperimentConfig, run_experiment
from .prompts import ExamplePair, PromptConfig, build_prompt
from .reports import csv_sibling, report_to_dict

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


def _params(args: argparse.Namespace) -> BoundParams:
    """Calculator inputs from the flags, with stand-ins for the ones a rule does not read."""
    return BoundParams(
        epsilon=args.epsilon,
        delta=args.delta if args.delta is not None else 0.5,
        vocab_size=args.V if args.V is not None else 2,
        num_contexts=args.m if args.m is not None else 1,
        input_dim=args.d if args.d is not None else 1,
        output_len=args.l if args.l is not None else 1,
        constant=args.constant,
    )


def _textgen(args: argparse.Namespace) -> dict:
    """The ``BoundResult`` fields, with ``formula_text`` printed as ``formula``."""
    fields = dataclasses.asdict(textgen_samples_per_context(_params(args), _CLI_MODES[args.mode]))
    fields["formula"] = fields.pop("formula_text")
    return fields


def _sized(calculator, args: argparse.Namespace) -> dict:
    """Printed fields of a rule whose calculator returns one size."""
    params = _params(args)
    return {"size": calculator(params), "formula": FORMULAS[args.kind].format(**vars(params))}


def _penalty(args: argparse.Namespace) -> dict:
    return {
        "subset_size": args.size,
        "penalty": subset_penalty(args.size, args.constant),
        "formula": FORMULAS["subset_penalty"].format(constant=args.constant, size=args.size),
    }


# kind -> (flags the rule reads, its printed fields as a function of the flags)
_RULES = {
    "textgen": (("V", "m", "epsilon", "delta"), _textgen),
    "bounded_textgen": (("V", "l", "epsilon", "delta"), partial(_sized, bounded_textgen_size)),
    "coreset": (("d", "epsilon"), partial(_sized, coreset_size)),
    "knn": (("epsilon", "delta"), partial(_sized, knn_context_size)),
    "subset_penalty": (("size",), _penalty),
}


def _cmd_bounds_calc(args: argparse.Namespace) -> int:
    flags, fields = _RULES[args.kind]
    for name in flags:
        if getattr(args, name) is None:
            raise ParameterError(f"missing --{name} (required for kind '{args.kind}')")
    print(json.dumps({"kind": args.kind, **fields(args)}, indent=2, sort_keys=True))
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
    summary = report_to_dict(report)  # the verdict fields, without config, extras or rows
    del summary["config"], summary["extras"]
    summary.update(kind=cfg.kind, trials=len(report.trials))
    if cfg.output_path is not None:
        summary["output_json"] = cfg.output_path
        summary["output_csv"] = str(csv_sibling(cfg.output_path))
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK if report.passed else EXIT_FAILED_VERIFICATION


def _load_pairs_file(path: str) -> tuple[list[ExamplePair], str | None, dict]:
    payload = load_json_object(path, "pairs file")
    if not isinstance(payload.get("pairs"), list):
        raise ParameterError(f"pairs file {path} must be a JSON object with a 'pairs' list")
    check_keys(payload, {"pairs", "query", "config"}, f"pairs file {path}")
    pairs = []
    for entry in payload["pairs"]:
        if isinstance(entry, dict) and {"input", "output"} <= entry.keys():
            check_keys(entry, {"input", "output"}, "a pair object")
            entry = [entry["input"], entry["output"]]
        if not isinstance(entry, list) or len(entry) != 2:
            raise ParameterError(
                f"each pair must be [input, output] or {{'input': ..., 'output': ...}}, "
                f"got {entry!r}"
            )
        pairs.append(ExamplePair(*entry))
    return pairs, payload.get("query"), payload.get("config", {})


def _cmd_prompt_build(args: argparse.Namespace) -> int:
    pairs, file_query, config_dict = _load_pairs_file(args.pairs)
    query = args.query if args.query is not None else file_query
    if query is None:
        raise ParameterError("missing --query (and the pairs file has no 'query' field)")
    config = from_object(PromptConfig, config_dict, "pairs file 'config'")
    if args.separator is not None:
        config = dataclasses.replace(config, separator=args.separator)
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
