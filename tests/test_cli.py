import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import icl_lab

from icl_lab import BoundParams, ExperimentConfig
from icl_lab.cli import main
from icl_lab.experiments import KINDS

SENTIMENT_PAIRS_FILE = {
    "pairs": [
        ["Great movie!", "positive"],
        ["Terrible plot.", "negative"],
    ],
    "query": "Amazing soundtrack!",
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# The six README `bounds calc` examples and their stdout, byte for byte.
README_BOUNDS_CALCS = [
    (
        "--kind textgen --V 50000 --m 100 --epsilon 0.1 --delta 0.01 --mode bigo --constant 1",
        '{\n  "formula": "n = ceil(1 * (V/eps^2) * ln(m/delta)); V=50000, m=100, eps=0.1, '
        'delta=0.01 (natural log)",\n  "kind": "textgen",\n  "mode": "big_o",\n'
        '  "per_context": 46051702,\n  "total": 4605170200\n}\n',
    ),
    (
        "--kind textgen --V 20 --m 10 --epsilon 0.2 --delta 0.05 --mode exact",
        '{\n  "formula": "n = ceil((V^2/(2*eps^2)) * ln(2*V*m/delta)); V=20, m=10, eps=0.2, '
        'delta=0.05 (natural log; constants fixed by the union-bound derivation)",\n'
        '  "kind": "textgen",\n  "mode": "exact",\n  "per_context": 44936,\n'
        '  "total": 449360\n}\n',
    ),
    (
        "--kind knn --epsilon 0.1 --delta 0.01",
        '{\n  "formula": "k = ceil(1 * (1/eps^2) * ln(1/delta)) (natural log)",\n'
        '  "kind": "knn",\n  "size": 461\n}\n',
    ),
    (
        "--kind coreset --d 10 --epsilon 0.1",
        '{\n  "formula": "size = ceil(1 * d/eps); d=10",\n  "kind": "coreset",\n'
        '  "size": 100\n}\n',
    ),
    (
        "--kind bounded_textgen --V 5 --l 2 --epsilon 0.2 --delta 0.05",
        '{\n  "formula": "k = ceil(1 * (l*ln(V)/eps^2) * ln(1/delta)); V=5, l=2 (natural log)",\n'
        '  "kind": "bounded_textgen",\n  "size": 242\n}\n',
    ),
    (
        "--kind subset_penalty --size 100",
        '{\n  "formula": "penalty = 1 / sqrt(size); size=100",\n  "kind": "subset_penalty",\n'
        '  "penalty": 0.1,\n  "subset_size": 100\n}\n',
    ),
]


class TestBoundsCalc:
    @pytest.mark.parametrize("flags, stdout", README_BOUNDS_CALCS)
    def test_readme_example_stdout(self, capsys, flags, stdout):
        assert run_cli(capsys, "bounds", "calc", *flags.split()) == (0, stdout, "")

    @pytest.mark.parametrize("constant", ["nan", "inf"])
    def test_non_finite_penalty_constant_is_parameter_error(self, capsys, constant):
        code, out, err = run_cli(
            capsys, "bounds", "calc", "--kind", "subset_penalty", "--size", "100",
            "--constant", constant,
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: constant")

    def test_textgen_worked_example(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "bounds", "calc", "--kind", "textgen", "--V", "50000", "--m", "100",
            "--epsilon", "0.1", "--delta", "0.01", "--mode", "bigo", "--constant", "1",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["total"] == 4_605_170_200
        assert abs(payload["total"] - 4.6e9) / 4.6e9 < 0.02

    def test_exact_mode(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "bounds", "calc", "--kind", "textgen", "--V", "20", "--m", "10",
            "--epsilon", "0.2", "--delta", "0.05", "--mode", "exact",
        )
        assert code == 0
        assert json.loads(out)["per_context"] == 44_936

    def test_missing_delta_names_flag(self, capsys):
        code, _, err = run_cli(
            capsys,
            "bounds", "calc", "--kind", "textgen", "--V", "10", "--m", "2",
            "--epsilon", "0.1",
        )
        assert code == 1
        assert "--delta" in err

    def test_knn_kind(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "bounds", "calc", "--kind", "knn", "--epsilon", "0.1", "--delta", "0.01",
        )
        assert code == 0
        assert json.loads(out)["size"] == 461

    def test_coreset_kind(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "calc", "--kind", "coreset", "--d", "10", "--epsilon", "0.1"
        )
        assert code == 0
        assert json.loads(out)["size"] == 100

    def test_subset_penalty_kind(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "calc", "--kind", "subset_penalty", "--size", "100"
        )
        assert code == 0
        assert json.loads(out)["penalty"] == pytest.approx(0.1)

    def test_invalid_epsilon_is_parameter_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            "bounds", "calc", "--kind", "knn", "--epsilon", "3.0", "--delta", "0.01",
        )
        assert code == 1
        assert "epsilon" in err


class TestVerify:
    @pytest.fixture
    def config_path(self, tmp_path):
        cfg = ExperimentConfig(
            kind="textgen",
            params=BoundParams(epsilon=0.2, delta=0.05, vocab_size=8, num_contexts=3),
            trials=10,
            seed=21,
            samples_override=400,
            mode="big_o",
        )
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        return path

    def test_runs_and_writes_reports(self, capsys, tmp_path, config_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "verify", "textgen", "--config", str(config_path), "--output", str(out_path)
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["pass"] is True
        assert out_path.exists()
        assert (tmp_path / "report.csv").exists()

    def test_reports_are_byte_identical_across_runs(self, capsys, tmp_path, config_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(capsys, "verify", "textgen", "--config", str(config_path), "--output", str(a))
        run_cli(capsys, "verify", "textgen", "--config", str(config_path), "--output", str(b))
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_failing_run_exits_two(self, capsys, tmp_path):
        cfg = ExperimentConfig(
            kind="textgen",
            params=BoundParams(epsilon=0.2, delta=0.05, vocab_size=20, num_contexts=3),
            trials=10,
            seed=2,
            samples_override=1,
        )
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg.to_dict()))
        code, out, _ = run_cli(capsys, "verify", "textgen", "--config", str(path))
        assert code == 2
        assert json.loads(out)["pass"] is False

    def test_kind_mismatch_is_parameter_error(self, capsys, config_path):
        code, _, err = run_cli(capsys, "verify", "knn", "--config", str(config_path))
        assert code == 1
        assert "kind" in err

    def test_missing_config_file_is_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "verify", "textgen", "--config", str(tmp_path / "nope.json")
        )
        assert code == 3

    def test_negative_seed_is_parameter_error(self, capsys, tmp_path, config_path):
        out_path = tmp_path / "r.json"
        code, _, err = run_cli(
            capsys, "verify", "textgen", "--config", str(config_path),
            "--output", str(out_path), "--seed", "-1",
        )
        assert code == 1
        assert "seed" in err
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("seed", 1.5),
            ("seed", "7"),
            ("trials", "3"),
            ("trials", True),
            ("eval_points", 2.0),
            ("samples_override", 400.0),
            ("dataset_size", 100.0),
            ("sequence_limit", "10"),
            ("knn_sizes", [16, 1.5]),
            ("subset_sizes", [True]),
            ("concentration", "1.0"),
            ("concentration", True),
            ("concentration", float("nan")),
            # Not config fields: refused as unknown keys.
            ("cluster_separation", "1.5"),
            ("noise_scale", None),
            ("planted_norm", float("inf")),
            ("coreset_strategy", "grid"),
            ("params", [1, 2]),
            ("train", 5),
            ("eta", "none"),
            # A null subset_sizes crashed subset_penalty runs, and a non-string
            # output_path every run after its trials, each with a TypeError traceback.
            ("subset_sizes", None),
            ("output_path", 5),
        ],
    )
    def test_non_integer_config_value_is_parameter_error(
        self, capsys, tmp_path, config_path, key, value
    ):
        payload = dict(json.loads(config_path.read_text()), **{key: value})
        config_path.write_text(json.dumps(payload))
        out_path = tmp_path / "r.json"
        code, _, err = run_cli(
            capsys, "verify", "textgen", "--config", str(config_path), "--output", str(out_path)
        )
        assert code == 1
        assert key in err and err.startswith("error: ") and err.count("\n") == 1
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("params", "epsilon", "0.2"),
            ("params", "delta", True),
            ("params", "constant", float("inf")),
            ("train", "learning_rate", "0.5"),
            ("train", "grad_tolerance", float("nan")),
            ("train", "l2_reg", True),
            ("eta", "eta", "0.1"),
            ("params", "vocab_size", 1),
            ("params", "num_contexts", True),
            ("params", "input_dim", True),
            ("train", "max_iters", True),
            ("params", "foo", 1),
            ("train", "lr", 1),
            ("eta", "scale", 0.1),
        ],
    )
    def test_bad_nested_config_value_is_parameter_error(
        self, capsys, tmp_path, config_path, section, key, value
    ):
        payload = json.loads(config_path.read_text())
        payload[section] = dict(payload[section], **{key: value})
        config_path.write_text(json.dumps(payload))
        out_path = tmp_path / "r.json"
        code, _, err = run_cli(
            capsys, "verify", "textgen", "--config", str(config_path), "--output", str(out_path)
        )
        assert code == 1
        assert key in err
        assert not out_path.exists()

    def test_csv_output_path_is_parameter_error(self, capsys, tmp_path, config_path):
        # The JSON report used to be written to r.csv and then overwritten by the CSV.
        code, out, err = run_cli(
            capsys, "verify", "textgen", "--config", str(config_path),
            "--output", str(tmp_path / "r.csv"),
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "r.csv" in err and err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == [config_path.name]

    @pytest.mark.parametrize("length", [4000, 5000])
    def test_oversized_sequence_space_is_one_error_line(self, capsys, tmp_path, length):
        path = tmp_path / "bt.json"
        params = {"epsilon": 0.2, "delta": 0.05, "vocab_size": 10, "output_len": length}
        path.write_text(json.dumps({"kind": "bounded_textgen", "params": params, "trials": 2}))
        code, out, err = run_cli(capsys, "verify", "bounded_textgen", "--config", str(path))
        assert (code, out) == (1, "")
        assert err == (
            f"error: sequence space V^l = 10^{length} exceeds the limit 1000000; "
            "use a smaller vocabulary or shorter length\n"
        )

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]"])
    @pytest.mark.parametrize(
        "argv", [("verify", "textgen", "--config"), ("prompt", "build", "--pairs")]
    )
    def test_unreadable_json_file_is_parameter_error(self, capsys, tmp_path, argv, text):
        path = tmp_path / "in.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, *argv, str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and str(path) in err and err.count("\n") == 1

    def test_trials_override(self, capsys, tmp_path, config_path):
        out_path = tmp_path / "r.json"
        code, _, _ = run_cli(
            capsys, "verify", "textgen", "--config", str(config_path),
            "--output", str(out_path), "--trials", "4",
        )
        assert code == 0
        assert len(json.loads(out_path.read_text())["trials"]) == 4

    @pytest.mark.parametrize("kind", KINDS)
    def test_reports_are_strict_json_and_plain_csv(self, capsys, tmp_path, tiny_config, kind):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_config(kind).to_dict()))
        out_path = tmp_path / "r.json"
        code, _, err = run_cli(
            capsys, "verify", kind, "--config", str(path), "--output", str(out_path)
        )
        assert code in (0, 2), err

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        rows = json.loads(out_path.read_text(), parse_constant=reject)["trials"]
        assert rows and all(type(row["failed"]) is bool for row in rows)
        csv_rows = (tmp_path / "r.csv").read_text().splitlines()[1:]
        assert len(csv_rows) == len(rows)
        for line in csv_rows:
            float(line.split(",")[1])


    @pytest.mark.parametrize("kind", ["knn", "coreset", "subset_penalty"])
    def test_sweep_run_does_not_import_numpy_ma(self, tmp_path, tiny_config, kind):
        # np.median imports numpy.ma, about 15 ms of start-up, so the runner avoids it.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_config(kind).to_dict()))
        script = (
            "import sys\n"
            "from icl_lab.cli import main\n"
            f"code = main(['verify', {kind!r}, '--config', {str(path)!r}])\n"
            "print(code, 'numpy.ma' in sys.modules)\n"
        )
        src = str(Path(icl_lab.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
        )
        code, imported = done.stdout.split()[-2:]
        assert code in ("0", "2") and imported == "False"


class TestPromptBuild:
    def test_reference_prompt(self, capsys, tmp_path):
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps(SENTIMENT_PAIRS_FILE))
        code, out, _ = run_cli(capsys, "prompt", "build", "--pairs", str(path))
        assert code == 0
        assert out.rstrip("\n") == (
            "Great movie! positive [SEP] Terrible plot. negative [SEP] Amazing soundtrack!"
        )

    def test_query_flag_wins(self, capsys, tmp_path):
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps(SENTIMENT_PAIRS_FILE))
        code, out, _ = run_cli(
            capsys, "prompt", "build", "--pairs", str(path), "--query", "Decent acting."
        )
        assert code == 0
        assert out.rstrip("\n").endswith("[SEP] Decent acting.")

    def test_dict_style_pairs(self, capsys, tmp_path):
        path = tmp_path / "pairs.json"
        path.write_text(
            json.dumps({"pairs": [{"input": "in", "output": "out"}], "query": "q"})
        )
        code, out, _ = run_cli(capsys, "prompt", "build", "--pairs", str(path))
        assert code == 0
        assert out.rstrip("\n") == "in out [SEP] q"

    def test_missing_query(self, capsys, tmp_path):
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps({"pairs": [["a", "b"]]}))
        code, _, err = run_cli(capsys, "prompt", "build", "--pairs", str(path))
        assert code == 1
        assert "--query" in err


    @pytest.mark.parametrize(
        "payload",
        [
            {"pairs": [["a", "b", "c"]]},
            {"pairs": [{"output": "b"}]},
            {"pairs": [["a", "b"]], "config": {"sep": "|"}},
            {"pairs": [[1, "b"]]},
            {"pairs": 5},
        ],
    )
    def test_malformed_pairs_file_is_parameter_error(self, capsys, tmp_path, payload):
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps(dict(payload, query="q")))
        code, out, err = run_cli(capsys, "prompt", "build", "--pairs", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "Traceback" not in err


    def test_non_bool_trailing_separator_is_parameter_error(self, capsys, tmp_path):
        # "no" used to run as true and print "a b [SEP] q".
        path = tmp_path / "pairs.json"
        payload = {"pairs": [["a", "b"]], "query": "q"}
        path.write_text(json.dumps(dict(payload, config={"trailing_separator_before_query": "no"})))
        code, out, err = run_cli(capsys, "prompt", "build", "--pairs", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "trailing_separator_before_query" in err

    @pytest.mark.parametrize(
        "extra, key",
        [({"extra": 1}, "extra"), ({}, "label")],
    )
    def test_unknown_pairs_file_key_is_parameter_error(self, capsys, tmp_path, extra, key):
        # Both used to print "a b [SEP] q" and exit 0.
        path = tmp_path / "pairs.json"
        payload = {"pairs": [{"input": "a", "output": "b", "label": "x"}], "query": "q"}
        path.write_text(json.dumps(dict(payload, **extra)))
        code, out, err = run_cli(capsys, "prompt", "build", "--pairs", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and repr(key) in err


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 1
        assert "usage" in err.lower()

    def test_no_arguments(self, capsys):
        assert run_cli(capsys)[0] == 1

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0
