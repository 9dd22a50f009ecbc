import json
from pathlib import Path

import pytest

from icl_lab import BoundParams, ExperimentConfig, experiments
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

    @pytest.mark.parametrize("constant", ["nan", "inf", "0"])  # 0: finite, not positive
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

    @pytest.mark.parametrize(
        "flags",
        [
            # eps**2 underflows to 0: the rules divided by zero.
            "--kind textgen --V 20 --m 10 --epsilon 1e-200 --delta 0.05",
            "--kind textgen --V 20 --m 10 --epsilon 1e-200 --delta 0.05 --mode exact",
            "--kind knn --epsilon 1e-200 --delta 0.05",
            "--kind bounded_textgen --V 5 --l 2 --epsilon 1e-200 --delta 0.05",
            # The size overflows to inf: ceil raised OverflowError.
            "--kind coreset --d 5 --epsilon 1e-320",
            "--kind textgen --V 20 --m 10 --epsilon 1e-160 --delta 0.05",
            # 1/delta overflows to inf, and so does the size.
            "--kind knn --epsilon 0.2 --delta 5e-324",
            "--kind textgen --V 20 --m 10 --epsilon 0.2 --delta 5e-324",
            "--kind bounded_textgen --V 5 --l 2 --epsilon 0.2 --delta 5e-324",
            # A huge constant overflows the size.
            "--kind coreset --d 5 --epsilon 0.1 --constant 1e308",
            "--kind knn --epsilon 0.2 --delta 0.05 --constant 1e307",
            "--kind bounded_textgen --V 5 --l 2 --epsilon 0.2 --delta 0.05 --constant 1e307",
            "--kind textgen --V 20 --m 10 --epsilon 0.2 --delta 0.05 --constant 1e307",
            # The exact mode reads no constant.
            "--kind textgen --V 20 --m 10 --epsilon 1e-200 --delta 0.05 --constant 1e307 "
            "--mode exact",
            # A huge integer overflows too; the reason used not to name it.
            pytest.param(f"--kind coreset --d {10**400} --epsilon 0.1", id="coreset-d-10**400"),
            pytest.param(
                f"--kind textgen --V {10**400} --m 10 --epsilon 0.2 --delta 0.05",
                id="textgen-V-10**400",
            ),
            pytest.param(
                f"--kind textgen --V 20 --m {10**400} --epsilon 0.2 --delta 0.05",
                id="textgen-m-10**400",
            ),
            pytest.param(
                f"--kind textgen --V {10**200} --m 10 --epsilon 0.2 --delta 0.05 --mode exact",
                id="textgen-exact-V-10**200",
            ),
            pytest.param(
                f"--kind bounded_textgen --V 5 --l {10**400} --epsilon 0.2 --delta 0.05",
                id="bounded_textgen-l-10**400",
            ),
        ],
    )
    def test_tiny_epsilon_is_one_error_line(self, capsys, flags):
        code, out, err = run_cli(capsys, "bounds", "calc", *flags.split())
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        opts = dict(zip(flags.split()[::2], flags.split()[1::2]))
        # The error names only what the rule reads: coreset reads no delta, and
        # textgen's exact mode no constant.
        read = ["epsilon"] + ["delta"] * ("--delta" in opts)
        read += ["constant"] * (opts.get("--mode") != "exact")
        at = ", ".join(f"{name} = {float(opts.get(f'--{name}', 1.0))!r}" for name in read)
        assert f"at {at} is not a finite" in err
        for name in ("delta", "constant"):
            assert (name in err) == (name in read)
        # The reason names a huge integer flag's field among the causes.
        fields = dict(V="vocab_size", m="num_contexts", d="input_dim", l="output_len")
        for flag, field in fields.items():
            assert len(opts.get(f"--{flag}", "")) < 100 or f"or {field} " in err.split("; ")[1]

    def test_huge_subset_size_is_one_error_line(self, capsys):
        code, out, err = run_cli(
            capsys, "bounds", "calc", "--kind", "subset_penalty", "--size", str(10**400)
        )
        assert (code, out) == (1, "")
        assert err == "error: subset size must fit in a float, got a larger integer\n"

    @pytest.mark.parametrize(
        "flags",
        [
            "--kind bounded_textgen --V 1 --l 2 --epsilon 0.2 --delta 0.05",
            # BoundParams refuses V = 1 for every kind; these used to print 93 and 50.
            "--kind textgen --V 1 --m 2 --epsilon 0.2 --delta 0.05",
            "--kind coreset --d 5 --epsilon 0.1 --V 1",
        ],
        ids=["bounded_textgen", "textgen", "coreset"],
    )
    def test_single_token_sequences_are_one_error_line(self, capsys, flags):
        code, out, err = run_cli(capsys, "bounds", "calc", *flags.split())
        assert (code, out) == (1, "")
        assert err.startswith("error: vocab_size ") and err.count("\n") == 1


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

    def test_summary_is_the_reports_verdict_fields(self, capsys, tmp_path, config_path):
        out_path = tmp_path / "report.json"
        _, out, _ = run_cli(
            capsys, "verify", "textgen", "--config", str(config_path), "--output", str(out_path)
        )
        report = json.loads(out_path.read_text())
        verdict = ("ci_halfwidth", "delta_target", "failure_rate", "pass")
        expected = {key: report[key] for key in verdict}
        expected.update(
            kind="textgen",
            trials=len(report["trials"]),
            output_json=str(out_path),
            output_csv=str(tmp_path / "report.csv"),
        )
        assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"

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

    def test_divergent_knn_fit_is_a_failing_row(self, capsys, tmp_path, unfloored_directions):
        # Trial 2's query 7 has a three-point single-class neighbourhood whose fit,
        # through the unfloored direction solve, diverges at iteration 690; a
        # divergent fit used to end the run with a traceback.
        config = {
            "kind": "knn", "params": {"epsilon": 0.2, "delta": 0.05, "input_dim": 2},
            "trials": 5, "seed": 1, "dataset_size": 200, "knn_sizes": [3], "eval_points": 16,
            "planted_norm": 50.0,
            "train": {"max_iters": 2000, "grad_tolerance": 1e-300, "l2_reg": 0.0},
        }
        path, out_path = tmp_path / "knn.json", tmp_path / "report.json"
        path.write_text(json.dumps(config))
        code, _, _ = run_cli(
            capsys, "verify", "knn", "--config", str(path), "--output", str(out_path)
        )
        assert code == 2
        rows = json.loads(out_path.read_text())["trials"]
        assert rows[2]["sup_error"] is None and rows[2]["failed"] is True  # inf, as JSON null
        assert rows[2]["detail"].endswith("; query 7: non-finite training loss at iteration 690")
        assert all(0 <= row["sup_error"] < 1 for i, row in enumerate(rows) if i != 2)
        csv_rows = (tmp_path / "report.csv").read_text().splitlines()
        assert csv_rows[3] == "2,inf,1"

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
            ("knn_sizes", [16, 1.5]),
            ("subset_sizes", [True]),
            ("concentration", "1.0"),
            ("concentration", True),
            ("concentration", float("nan")),
            # Not config fields: refused as unknown keys.  The report path is
            # --output's alone.
            ("output_path", "r.json"),
            ("output_path", 5),
            ("cluster_separation", "1.5"),
            ("sequence_limit", "10"),
            ("noise_scale", None),
            ("planted_norm", float("inf")),
            ("coreset_strategy", "grid"),
            ("params", [1, 2]),
            ("train", 5),
            ("eta", "none"),
            # eta is the number itself, not the object it used to be.
            ("eta", {"eta": 0.1}),
            ("eta", {"kind": "uniform_mix", "eta": 0.1}),
            # A null subset_sizes crashed subset_penalty runs with a TypeError traceback.
            ("subset_sizes", None),
            ("mode", "bigo"),
            ("concentration", 0),
            ("planted_norm", -1.0),
            # Past the float range: math.isfinite raised OverflowError.
            pytest.param("eta", 10**400, id="eta-10**400"),
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
            ("train", "learning_rate", 0),
            ("train", "grad_tolerance", 0),
            ("train", "l2_reg", -0.001),
            ("params", "vocab_size", 1),
            ("params", "num_contexts", True),
            ("params", "input_dim", True),
            ("train", "max_iters", True),
            ("params", "foo", 1),
            ("train", "lr", 1),
            pytest.param("params", "epsilon", 10**400, id="params-epsilon-10**400"),
            pytest.param("train", "l2_reg", 10**400, id="train-l2_reg-10**400"),
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

    @pytest.mark.parametrize(
        "kind, key, value",
        [
            # A repeated size used to alias: its rows were one draw counted twice.
            ("knn", "knn_sizes", [8, 8]),
            ("coreset", "coreset_sizes", [10, 40, 10]),
            ("subset_penalty", "subset_sizes", [100, 100, 400]),
            # One outcome: bounded_textgen and subset_penalty used to run every
            # trial at error 0.0 and pass.
            ("textgen", "vocab_size", 1),
            ("bounded_textgen", "vocab_size", 1),
            ("subset_penalty", "vocab_size", 1),
            # BoundParams refuses V = 1 for the classification kinds too.
            ("coreset", "vocab_size", 1),
            ("knn", "vocab_size", 1),
        ],
    )
    def test_aliased_sweep_or_single_outcome_runs_no_trial(
        self, capsys, tmp_path, tiny_config, monkeypatch, kind, key, value
    ):
        payload = tiny_config(kind).to_dict()
        (payload["params"] if key == "vocab_size" else payload)[key] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        monkeypatch.setattr(experiments, "trial_rng", pytest.fail)
        code, out, err = run_cli(
            capsys, "verify", kind, "--config", str(path), "--output", str(tmp_path / "r.json")
        )
        assert (code, out) == (1, "")
        assert key in err and err.startswith("error: ") and err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_csv_output_path_is_parameter_error(self, capsys, tmp_path, config_path):
        # The JSON report used to be written to r.csv and then overwritten by the CSV.
        code, out, err = run_cli(
            capsys, "verify", "textgen", "--config", str(config_path),
            "--output", str(tmp_path / "r.csv"),
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "r.csv" in err and err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == [config_path.name]

    @pytest.mark.parametrize("directory", ["out.json", "out.csv"])
    def test_report_path_naming_a_directory_runs_no_trial(
        self, capsys, tmp_path, config_path, monkeypatch, directory
    ):
        # Either report path being a directory used to surface only after every trial.
        (tmp_path / directory).mkdir()
        monkeypatch.setattr(experiments, "trial_rng", pytest.fail)
        code, out, err = run_cli(
            capsys, "verify", "textgen", "--config", str(config_path),
            "--output", str(tmp_path / "out.json"),
        )
        assert (code, out) == (3, "")
        assert err.startswith("i/o error: ") and directory in err and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([config_path.name, directory])

    @pytest.mark.parametrize("report", ["out.json", "out.csv"])
    def test_missing_report_directory_names_the_report(
        self, capsys, tmp_path, config_path, monkeypatch, report
    ):
        # The error names the report path that was given, not its temporary.
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(experiments, "trial_rng", pytest.fail)
        if report == "out.csv":  # a dangling link as the CSV's temporary: only it fails
            Path(".out.csv.tmp").symlink_to(tmp_path / "nodir" / "out.csv")
            output = "out.json"
        else:
            output = "nodir/out.json"
        code, out, err = run_cli(
            capsys, "verify", "textgen", "--config", str(config_path), "--output", output
        )
        assert (code, out) == (3, "")
        missing = str(Path(output).with_name(report))
        assert err == f"i/o error: [Errno 2] No such file or directory: {missing!r}\n"
        assert [p.name for p in tmp_path.iterdir()] == [config_path.name]

    def test_failed_csv_write_leaves_no_json(self, capsys, tmp_path, config_path, monkeypatch):
        def refuse(report, path):
            raise PermissionError(f"cannot write {path}")

        monkeypatch.setattr(experiments, "write_csv_report", refuse)
        code, _, err = run_cli(
            capsys, "verify", "textgen", "--config", str(config_path),
            "--output", str(tmp_path / "out.json"),
        )
        assert code == 3 and err.startswith("i/o error: cannot write")
        assert [p.name for p in tmp_path.iterdir()] == [config_path.name]

    def test_failed_trial_leaves_no_report(self, capsys, tmp_path, config_path, monkeypatch):
        def broken(seed, i):
            raise OSError("trial failed")

        monkeypatch.setattr(experiments, "trial_rng", broken)
        code, _, _ = run_cli(
            capsys, "verify", "textgen", "--config", str(config_path),
            "--output", str(tmp_path / "out.json"),
        )
        assert code == 3
        assert [p.name for p in tmp_path.iterdir()] == [config_path.name]

    @pytest.mark.parametrize(
        "kind, key, epsilon",
        [
            ("textgen", "samples_override", 1e-200),
            ("bounded_textgen", "samples_override", 1e-200),
            ("coreset", "coreset_sizes", 1e-320),
            ("knn", "knn_sizes", 1e-200),
        ],
    )
    def test_calculator_size_at_tiny_epsilon_runs_no_trial(
        self, capsys, tmp_path, tiny_config, monkeypatch, kind, key, epsilon
    ):
        # A null size is the calculator's, which is not a finite number here.
        payload = tiny_config(kind).to_dict()
        payload[key] = None
        payload["params"]["epsilon"] = epsilon
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        monkeypatch.setattr(experiments, "trial_rng", pytest.fail)
        code, out, err = run_cli(
            capsys, "verify", kind, "--config", str(path), "--output", str(tmp_path / "r.json")
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "epsilon" in err and err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    @pytest.mark.parametrize(
        "kind, changes",
        [
            ("textgen", {"samples_override": 2**63}),
            ("textgen", {"samples_override": 10**30}),
            ("bounded_textgen", {"samples_override": 2**63}),
            ("subset_penalty", {"subset_sizes": [10, 2**64]}),
            # The exact rule's size here is about 2.6e20.
            ("textgen", {"samples_override": None, "mode": "exact",
                         "params": {"epsilon": 1e-5, "delta": 0.05, "vocab_size": 50_000}}),
        ],
        ids=["textgen-2**63", "textgen-10**30", "bounded_textgen-2**63", "subset_penalty-2**64",
             "textgen-exact-2.6e20"],
    )
    def test_sample_size_past_the_largest_draw_runs_no_trial(
        self, capsys, tmp_path, tiny_config, monkeypatch, kind, changes
    ):
        # numpy's multinomial takes n up to 2**63 - 1; past it, a run used to end
        # in an OverflowError traceback.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(tiny_config(kind).to_dict(), **changes)))
        monkeypatch.setattr(experiments, "trial_rng", pytest.fail)
        code, out, err = run_cli(
            capsys, "verify", kind, "--config", str(path), "--output", str(tmp_path / "r.json")
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: sample size ") and err.count("\n") == 1
        assert err.endswith(" exceeds the largest draw, 2**63 - 1\n")
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    @pytest.mark.parametrize(
        "kind, key",
        [
            ("textgen", "trials"),
            ("knn", "eval_points"),
            ("coreset", "eval_points"),
            ("coreset", "dataset_size"),
            ("knn", "dataset_size"),
            ("textgen", "--trials"),
        ],
    )
    def test_count_past_numpy_ceiling_runs_no_trial(
        self, capsys, tmp_path, tiny_config, monkeypatch, kind, key
    ):
        # A huge count used to end in a traceback: trials in _run_sweep's range
        # (OverflowError), the others in numpy ("Maximum allowed dimension exceeded").
        payload = tiny_config(kind).to_dict()
        override = ["--trials", str(10**30)] if key == "--trials" else []
        if not override:
            payload[key] = 10**30
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        monkeypatch.setattr(experiments, "trial_rng", pytest.fail)
        code, out, err = run_cli(
            capsys, "verify", kind, "--config", str(path), "--output", str(tmp_path / "r.json"),
            *override,
        )
        assert (code, out) == (1, "")
        name = key.lstrip("-")
        low = 2 if name == "dataset_size" else 1
        assert err == f"error: {name} must be an integer in [{low}, 2**63 - 1], got {10**30}\n"
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

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

    @pytest.mark.parametrize(
        "text",
        [
            "{not json",
            "[1, 2]",
            # Past json.load's limits: these ended in a ValueError or RecursionError.
            pytest.param('{"trials": 1' + "0" * 4300 + "}", id="4301-digits"),
            pytest.param("[" * 100_000, id="100000-deep"),
        ],
    )
    @pytest.mark.parametrize(
        "argv", [("verify", "textgen", "--config"), ("prompt", "build", "--pairs")]
    )
    def test_unreadable_json_file_is_parameter_error(self, capsys, tmp_path, argv, text):
        path = tmp_path / "in.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, *argv, str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and str(path) in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, text, key",
        [
            # The last value used to win: these ran 1 trial, ran at epsilon 0.3
            # and printed "a b [SEP] q2".
            (
                ("verify", "textgen", "--config"),
                '{"kind": "textgen", "trials": 3, "trials": 1, "samples_override": 50, '
                '"params": {"epsilon": 0.2, "delta": 0.05, "vocab_size": 4, "num_contexts": 2}}',
                "trials",
            ),
            (
                ("verify", "textgen", "--config"),
                '{"kind": "textgen", "trials": 3, "samples_override": 50, '
                '"params": {"epsilon": 0.2, "epsilon": 0.3, '
                '"delta": 0.05, "vocab_size": 4, "num_contexts": 2}}',
                "epsilon",
            ),
            (
                ("prompt", "build", "--pairs"),
                '{"pairs": [["a", "b"]], "query": "q1", "query": "q2"}',
                "query",
            ),
        ],
        ids=["trials", "params.epsilon", "pairs.query"],
    )
    def test_repeated_json_key_is_parameter_error(
        self, capsys, tmp_path, monkeypatch, argv, text, key
    ):
        path = tmp_path / "in.json"
        path.write_text(text)
        monkeypatch.setattr(experiments, "trial_rng", pytest.fail)
        output = ["--output", str(tmp_path / "r.json")] if argv[0] == "verify" else []
        code, out, err = run_cli(capsys, *argv, str(path), *output)
        assert (code, out) == (1, "")
        assert err == f"error: {argv[-1][2:]} file {path} repeats keys {[key]}\n"
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    @pytest.mark.parametrize(
        "argv", [("verify", "textgen", "--config"), ("prompt", "build", "--pairs")]
    )
    def test_non_utf8_file_is_parameter_error(self, capsys, tmp_path, argv):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff{}")
        code, out, err = run_cli(capsys, *argv, str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {argv[-1][2:]} file {path} is not UTF-8 text: ")
        assert err.count("\n") == 1

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
    def test_sweep_run_does_not_import_numpy_ma(self, tmp_path, tiny_config, fresh_python, kind):
        # np.median imports numpy.ma, about 15 ms of start-up, so the runner avoids it.
        # numpy.random's import leaves out `secrets` and the OpenSSL library it loads.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_config(kind).to_dict()))
        script = (
            "import sys\n"
            "from icl_lab.cli import main\n"
            f"code = main(['verify', {kind!r}, '--config', {str(path)!r}])\n"
            "print(code, *(name in sys.modules for name in ('numpy.ma', 'secrets', '_hashlib')))\n"
        )
        code, *imported = fresh_python(script).split()[-4:]
        assert code in ("0", "2") and imported == ["False"] * 3


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

    def test_separator_flag_wins(self, capsys, tmp_path):
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps(dict(SENTIMENT_PAIRS_FILE, config={"separator": "|"})))
        argv = ("prompt", "build", "--pairs", str(path), "--separator", "##")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.rstrip("\n") == (
            "Great movie! positive ## Terrible plot. negative ## Amazing soundtrack!"
        )

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
