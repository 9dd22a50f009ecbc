import ast
import dataclasses
import importlib
import inspect
import json
import re
from pathlib import Path

import icl_lab
from icl_lab import BoundParams, ExperimentConfig, TrainConfig

# The package's names: what the acceptance suite and conftest.py import, the
# paper's rule calculators with their modes and result, the two errors, the
# one runner, which runs a config of any kind, and the context type.
EXPORTS = {
    "BoundParams", "BoundResult", "MODE_BIG_O", "MODE_EXACT", "bounded_textgen_size",
    "coreset_size", "knn_context_size", "subset_penalty", "textgen_samples_per_context",
    "LabeledDataset", "LinearModel", "TrainConfig", "logistic_gradient", "logistic_loss",
    "Context", "Vocabulary", "DivergenceError", "ParameterError",
    "ExperimentConfig", "run_experiment",
    "IclPromptSamples", "icl_sequence_dist", "icl_textgen_dist",
    "ExamplePair", "build_prompt",
}

# Primitives that are imported from their own modules only.
MODULE_ONLY = {
    "classify": [
        "knn_select", "predict_probs", "select_coreset",
        "sensitivity_scores", "sigmoid", "train_logistic",
    ],
    "distributions": [
        "CategoricalDistribution", "empirical_distribution", "l1_distance",
        "random_distribution", "sample_counts",
    ],
    "experiments": ["planted_linear_dataset", "trial_rng"],
    "oracle": ["encode_sequences", "icl_counts_dist", "icl_counts_rows", "mix_with_uniform"],
    "prompts": ["PromptConfig", "SeparatorCollisionWarning"],
    "reports": [
        "BoundReport", "TrialResult", "build_report", "fit_log_log_slope",
        "report_to_dict", "write_csv_report", "write_json_report",
    ],
}


def test_package_exports_what_its_callers_use():
    public = {
        name
        for name, value in vars(icl_lab).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == EXPORTS
    for caller in ("test_acceptance.py", "conftest.py"):
        tree = ast.parse(Path(__file__).with_name(caller).read_text())
        imported = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "icl_lab"
            for alias in node.names
        }
        assert imported and imported <= EXPORTS, caller
    # One public runner: a config's kind picks its private runner.
    experiments = importlib.import_module("icl_lab.experiments")
    assert {name for name in vars(experiments) if name.startswith("run_")} == {"run_experiment"}
    for module, names in MODULE_ONLY.items():
        home = importlib.import_module(f"icl_lab.{module}")
        for name in names:
            assert not hasattr(icl_lab, name) and hasattr(home, name), name
    # One implementation per primitive: the twins of predict_probs and mix_with_uniform are gone.
    for module, name in (("classify", "predict_prob"), ("oracle", "mix_probability")):
        assert not hasattr(importlib.import_module(f"icl_lab.{module}"), name), name


def test_readme_config_schema_is_the_config():
    # The jsonc example under "Config schema", without its comments, is a valid
    # config that names every field of the config and of its sections.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    after = readme[readme.index("Config schema") :]
    block = after[after.index("```jsonc\n") + len("```jsonc\n") :]
    block = block[: block.index("```")]
    example = json.loads(re.sub(r"//.*", "", block))
    ExperimentConfig.from_dict(example)

    def names(cls):
        return {f.name for f in dataclasses.fields(cls)}

    assert set(example) == names(ExperimentConfig)
    for section, cls in (("params", BoundParams), ("train", TrainConfig)):
        assert set(example[section]) == names(cls), section
