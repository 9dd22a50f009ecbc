"""Verification lab for sample-size rules of idealized in-context learning.

The package has three layers: closed-form sample-size calculators
(:mod:`icl_lab.bounds`), the primitives they reason about (categorical
distributions, logistic classifiers, subset selection, the idealized
in-context responder), and a Monte Carlo harness
(:mod:`icl_lab.experiments`) that stress-tests each rule's (epsilon, delta)
promise with seeded, reproducible trials.
"""

from .bounds import (
    MODE_BIG_O,
    MODE_EXACT,
    BoundParams,
    BoundResult,
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
    knn_select,
    logistic_gradient,
    logistic_loss,
    predict_prob,
    predict_probs,
    select_coreset,
    sensitivity_scores,
    sigmoid,
    train_logistic,
)
from .distributions import (
    CategoricalDistribution,
    Context,
    Vocabulary,
    empirical_distribution,
    l1_distance,
    random_distribution,
    sample_counts,
)
from .errors import DivergenceError, ParameterError
from .experiments import (
    ExperimentConfig,
    cluster_dataset,
    planted_linear_dataset,
    run_bounded_textgen_experiment,
    run_coreset_experiment,
    run_experiment,
    run_knn_experiment,
    run_subset_penalty_experiment,
    run_textgen_experiment,
    trial_rng,
)
from .oracle import (
    EtaModel,
    IclPromptSamples,
    encode_sequences,
    icl_counts_dist,
    icl_sequence_dist,
    icl_textgen_dist,
    mix_probability,
    mix_with_uniform,
)
from .prompts import (
    ExamplePair,
    PromptConfig,
    SeparatorCollisionWarning,
    build_prompt,
)
from .reports import (
    BoundReport,
    TrialResult,
    build_report,
    fit_log_log_slope,
    report_to_dict,
    write_csv_report,
    write_json_report,
)

__version__ = "0.1.0"
