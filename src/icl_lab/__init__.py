"""Verification lab for sample-size rules of idealized in-context learning.

The package has three layers: closed-form sample-size calculators
(:mod:`icl_lab.bounds`), the primitives they reason about (categorical
distributions, logistic classifiers, subset selection, the idealized
in-context responder), and a Monte Carlo harness
(:mod:`icl_lab.experiments`) that stress-tests each rule's (epsilon, delta)
promise with seeded, reproducible trials.

The package exports the calculators, the one experiment runner
(:func:`run_experiment`, which runs a config of any kind) and what the
acceptance criteria build their inputs from.  The other primitives are
imported from their modules: :mod:`icl_lab.distributions`,
:mod:`icl_lab.classify`, :mod:`icl_lab.oracle` and :mod:`icl_lab.reports`.
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
from .classify import LabeledDataset, LinearModel, TrainConfig, logistic_gradient, logistic_loss
from .distributions import Context, Vocabulary
from .errors import DivergenceError, ParameterError
from .experiments import ExperimentConfig, run_experiment
from .oracle import IclPromptSamples, icl_sequence_dist, icl_textgen_dist
from .prompts import ExamplePair, build_prompt

__version__ = "0.1.0"
