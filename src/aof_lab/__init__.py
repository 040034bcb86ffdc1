"""Forecasting-loss analysis under feature staleness.

Exact generalized entropies and Bayes actions over finite laws, chi-squared
Markov-deviation and train/test mismatch radii, age-of-information
bookkeeping with stochastic ordering, synthetic processes with exactly
computable window laws, and the loss-versus-age analyses built on top.

Start-up: ``import aof_lab`` loads no submodule and not numpy.  Each public
name is imported from its module on first use (PEP 562 ``__getattr__``) and
then cached here, so ``aof_lab.X`` is the very object ``aof_lab.<module>.X``.
The CLI imports per command what the command calls: ``--help`` loads
``cli``, ``_util`` and ``errors``; ``order-check`` and ``simulate-aoi`` add
``spaces``, ``laws`` and ``aoi``; ``epsilon --model`` adds ``spaces``,
``laws``, ``processes`` and ``divergence``; ``age-curve --model`` and
``decompose --model`` add ``analysis``, ``information`` and ``losses`` in
place of ``divergence``; a ``--data`` command loads ``ingest`` and ``aoi``
and not ``processes`` (the README's "Start-up" section lists every
command).  Every command used to load all twelve modules.  Cold on a 2-CPU
host without a bytecode cache, ``--help`` fell from 0.27-0.29 s to 0.22 s
and ``order-check`` from 0.28 s to 0.24 s.  The CLI's only third-party
import is numpy: it parses with stdlib ``argparse``.

Neither ``import aof_lab`` nor library use touches the environment.  A
process that starts as the CLI sets ``OPENBLAS_NUM_THREADS=1`` before numpy
loads, unless it is already set, so OpenBLAS starts no worker thread that
would spin idle on another core.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it provides
_EXPORTS = {
    "aoi": (
        "AgeDistribution", "AgeProcess", "DeliveryTrace", "OrderingVerdict", "UpperSetWitness", "age_process",
        "empirical_age_distribution", "sample_path_dominates", "stochastic_order_multivariate",
        "stochastic_order_univariate",
    ),
    "analysis": (
        "DecompositionReport", "LossCurve", "TestingComparison", "TrainingComparison", "compare_experiments",
        "compare_testing_experiments", "decompose", "dynamic_joint", "joint_training_loss", "loss_curve",
        "min_training_loss", "testing_loss",
    ),
    "divergence": (
        "BetaReport", "EpsilonReport", "beta_between", "chi2_conditional_mi", "chi2_divergence", "epsilon_coefficient",
    ),
    "information": (
        "conditional_cross_entropy", "conditional_entropy", "conditional_mutual_information", "cross_entropy",
        "mutual_information",
    ),
    "ingest": (
        "Dataset", "EmpiricalLawProvider", "Quantizer", "assemble_dynamic", "dynamic_age_law", "empirical_window_law",
        "quantize", "smooth",
    ),
    "laws": ("LawProvider", "MixtureLawProvider", "WindowLaw"),
    "losses": (
        "BayesResult", "LossSpec", "bayes_action", "entropy", "expected_loss", "log_loss", "quadratic_loss",
        "table_loss", "zero_one_loss",
    ),
    "processes": (
        "ExactLawProvider", "ProcessModel", "exact_window_law", "make_hidden_nonmarkov", "make_markov_observable",
        "mix_toward_markov", "sample_trajectory",
    ),
    "spaces": ("JointPmf", "OutcomeSpace", "Pmf", "mix_joints"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        # a plain AttributeError: ``from aof_lab import aoi`` then falls back to the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
