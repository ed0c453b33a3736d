"""Federated training of group-debiased classifiers, with fairness metrics.

The package simulates FedAvg-style federated learning at desk scale and
implements a debiasing technique that gives the classifier one output
block per sensitive group: training scores each example only against
its own group's block, and prediction averages the per-group softmax
distributions so the sensitive attribute is not needed at test time.
A five-metric fairness suite (accuracy, skewed error ratio, equal
opportunity, bias amplification, demographic parity) scores the result.

The package root holds what a run needs end to end; the building blocks
(network engine, head, client training, aggregation, data) live in the
submodules ``nn``, ``head``, ``federation``, ``metrics`` and ``data``.
"""

from .config import ExperimentConfig, load_config, parse_config
from .exceptions import ConfigurationError, DataFormatError, NumericError
from .federation import Federation, FederationResult, Mode, run_federation
from .metrics import FairnessReport, full_report, load_prediction_log, tally

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "DataFormatError",
    "ExperimentConfig",
    "FairnessReport",
    "Federation",
    "FederationResult",
    "Mode",
    "NumericError",
    "full_report",
    "load_config",
    "load_prediction_log",
    "parse_config",
    "run_federation",
    "tally",
]
