"""marginlab: hard-distribution constructions for large-margin halfspace
learning, with numeric verifiers for the quantitative lemmas behind them."""

__version__ = "0.1.0"

from .harness import ExperimentConfig, run_gap_experiment, sweep, verify_lemmas
from .kernels import KernelSpec, RkhsProfile, standard_kernel
from .learners import SurrogateLoss, make_loss, train_kernel_program
from .measures import AdversarialSpec, certified_margin_bound, sample_dataset
from .orthopoly import PolyCoeffs, changes_slowly_gap
from .sphere import RngStream

__all__ = [
    "AdversarialSpec",
    "ExperimentConfig",
    "KernelSpec",
    "PolyCoeffs",
    "RkhsProfile",
    "RngStream",
    "SurrogateLoss",
    "certified_margin_bound",
    "changes_slowly_gap",
    "make_loss",
    "run_gap_experiment",
    "sample_dataset",
    "standard_kernel",
    "sweep",
    "train_kernel_program",
    "verify_lemmas",
]
