"""Desk-scale numerics for Lorentz sequence spaces, nuclear
representations, finite-rank approximation, and trace-formula audits on
finite l_p spaces.

The package exports every name in each library module's ``__all__``,
plus the experiment entry points."""

from . import sequences, spaces, nuclear, spectral, approximation
from .sequences import *
from .spaces import *
from .nuclear import *
from .spectral import *
from .approximation import *
from .experiments import ExperimentConfig, RunReport, run

__version__ = "0.1.0"

__all__ = [
    *sequences.__all__,
    *spaces.__all__,
    *nuclear.__all__,
    *spectral.__all__,
    *approximation.__all__,
    "ExperimentConfig",
    "RunReport",
    "run",
]
