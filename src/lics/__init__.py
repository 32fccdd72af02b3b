"""Multilevel laser-induced continuum structure (LICS) simulation.

Two degenerate bound levels coupled through a common flat continuum:
effective non-Hermitian Hamiltonians, the bright/dark basis rotation
that block-diagonalizes them, the population trapping condition,
analytic and numerical propagation, ionization trajectories and Fano
detuning profiles.
"""

from . import analysis, dynamics, model, transforms
from .analysis import *
from .dynamics import *
from .model import *
from .transforms import *

__version__ = "0.1.0"

__all__ = sorted({*analysis.__all__, *dynamics.__all__, *model.__all__, *transforms.__all__})
