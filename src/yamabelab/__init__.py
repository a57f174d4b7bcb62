"""Numerical laboratory for radial self-similar profiles of the conformal
fast-diffusion flow: profile integration, curvature reconstruction,
asymptotic verification, and blow-up certification."""

from . import analysis, core_params, geometry, profile_solver
from .analysis import *
from .core_params import *
from .geometry import *
from .profile_solver import *

__version__ = "0.1.0"

__all__ = [*analysis.__all__, *core_params.__all__, *geometry.__all__, *profile_solver.__all__]
