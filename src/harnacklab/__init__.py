"""harnacklab: numerical verification of gradient estimates and Harnack
inequalities for weighted slow diffusion on rotationally symmetric smooth
metric measure spaces."""

from .fields import Grid, ScalarField, diff
from .geometry import (Cylinder, GeometryBounds, WarpedGeometry, bakry_emery_eigs,
                       extract_bounds, metric_speed)
from .params import AlphaBeta, HarnackParams, constant_alpha_beta, preset_alpha_beta
from .solver import (Nonlinearity, PdeParams, barenblatt_oracle, manufactured_forcing,
                     pressure, pressure_inverse, solve)
from .symfun import Profile

__version__ = "0.1.0"
