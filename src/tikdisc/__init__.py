"""Tikhonov regularization with discrepancy-based choice of the
regularization parameter and the domain discretization level."""

from .diagnostics import RateTable, bregman_distance, eta_m, l2_error, rate_table
from .discrepancy import (DiscrepancyBand, MorozovResult, SearchExhaustedError,
                          SequentialResult, check_band, joint_discrepancy_search,
                          morozov_alpha_search, sequential_discrepancy)
from .grids import (Grid, Surface, clamp, constant_surface, inner, interpolate,
                    load_surface, norm, save_surface)
from .ladder import Ladder, gamma_m, phi_m, project
from .linear import LinearModel, closed_form_minimizer, closed_form_solution, make_ladder_model
from .optimize import (RegularizedSolution, StopRule, minimize_misfit, minimize_tikhonov,
                       wolfe_line_search)
from .pde import (CnSystem, ParabolicModel, PdeParams, initial_condition, solve_forward,
                  true_coefficient, true_sigma)
from .penalties import PENALTY_KINDS, Penalty, penalty_subgradient, penalty_value
from .synthdata import NoisyDataset, estimate_noise_level, generate_data, simpson_2d
from .tikhonov import TikhonovConfig

__version__ = "0.1.0"
