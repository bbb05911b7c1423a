"""Parallel-in-time two-scale simulation of atherosclerotic plaque growth.

The package couples a surrogate micro-scale flow problem (heartbeat
scale) with macro-scale growth models (months scale) through temporal
homogenization, and accelerates the macro time stepping with the
parareal algorithm and cheaper coarse-propagator variants.  Cost is
accounted in micro problems and growth-model solves, with a synthetic
parallel-runtime model.
"""

from . import costs, growth, microflow, parareal, scenario, twoscale
from .costs import (CostLedger, CostModelParams, count_heuristic,
                    count_reusage, count_rd_reusage, count_standard,
                    estimate_parallel_runtime, optimal_processes, ratio_bound,
                    speedup_efficiency)
from .errors import (ChannelClosureError, ConfigError, GridAlignmentError,
                     MicroNonConvergenceError, PararealNonConvergenceError)
from .growth import (FieldState, GrowthParams, ScalarState, SolidGrid,
                     delta_weight, gamma_ode, gamma_pde, interface_midpoint,
                     macro_step_ode, macro_step_pde)
from .microflow import (GrowthSample, MicroParams, MicroState, advance_cycle,
                        inflow_velocity, periodic_orbit, solve_micro_problem,
                        solve_stationary_surrogate, wall_shear_stress)
from .scenario import PRESETS, Scenario, parse_scenario, preset
from .twoscale import (DAY, Schedule, TrajectoryRecord, run_coarse_step,
                       run_serial, trajectory_to_csv)

__version__ = "0.1.0"
