"""Parallel-in-time, domain-decomposed solvers for variational data assimilation.

The package builds synthetic twin experiments, solves them with a direct
variational oracle, an overlapping-Schwarz inner solver, and a Parareal-style
outer iteration, and checks the measured convergence and round-off behavior
against the corresponding analytic bounds.
"""

from .analysis import (BoundParameters, ErrorHistory, LipschitzEstimate,
                       RoundoffBound, chain_discrepancy,
                       error_and_bound_history, gronwall_bound,
                       gronwall_prefactor, lipschitz_estimate,
                       error_scale_constant, prefactor_sequence,
                       recurrence_fixed_point, resolution_ratio_report,
                       roundoff_bound, roundoff_proxies, twin_error_scales)
from .dd_mps import (LocalSystem, MpsHistory, PartitionError,
                     RestrictionOperators, SchwarzIterate, SubdomainPartition,
                     assemble_local_system, build_factors, build_restrictions,
                     dap_residual, local_cost, local_grad, mps_sweep,
                     partition_domain, recover_and_patch, run_mps)
from .harness import (ConfigError, DiagnosticsRecord, ExperimentConfig,
                      ExperimentResult, emit_report, load_config, main,
                      parallel_map, render_report, run_experiment)
from .parareal import (PararealHistory, PararealTrajectory, TimeSlabs,
                       build_time_slabs, coarse_sweep, initial_trajectory,
                       local_da_solve, parareal_update, run_parareal,
                       serial_fine_chain)
from .testbed import (CovarianceFactorPair, ModelInstance, ObservationSet,
                      TestbedError, assemble_G, build_covariance,
                      build_model_instance, build_observations,
                      selection_matrix)
from .var_solver import (AnalysisState, HessianReport, VarProblemConfig,
                         VarSolverError, eval_cost, eval_grad,
                         hessian_condition, solve_var_direct)

__version__ = "0.1.0"
