"""Parallel-in-time, domain-decomposed solvers for variational data assimilation.

The package builds synthetic twin experiments, solves them with a direct
variational oracle, an overlapping-Schwarz inner solver, and a Parareal-style
outer iteration, and checks the measured convergence and round-off behavior
against the corresponding analytic bounds.
"""

from . import analysis, dd_mps, harness, parareal, testbed, var_solver
from .harness import ExperimentConfig, load_config, main, run_experiment
from .testbed import (assemble_G, build_covariance, build_model_instance,
                      build_observations)

__version__ = "0.1.0"
