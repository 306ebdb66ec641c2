import dataclasses

import pytest

from pintda import harness


@pytest.fixture(scope="session")
def bench_config():
    return harness.ExperimentConfig()


@pytest.fixture(scope="session")
def bench_problem(bench_config):
    """Benchmark twin experiment: NP=32, 8 time points, uncorrelated B."""
    vconfig, partition = harness.build_problem(bench_config)
    return vconfig, partition


@pytest.fixture(scope="session")
def correlated_problem():
    """Small problem with a correlated background covariance, so the
    Schwarz-preconditioned CG genuinely iterates."""
    cfg = dataclasses.replace(harness.ExperimentConfig(), np=8, n_steps=3,
                              nobs=3, L=1.5, sigma_b=0.8, sigma_r=0.2,
                              n_sub=2, overlap=2, seed=11)
    vconfig, partition = harness.build_problem(cfg)
    return cfg, vconfig, partition
