import os

import numpy as np
import pytest

from qnls6.grid import RadialGrid, pair_from_arrays
from qnls6.groundstate import build_bundle


@pytest.fixture
def counted_forks(monkeypatch):
    """The pids os.fork returns to this process while the test runs."""
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


@pytest.fixture(scope="session")
def small_grid():
    return RadialGrid(n=128, r_max=60.0, stretch=9.0)


@pytest.fixture(scope="session")
def mid_grid():
    return RadialGrid(n=256, r_max=200.0, stretch=29.0)


@pytest.fixture(scope="session")
def bundle_mid(mid_grid):
    return build_bundle(mid_grid, kappa=0.5)


@pytest.fixture(scope="session")
def bundle_mid_discrete(mid_grid):
    return build_bundle(mid_grid, kappa=0.5, background="discrete")


@pytest.fixture(scope="session")
def spectral_mid(bundle_mid):
    from qnls6.spectrum import eigenpair_e
    return eigenpair_e(bundle_mid)


@pytest.fixture(scope="session")
def spectral_mid_discrete(bundle_mid_discrete):
    from qnls6.spectrum import eigenpair_e
    return eigenpair_e(bundle_mid_discrete)


def random_pair(grid, kappa, rng, scale=1.0, real=False):
    r = grid.nodes
    u = np.zeros(grid.n, complex)
    v = np.zeros(grid.n, complex)
    for p in (0, 1, 2):
        for s in (0.4, 0.9, 1.7):
            cu = rng.standard_normal() + (0 if real else 1j * rng.standard_normal())
            cv = rng.standard_normal() + (0 if real else 1j * rng.standard_normal())
            u += cu * r ** p * np.exp(-s * r * r)
            v += cv * r ** p * np.exp(-s * r * r)
    return pair_from_arrays(grid, scale * u, scale * v, kappa)
