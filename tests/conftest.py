import numpy as np
import pytest

from landau_cylinder import CylinderGrid, PhysicsConfig, Wavefunction, landau_eigenstate
from landau_cylinder.core import BOUNDARY_CELLS


@pytest.fixture(scope="session")
def cfg():
    return PhysicsConfig.reference()


@pytest.fixture(scope="session")
def grid(cfg):
    return CylinderGrid.for_config(cfg)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def y_stats():
    """(<y>, edge share) of (row, y) profiles on a grid: the mean of y, and
    the share of the probability within BOUNDARY_CELLS cells of the y edges."""

    def stats(profiles, grid):
        w = (np.abs(profiles) ** 2).sum(axis=0)
        edge = w[:BOUNDARY_CELLS].sum() + w[-BOUNDARY_CELLS:].sum()
        return float(w @ grid.y / w.sum()), float(edge / w.sum())

    return stats


@pytest.fixture()
def make_state(cfg, grid):
    """Factory for random band-limited states built from low Landau levels.

    Smooth in both directions by construction, so spectral translations act
    on them at machine precision; centers stay well inside the y window.
    """

    def build(rng, n_modes=3, cfg_override=None):
        c = cfg if cfg_override is None else cfg_override
        amps = np.zeros((grid.Nx, grid.Ny), dtype=complex)
        offset = 0.0
        for _ in range(n_modes):
            n = int(rng.integers(0, 3))
            j = int(rng.integers(-2, 3))
            coeff = complex(rng.normal(), rng.normal())
            amps += coeff * landau_eigenstate(c, grid, n, j).amplitudes
        return Wavefunction(grid, amps, offset).normalized()

    return build
