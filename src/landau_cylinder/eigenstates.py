"""Landau eigenstates on the cylinder.

In the gauge A_x = -B y + phi / l each x mode j sees a shifted harmonic
well: completing the square in the mode Hamiltonian

    h_j = p_y^2 / 2m + (hbar kappa_j - q A_x(y) / c)^2 / 2m

gives an oscillator of frequency omega = qB/mc centered at

    y_c(j) = phi / (l B) - hbar kappa_j c / (q B),

with energies E_n = hbar omega (n + 1/2) independent of j.  Adjacent mode
centers are spaced by -hc/(qBl); threading one extra flux quantum slides
every center up by one spacing (spectral flow j -> j - 1).
"""

from __future__ import annotations

import numpy as np

from .core import ConfigError, CylinderGrid, ModeStack, PhysicsConfig, Wavefunction

__all__ = [
    "hermite_profile",
    "oscillator_profiles",
    "mode_center",
    "mode_well",
    "landau_energy",
    "landau_eigenstate",
    "displaced_gaussian",
]


def oscillator_profiles(
    cfg: PhysicsConfig, y: np.ndarray, center: float, n_max: int
) -> np.ndarray:
    """Normalized oscillator eigenfunctions phi_0..phi_n_max, stacked.

    Uses the stable two-term recurrence on the *normalized* functions,

        phi_n = sqrt(2/n) xi phi_{n-1} - sqrt((n-1)/n) phi_{n-2},

    with xi = (y - center) sqrt(m omega / hbar), which avoids the
    catastrophic growth of raw Hermite polynomials.
    """
    scale = np.sqrt(cfg.m * cfg.omega / cfg.hbar)
    xi = (np.asarray(y) - center) * scale
    out = np.zeros((n_max + 1,) + xi.shape)
    out[0] = (cfg.m * cfg.omega / (np.pi * cfg.hbar)) ** 0.25 * np.exp(-0.5 * xi**2)
    if n_max >= 1:
        out[1] = np.sqrt(2.0) * xi * out[0]
    for n in range(2, n_max + 1):
        out[n] = np.sqrt(2.0 / n) * xi * out[n - 1] - np.sqrt((n - 1.0) / n) * out[n - 2]
    return out  # the (m omega / pi hbar)^{1/4} prefactor gives unit L2 norm in y


def hermite_profile(cfg: PhysicsConfig, y: np.ndarray, center: float, n: int) -> np.ndarray:
    """Single normalized oscillator eigenfunction phi_n(y - center)."""
    if n < 0:
        raise ConfigError(f"level index must be non-negative (got {n})")
    return oscillator_profiles(cfg, y, center, n)[n]


def mode_center(cfg: PhysicsConfig, j: int, phi=None, mode_offset: float = 0.0) -> float:
    """Guiding-center position y_c of mode j at flux phi (default cfg.phi0)."""
    phi = cfg.phi0 if phi is None else phi
    kappa = 2.0 * np.pi * (j + mode_offset) / cfg.l
    return phi / (cfg.l * cfg.B) - cfg.hbar * kappa * cfg.c / (cfg.q * cfg.B)


def mode_well(cfg: PhysicsConfig, j, phi, ey, mode_offset: float):
    """Center b and offset C of mode j's well m omega^2 (y - b)^2 / 2 + C.

    Completing the square in (hbar kappa_j - q A_x / c)^2 / 2m - q E_y y at
    flux phi and axial field E_y; j, phi and ey broadcast against each other.
    """
    stiffness = cfg.m * cfg.omega**2
    a = mode_center(cfg, j, phi=phi, mode_offset=mode_offset)
    force = cfg.q * ey
    return a + force / stiffness, -force * a - force**2 / (2.0 * stiffness)


def landau_energy(cfg: PhysicsConfig, n: int) -> float:
    """E_n = hbar omega (n + 1/2); degenerate in the mode index."""
    return cfg.hbar * cfg.omega * (n + 0.5)


def _check_support(grid: CylinderGrid, center: float, n: int, l_B: float) -> None:
    margin = (n + 4) * l_B
    if center - margin < grid.y_min or center + margin > grid.y_max:
        raise ConfigError(
            f"state support [{center - margin:.2f}, {center + margin:.2f}] too close "
            f"to the y window [{grid.y_min}, {grid.y_max}]"
        )


def landau_eigenstate(
    cfg: PhysicsConfig,
    grid: CylinderGrid,
    n: int,
    j: int,
) -> Wavefunction:
    """Eigenstate e^{i kappa_j x} phi_n(y - y_c(j)) / sqrt(l) at flux cfg.phi0, grid normalized."""
    return displaced_gaussian(cfg, grid, j, mode_center(cfg, j), n=n)


def displaced_gaussian(
    cfg: PhysicsConfig,
    grid: CylinderGrid,
    j: int,
    center: float,
    momentum: float = 0.0,
    n: int = 0,
) -> Wavefunction:
    """Displaced level-n eigenstate (a coherent state for n = 0) in mode j."""
    _check_support(grid, center, n, cfg.magnetic_length)
    profiles = np.zeros((grid.Nx, grid.Ny), dtype=complex)
    profiles[grid.mode_row(j)] = hermite_profile(cfg, grid.y, center, n) * np.exp(
        1j * momentum * (grid.y - center) / cfg.hbar
    )
    return Wavefunction.from_modes(ModeStack(grid, profiles)).normalized()
