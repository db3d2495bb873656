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

from .core import (ConfigError, CylinderGrid, ModeStack, PhysicsConfig, TruncationError,
                   Wavefunction, check_window)

__all__ = [
    "hermite_profile",
    "mode_center",
    "mode_well",
    "landau_energy",
    "landau_eigenstate",
    "displaced_gaussian",
]


def hermite_profile(cfg: PhysicsConfig, y: np.ndarray, center: float, n: int) -> np.ndarray:
    """Single normalized oscillator eigenfunction phi_n(y - center).

    Uses the stable two-term recurrence on the *normalized* functions,

        phi_k = sqrt(2/k) xi phi_{k-1} - sqrt((k-1)/k) phi_{k-2},

    with xi = (y - center) sqrt(m omega / hbar) and phi_{-1} = 0, which
    avoids the catastrophic growth of raw Hermite polynomials.
    """
    if n < 0:
        raise ConfigError(f"level index must be non-negative (got {n})")
    scale = np.sqrt(cfg.m * cfg.omega / cfg.hbar)
    xi = (np.asarray(y) - center) * scale
    # the (m omega / pi hbar)^{1/4} prefactor gives unit L2 norm in y
    prev, cur = 0.0, (cfg.m * cfg.omega / (np.pi * cfg.hbar)) ** 0.25 * np.exp(-0.5 * xi**2)
    for k in range(1, n + 1):
        prev, cur = cur, np.sqrt(2.0 / k) * xi * cur - np.sqrt((k - 1.0) / k) * prev
    return cur


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
    """Displaced level-n eigenstate (a coherent state for n = 0) in mode j.

    The profile must pass the window rule every y shift obeys
    (core.check_window): one whose edge cells hold too much probability,
    or that is zero or not finite, raises ConfigError.
    """
    row = grid.mode_row(j)
    profiles = np.zeros((grid.Nx, grid.Ny), dtype=complex)
    # a level whose classical turning points leave the window keeps a zero row,
    # which the rule refuses without running the n-step recurrence (a negative n
    # is left to hermite_profile, which refuses it)
    reach = np.sqrt(max(2 * n + 1, 1) * cfg.hbar / (cfg.m * cfg.omega))
    if not (center - reach < grid.y_min or center + reach > grid.y_max):
        # a centre or momentum that is not finite gives NaNs, which the rule refuses
        with np.errstate(over="ignore", invalid="ignore"):
            profiles[row] = hermite_profile(cfg, grid.y, center, n) * np.exp(
                1j * momentum * (grid.y - center) / cfg.hbar
            )
    try:
        check_window(profiles[row:row + 1], grid, f"level {n} of mode {j} at y = {center:g}")
    except TruncationError as exc:
        raise ConfigError(str(exc)) from None
    return Wavefunction.from_modes(ModeStack(grid, profiles)).normalized()
