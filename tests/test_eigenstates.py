import time
from dataclasses import replace

import numpy as np
import pytest

from landau_cylinder import (
    ConfigError,
    CylinderGrid,
    PhysicsConfig,
    apply_hamiltonian,
    displaced_gaussian,
    hermite_profile,
    inner_product,
    landau_eigenstate,
    landau_energy,
    mode_center,
)
from landau_cylinder import eigenstates
from landau_cylinder.core import TRUNCATION_THRESHOLD, TruncationError, check_window


# --- guiding centers --------------------------------------------------


def test_mode_center_frozen_values(cfg):
    # y_c = phi/(l B) - j * step; at reference (step = 1):
    #   phi = 0,  j = 1  ->  -1
    #   phi = pi, j = 0  ->  0.5
    assert mode_center(replace(cfg, phi0=0.0), 1) == pytest.approx(-1.0, abs=1e-15)
    assert mode_center(replace(cfg, phi0=np.pi), 0) == pytest.approx(0.5, abs=1e-15)


def test_center_spacing_exact(cfg):
    # spacing is -2 pi hbar c / (q B l), exactly one translation step down
    for j in range(-4, 4):
        assert mode_center(cfg, j + 1) - mode_center(cfg, j) == -cfg.translation_step


def test_center_tracks_flux(cfg):
    c2 = replace(cfg, phi0=cfg.phi0 + 1.3)
    assert mode_center(c2, 2) - mode_center(cfg, 2) == pytest.approx(
        1.3 / (cfg.l * cfg.B), abs=1e-15
    )


# --- oscillator profiles ----------------------------------------------


def test_oscillator_orthonormal(cfg, grid):
    prof = np.array([hermite_profile(cfg, grid.y, 0.3, n) for n in range(6)])
    gram = prof @ prof.T * grid.dy
    np.testing.assert_allclose(gram, np.eye(6), atol=1e-12)


def test_hermite_profile_rejects_negative_level(cfg, grid):
    with pytest.raises(ConfigError, match="level index must be non-negative"):
        hermite_profile(cfg, grid.y, 0.0, n=-1)


def test_oscillator_matches_explicit_hermite(cfg, grid):
    # independent construction from scipy's physicists' Hermite polynomials
    from scipy.special import eval_hermite

    y = grid.y
    center = -0.4
    xi = np.sqrt(cfg.m * cfg.omega / cfg.hbar) * (y - center)
    pref = (cfg.m * cfg.omega / (np.pi * cfg.hbar)) ** 0.25
    import math

    for n in range(4):
        explicit = (
            pref
            / np.sqrt(2.0**n * math.factorial(n))
            * eval_hermite(n, xi)
            * np.exp(-(xi**2) / 2)
        )
        np.testing.assert_allclose(hermite_profile(cfg, y, center, n), explicit, atol=1e-10)


# --- Landau eigenstates -----------------------------------------------


def test_eigenstate_normalized(cfg, grid):
    for n, j in ((0, 0), (2, -3), (3, 2)):
        assert landau_eigenstate(cfg, grid, n, j).norm() == pytest.approx(1.0, abs=1e-12)


def test_eigenstate_residual(cfg, grid):
    for n in range(3):
        for j in (-2, 0, 2):
            psi = landau_eigenstate(cfg, grid, n, j)
            resid = (apply_hamiltonian(psi, cfg) - psi * landau_energy(cfg, n)).norm()
            assert resid < 1e-10


def test_energy_degenerate_in_j(cfg, grid):
    energies = []
    for j in (-3, 0, 3):
        psi = landau_eigenstate(cfg, grid, 1, j)
        hpsi = apply_hamiltonian(psi, cfg)
        energies.append(float(np.real(inner_product(psi, hpsi))))
    assert max(energies) - min(energies) < 1e-12


def test_landau_energy_ladder(cfg):
    c = PhysicsConfig(hbar=2.0, q=3.0, m=1.5, c=1.0, B=2.0, phi0=0.0, l=2 * np.pi)
    for n in range(4):
        assert landau_energy(c, n) == pytest.approx(c.hbar * c.omega * (n + 0.5))


def test_eigenstate_rejects_state_outside_window(cfg):
    tight = CylinderGrid.for_config(cfg, Ny=64, y_min=-2.0, y_max=2.0)
    with pytest.raises(ConfigError):
        landau_eigenstate(cfg, tight, 0, -4)  # center 4.25 is off the grid


def test_admission_is_the_window_rule(grid, y_stats):
    # landau_eigenstate admits (n, j) iff the edge cells of its profile hold
    # at most TRUNCATION_THRESHOLD of its probability; at phi0 = pi/2 row j
    # is centred at 0.25 - j
    cfg = PhysicsConfig.reference(phi0=np.pi / 2)
    admitted = set()
    for n in range(4):
        for j in range(-grid.Nx // 2, grid.Nx // 2):
            prof = hermite_profile(cfg, grid.y, mode_center(cfg, j), n)
            fits = y_stats(prof[None, :], grid)[1] <= TRUNCATION_THRESHOLD
            try:
                landau_eigenstate(cfg, grid, n, j)
            except ConfigError:
                assert not fits, (n, j)
            else:
                assert fits, (n, j)
                admitted.add((n, j))
    # a margin of (n + 4) magnetic lengths admitted (0, 8), whose edge cells
    # hold 3.0e-9, and refused these four, whose edge cells hold 7.8e-11 at most
    assert (0, 8) not in admitted
    assert {(2, -6), (3, -6), (3, -5), (3, 6)} <= admitted
    # a profile that underflows to zero, or is not finite, is refused, not normalized
    for center, n in ((1e3, 0), (1e200, 0), (np.inf, 1), (np.nan, 0)):
        with pytest.raises(ConfigError, match="y boundary"):
            displaced_gaussian(cfg, grid, 0, center, n=n)


def test_turning_points_refuse_no_admitted_level(cfg, grid):
    # displaced_gaussian refuses a level whose classical turning points
    # center +- sqrt((2n+1) hbar / m omega) leave the window before building
    # it; every (centre, n) the window rule admits has both well inside
    centers = np.linspace(grid.y_min, grid.y_max, 97)
    margins = []
    for n in range(60):
        reach = np.sqrt((2 * n + 1) * cfg.hbar / (cfg.m * cfg.omega))
        for center, prof in zip(centers, hermite_profile(cfg, grid.y, centers[:, None], n)):
            try:
                check_window(prof[None, :], grid, "scan")
            except TruncationError:
                continue
            margins.append(min(center - reach - grid.y_min, grid.y_max - center - reach))
    assert len(margins) > 1000  # 1149 admitted pairs, up to n = 47 at y = 0
    assert min(margins) > 2.0  # 2.17


def test_huge_level_is_refused_before_its_recurrence(cfg, grid, monkeypatch):
    # at n = 1e9 the recurrence would run for about two hours before the
    # window rule refused the level
    def recurrence(*args):
        raise AssertionError("the recurrence ran")

    monkeypatch.setattr(eigenstates, "hermite_profile", recurrence)
    t0 = time.perf_counter()
    with pytest.raises(ConfigError, match="y boundary in level 1000000000 of mode 0"):
        displaced_gaussian(cfg, grid, 0, 0.0, n=10**9)
    assert time.perf_counter() - t0 < 0.5


def test_spectral_flow_identity(cfg, grid):
    # H(phi + flux_quantum) = V H(phi) V* with V = e^{2 pi i x / l}:
    # the eigenstate at (n, j, phi + Phi0) is V times the one at (n, j-1, phi)
    c2 = replace(cfg, phi0=cfg.phi0 + cfg.flux_quantum)
    a = landau_eigenstate(c2, grid, 1, 0)
    b = landau_eigenstate(cfg, grid, 1, -1).multiply_phase_linear_x(2 * np.pi / cfg.l)
    assert b.mode_offset == 0.0
    np.testing.assert_allclose(a.amplitudes, b.amplitudes, atol=1e-12)


# --- displaced states --------------------------------------------------


def test_displaced_gaussian_energy(cfg, grid):
    # <H> = E_n + m w^2 d^2 / 2 + p^2 / 2m for a rigidly displaced level
    d, p = 0.7, 0.4
    psi = displaced_gaussian(cfg, grid, j=0, center=mode_center(cfg, 0) + d, momentum=p)
    hpsi = apply_hamiltonian(psi, cfg)
    e = float(np.real(inner_product(psi, hpsi)))
    assert e == pytest.approx(0.82499999999999996, abs=1e-10)


def test_displaced_gaussian_center_and_norm(cfg, grid, y_stats):
    c0 = mode_center(cfg, 1) - 1.2
    psi = displaced_gaussian(cfg, grid, j=1, center=c0, n=2)
    assert psi.norm() == pytest.approx(1.0, abs=1e-12)
    assert y_stats(psi.to_modes().profiles, grid)[0] == pytest.approx(c0, abs=1e-10)
