import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landau_cylinder import (
    ConfigError,
    CylinderGrid,
    GridMismatchError,
    ModeOffsetMismatchError,
    PhysicsConfig,
    Wavefunction,
    inner_product,
    landau_eigenstate,
    wrap_angle,
)
from landau_cylinder.core import edge_fraction


# --- wrap_angle -------------------------------------------------------


@given(st.floats(min_value=-50.0, max_value=50.0))
def test_wrap_angle_range_and_equivalence(x):
    w = wrap_angle(x)
    assert -np.pi < w <= np.pi
    assert abs(np.exp(1j * w) - np.exp(1j * x)) < 1e-12


def test_wrap_angle_branch_points():
    assert wrap_angle(np.pi) == pytest.approx(np.pi)
    assert wrap_angle(-np.pi) == pytest.approx(np.pi)
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(3 * np.pi) == pytest.approx(np.pi)


# --- PhysicsConfig ----------------------------------------------------


def test_config_rejects_nonpositive_scales():
    with pytest.raises(ConfigError):
        PhysicsConfig(hbar=1, q=1, m=1, c=1, B=-1.0, phi0=0.0, l=2 * np.pi)
    with pytest.raises(ConfigError):
        PhysicsConfig(hbar=1, q=1, m=1, c=1, B=1.0, phi0=0.0, l=0.0)


def test_config_allows_any_flux_sign():
    PhysicsConfig(hbar=1, q=1, m=1, c=1, B=1.0, phi0=-3.0, l=2 * np.pi)


def test_config_derived_quantities():
    # omega = qB/mc, flux quantum = 2 pi hbar c / q, l_B = sqrt(hbar c / qB),
    # translation step = flux_quantum / (B l); plain formula applications
    c = PhysicsConfig(hbar=2.0, q=4.0, m=5.0, c=3.0, B=3.0, phi0=0.0, l=2.0)
    assert c.omega == pytest.approx(4.0 * 3.0 / (5.0 * 3.0))
    assert c.flux_quantum == pytest.approx(2 * np.pi * 2.0 * 3.0 / 4.0)
    assert c.magnetic_length == pytest.approx(np.sqrt(2.0 * 3.0 / (4.0 * 3.0)))
    assert c.translation_step == pytest.approx(c.flux_quantum / (3.0 * 2.0))


def test_reference_geometry():
    cfg = PhysicsConfig.reference()
    assert cfg.omega == 1.0
    assert cfg.l == pytest.approx(2 * np.pi)
    assert cfg.flux_quantum == pytest.approx(2 * np.pi)
    assert cfg.magnetic_length == 1.0
    assert cfg.translation_step == pytest.approx(1.0)


def test_flux_phase_is_q_phi_over_hbar_c():
    c = PhysicsConfig(hbar=2.0, q=3.0, m=1.0, c=5.0, B=1.0, phi0=0.0, l=2.0)
    assert c.flux_phase(7.0) == pytest.approx(3.0 * 7.0 / (2.0 * 5.0))


# --- CylinderGrid -----------------------------------------------------


def test_grid_requires_power_of_two(cfg):
    with pytest.raises(ConfigError):
        CylinderGrid.for_config(cfg, Nx=48)
    with pytest.raises(ConfigError):
        CylinderGrid.for_config(cfg, Ny=100)
    with pytest.raises(ConfigError):
        CylinderGrid.for_config(cfg, Nx=4)


def test_grid_axes(cfg):
    g = CylinderGrid.for_config(cfg, Nx=16, Ny=64, y_min=-4.0, y_max=4.0)
    assert g.x[0] == 0.0
    assert g.dx == pytest.approx(cfg.l / 16)
    assert g.y[0] == -4.0
    assert g.dy == pytest.approx(8.0 / 64)
    np.testing.assert_allclose(g.ky, 2 * np.pi * np.fft.fftfreq(64, g.dy))


def test_mode_row_mapping(cfg):
    g = CylinderGrid.for_config(cfg, Nx=16, Ny=64)
    assert g.mode_row(0) == 0
    assert g.mode_row(1) == 1
    assert g.mode_row(-1) == 15
    with pytest.raises(ConfigError):
        g.mode_row(8)  # Nyquist row is ambiguous, refuse it


def test_kappas_offset(cfg):
    g = CylinderGrid.for_config(cfg, Nx=16, Ny=64)
    k0 = g.kappas(0.0)
    k_half = g.kappas(0.5)
    np.testing.assert_allclose(k_half - k0, 2 * np.pi * 0.5 / cfg.l)
    assert k0[g.mode_row(1)] == pytest.approx(2 * np.pi / cfg.l)


# --- Wavefunction -----------------------------------------------------


def test_mode_roundtrip(cfg, grid, rng):
    prof = rng.normal(size=(grid.Nx, grid.Ny)) + 1j * rng.normal(size=(grid.Nx, grid.Ny))
    from landau_cylinder import ModeStack

    stack = ModeStack(grid, prof, 0.0)
    psi = Wavefunction.from_modes(stack)
    back = psi.to_modes()
    np.testing.assert_allclose(back.profiles, prof, atol=1e-12)


def test_parseval(cfg, grid, make_state, rng):
    for _ in range(5):
        psi = make_state(rng)
        total = float(np.sum(psi.to_modes().mode_norms_sq()))
        assert total == pytest.approx(psi.norm_sq(), abs=1e-12)


def test_inner_product_conjugate_symmetry(make_state, rng):
    a = make_state(rng)
    b = make_state(rng)
    assert inner_product(a, b) == pytest.approx(np.conj(inner_product(b, a)), abs=1e-14)


def test_inner_product_grid_and_offset_guards(cfg, grid, make_state, rng):
    a = make_state(rng)
    other = CylinderGrid.for_config(cfg, Nx=32, Ny=256)
    b = Wavefunction(other, np.ones((32, 256), dtype=complex), 0.0)
    with pytest.raises(GridMismatchError):
        inner_product(a, b)
    c = Wavefunction(grid, a.amplitudes, 0.25)
    with pytest.raises(ModeOffsetMismatchError):
        inner_product(a, c)


def test_normalized(make_state, rng):
    psi = make_state(rng) * 3.7
    assert psi.normalized().norm() == pytest.approx(1.0, abs=1e-13)


def test_linear_x_phase_integer_shifts_modes(cfg, grid):
    # e^{i 2 pi x / l} maps mode j to j+1 and keeps the offset at zero
    psi = landau_eigenstate(cfg, grid, 0, 0)
    lifted = psi.multiply_phase_linear_x(2 * np.pi / cfg.l)
    assert lifted.mode_offset == 0.0
    prof = lifted.to_modes().profiles
    norms = np.sum(np.abs(prof) ** 2, axis=1) * grid.dy
    assert norms[grid.mode_row(1)] == pytest.approx(1.0, abs=1e-12)


def test_linear_x_phase_fractional_offset(cfg, grid):
    psi = landau_eigenstate(cfg, grid, 0, 0)
    lifted = psi.multiply_phase_linear_x(np.pi / cfg.l)
    assert lifted.mode_offset == pytest.approx(0.5)
    # composing back down restores a single-valued state
    back = lifted.multiply_phase_linear_x(-np.pi / cfg.l)
    assert back.mode_offset == 0.0
    np.testing.assert_allclose(back.amplitudes, psi.amplitudes, atol=1e-13)


@given(st.floats(min_value=-3.0, max_value=3.0), st.floats(min_value=-3.0, max_value=3.0))
@settings(max_examples=25, deadline=None)
def test_linear_x_phase_composition(a1, a2):
    cfg = PhysicsConfig.reference()
    grid = CylinderGrid.for_config(cfg, Nx=16, Ny=64, y_min=-6.0, y_max=6.0)
    psi = landau_eigenstate(cfg, grid, 0, 0)
    once = psi.multiply_phase_linear_x(a1).multiply_phase_linear_x(a2)
    direct = psi.multiply_phase_linear_x(a1 + a2)
    assert once.mode_offset == pytest.approx(direct.mode_offset, abs=1e-9)
    np.testing.assert_allclose(once.amplitudes, direct.amplitudes, atol=1e-10)


def test_boundary_mass_small_for_centered_state(cfg, grid):
    psi = landau_eigenstate(cfg, grid, 0, 0)
    assert psi.boundary_mass() < 1e-14
    # two of ten units of density sit in the edge cells, one at each end
    density = np.zeros((2, grid.Ny))
    density[0, 0] = density[1, -1] = 1.0
    density[:, grid.Ny // 2] = 4.0
    assert edge_fraction(density) == 0.2


def test_expectation_y(cfg, grid):
    from landau_cylinder import mode_center

    psi = landau_eigenstate(cfg, grid, 2, -1)
    assert psi.expectation_y() == pytest.approx(mode_center(cfg, -1), abs=1e-10)


def test_x_centroid_angle_of_two_mode_beat(cfg, grid):
    # equal-weight j=0, j=1 with real positive overlap: centroid at angle 0
    a = landau_eigenstate(cfg, grid, 0, 0)
    b = landau_eigenstate(cfg, grid, 0, 1)
    psi = Wavefunction(grid, (a.amplitudes + b.amplitudes) / np.sqrt(2), 0.0)
    assert abs(psi.x_centroid_angle()) < 1e-10
