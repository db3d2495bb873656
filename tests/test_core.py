import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landau_cylinder import (
    ConfigError,
    CylinderGrid,
    GridMismatchError,
    ModeOffsetMismatchError,
    ModeStack,
    PathPolyline,
    PhysicsConfig,
    TruncationError,
    Wavefunction,
    ab_loop_spec,
    displaced_gaussian,
    hermite_profile,
    inner_product,
    landau_eigenstate,
    run_loop,
    sequential_translation,
    wrap_angle,
)
from landau_cylinder.core import TRUNCATION_THRESHOLD, check_window


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


def test_config_rejects_non_finite_flux():
    for phi0 in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="phi0 must be finite"):
            PhysicsConfig(phi0=phi0)


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
    # a float is no grid size, even one equal to a power of two
    for sizes in (dict(Nx=8.0, Ny=8), dict(Nx=8, Ny=64.0)):
        with pytest.raises(ConfigError, match="power of two"):
            CylinderGrid(**sizes, y_min=-1.0, y_max=1.0, l=1.0)


def test_grid_rejects_non_finite_geometry():
    for y_min, y_max, l in ((-math.inf, 1.0, 1.0), (-1.0, math.inf, 1.0), (math.nan, 1.0, 1.0),
                            (-1.0, 1.0, math.nan), (-1.0, 1.0, math.inf)):
        with pytest.raises(ConfigError, match="must be finite"):
            CylinderGrid(Nx=8, Ny=8, y_min=y_min, y_max=y_max, l=l)


def test_grid_rejects_empty_window_and_non_positive_circumference():
    for y_min, y_max in ((1.0, 1.0), (1.0, -1.0)):
        with pytest.raises(ConfigError, match="y_min must be below y_max"):
            CylinderGrid(Nx=8, Ny=8, y_min=y_min, y_max=y_max, l=1.0)
    for l in (0.0, -1.0):
        with pytest.raises(ConfigError, match="l must be positive"):
            CylinderGrid(Nx=8, Ny=8, y_min=-1.0, y_max=1.0, l=l)


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


def test_wavefunction_rejects_wrong_shape(grid):
    # from x-space amplitudes and from a mode stack alike: the stack's path
    # takes no FFT that could reject the shape for it
    for shape in ((grid.Nx, grid.Ny + 1), (grid.Ny, grid.Nx), (grid.Nx * grid.Ny,)):
        with pytest.raises(ConfigError, match="does not match grid"):
            Wavefunction(grid, np.zeros(shape, dtype=complex))
        with pytest.raises(ConfigError, match="does not match grid"):
            Wavefunction.from_modes(ModeStack(grid, np.zeros(shape, dtype=complex)))


def test_mode_roundtrip(cfg, grid, rng):
    prof = rng.normal(size=(grid.Nx, grid.Ny)) + 1j * rng.normal(size=(grid.Nx, grid.Ny))
    stack = ModeStack(grid, prof, 0.3)
    psi = Wavefunction.from_modes(stack)
    back = psi.to_modes()
    np.testing.assert_allclose(back.profiles, prof, atol=1e-12)
    assert back.mode_offset == 0.3
    # the stack shares the state's array, which no reader may write into
    with pytest.raises(ValueError, match="read-only"):
        back.profiles[0, 0] = 0.0
    # x-space amplitudes in, through the stored modes, and back out
    u = rng.normal(size=(grid.Nx, grid.Ny)) + 1j * rng.normal(size=(grid.Nx, grid.Ny))
    np.testing.assert_allclose(Wavefunction(grid, u, 0.3).amplitudes, u, atol=1e-12)


def test_experiments_transform_along_y_only(cfg, grid, make_state, rng, monkeypatch):
    # states are stored by mode row, so a loop experiment and a path of
    # translations transform along y, the last axis, and never along x
    psi = make_state(rng)
    path = PathPolyline(((0.0, 0.0), (0.5, 0.4), (-0.3, 0.9))).refined(2)
    calls = []
    for name in ("fft", "ifft", "fft2", "ifft2"):
        def record(a, *args, _real=getattr(np.fft, name), _name=name, **kwargs):
            calls.append((_name, args, kwargs.get("axis", -1) % np.ndim(a) == np.ndim(a) - 1))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, record)
    run_loop(cfg, grid, ab_loop_spec(cfg, T=200.0))
    sequential_translation(psi, path, cfg)
    assert calls
    assert all(name in ("fft", "ifft") and not args and along_y for name, args, along_y in calls)


def test_parseval(cfg, grid, make_state, rng):
    # the stored norm, a sum over mode rows, is the norm of the x-space view
    for _ in range(5):
        psi = make_state(rng)
        grid_norm_sq = float(np.sum(np.abs(psi.amplitudes) ** 2) * grid.dx * grid.dy)
        assert psi.norm_sq() == pytest.approx(grid_norm_sq, abs=1e-12)


def test_inner_product_conjugate_symmetry(make_state, rng):
    a = make_state(rng)
    b = make_state(rng)
    assert inner_product(a, b) == pytest.approx(np.conj(inner_product(b, a)), abs=1e-14)


def test_inner_product_grid_and_offset_guards(cfg, grid, make_state, rng):
    a = make_state(rng)
    other = CylinderGrid.for_config(cfg, Nx=32, Ny=256)
    b = Wavefunction(other, np.ones((32, 256), dtype=complex), 0.0)
    c = Wavefunction(grid, a.amplitudes, 0.25)
    # sums and differences of states are guarded like overlaps
    for op in (inner_product, Wavefunction.__add__, Wavefunction.__sub__):
        with pytest.raises(GridMismatchError):
            op(a, b)
        with pytest.raises(ModeOffsetMismatchError):
            op(a, c)


def test_non_finite_mode_offset_is_refused(grid):
    # a NaN offset would pass the sector guard of inner_product
    amps = np.ones((grid.Nx, grid.Ny), dtype=complex)
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ConfigError, match="mode offset must be finite"):
            Wavefunction(grid, amps, bad)


def test_normalized(make_state, rng):
    psi = make_state(rng) * 3.7
    assert psi.normalized().norm() == pytest.approx(1.0, abs=1e-13)
    with pytest.raises(ValueError, match="cannot normalize the zero state"):
        (psi * 0.0).normalized()


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


def test_truncation_sees_four_edge_cells(cfg, grid, y_stats):
    # an n = 0 state near the top edge, whose mass in the last k cells (each
    # centred on its grid point) is the Gaussian tail erfc((y - c) / l_B) / 2
    # between y_max - (k + 1/2) dy and y_max - dy / 2
    def tail_mass(center, cells):
        def above(y):
            return 0.5 * math.erfc((y - center) / cfg.magnetic_length)

        top = grid.y_max - 0.5 * grid.dy
        return above(top - cells * grid.dy) - above(top)

    # at 7.5 the four cells hold 5.3e-10, but the outermost only 6.5e-11, so
    # the state is refused at construction
    prof = hermite_profile(cfg, grid.y, 7.5, 0)[None, :]
    assert tail_mass(7.5, 1) < TRUNCATION_THRESHOLD < tail_mass(7.5, 4)
    assert y_stats(prof, grid)[1] == pytest.approx(tail_mass(7.5, 4), rel=0.02)
    with pytest.raises(ConfigError, match="y boundary"):
        displaced_gaussian(cfg, grid, 0, 7.5)
    # at 7.0 the four cells hold 5.3e-12, and the state is admitted
    assert tail_mass(7.0, 4) < TRUNCATION_THRESHOLD
    psi = displaced_gaussian(cfg, grid, 0, 7.0)
    assert y_stats(psi.to_modes().profiles, grid)[1] == pytest.approx(tail_mass(7.0, 4), rel=0.02)


def test_window_rule_counts_skipped_rows_as_edge_and_seam(cfg, grid):
    # the probability of rows left out of the profiles counts twice, as edge
    # and as seam probability, so leaving rows out can only make it stricter
    prof = landau_eigenstate(cfg, grid, 0, 0).to_modes().profiles[:1]
    total = check_window(prof, grid, "the state")
    for share in (0.0, 0.4):
        skipped = share * TRUNCATION_THRESHOLD * total
        assert check_window(prof, grid, "the state", skipped=skipped) == total + skipped
    with pytest.raises(TruncationError, match="y boundary in the state;"):
        check_window(prof, grid, "the state", skipped=0.6 * TRUNCATION_THRESHOLD * total)
    # with no probability in the profiles, the skipped rows' is all edge
    with pytest.raises(TruncationError):
        check_window(0.0 * prof, grid, "the state", skipped=total)

