from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landau_cylinder import (
    ConfigError,
    Displacement,
    DriveProtocol,
    PathPolyline,
    PhysicsConfig,
    TruncationError,
    Wavefunction,
    ab_loop_spec,
    apply_displacement,
    compose_phase,
    fig1_loop_spec,
    inner_product,
    landau_eigenstate,
    mode_center,
    path_ordered_translation,
    rectangle_loop_spec,
    sequential_translation,
    translate_x,
    translate_y,
)
from landau_cylinder.core import check_window


# --- Displacement ------------------------------------------------------


def test_displacement_arithmetic():
    a = Displacement(1.0, 2.0)
    b = Displacement(-0.5, 0.25)
    assert (a + b).rx == 0.5 and (a + b).ry == 2.25
    assert a.cross(b) == pytest.approx(1.0 * 0.25 - 2.0 * (-0.5))
    assert a.length == pytest.approx(np.sqrt(5.0))


# --- PathPolyline ------------------------------------------------------


def test_path_validation():
    with pytest.raises(ValueError):
        PathPolyline(((0.0, 0.0),))
    with pytest.raises(ValueError):
        PathPolyline(((1.0, 0.0), (2.0, 0.0)))  # must start at the origin
    with pytest.raises(ValueError):
        PathPolyline(((0.0, 0.0), (1.0, 1.0), (1.0, 1.0)))


def test_path_rejects_non_finite_vertices():
    # a non-finite vertex would make total_length and swept_area non-finite
    for bad in ((np.nan, 0.0), (0.0, np.inf), (-np.inf, np.nan)):
        with pytest.raises(ConfigError, match=r"vertex 2 must be finite"):
            PathPolyline(((0.0, 0.0), (1.0, 0.5), bad, (0.0, 0.0)))
    # two NaN vertices do not compare equal, so only the finite test sees them
    with pytest.raises(ConfigError, match=r"vertex 1 must be finite"):
        PathPolyline(((0.0, 0.0), (np.nan, 0.0), (np.nan, 0.0)))
    # finite vertices and segments, but the swept area and the drift action
    # would overflow
    huge = [(0.0, 0.0)]
    for k in range(8):
        huge.append((huge[-1][0] + 9e153, huge[-1][1] + (9e153 if k % 2 == 0 else -9e153)))
    with pytest.raises(ConfigError, match=r"swept area or its summed squared segment length"):
        PathPolyline(tuple(huge))


def test_path_rejects_segments_whose_squared_length_overflows(cfg):
    # finite vertices, but the drive's action (length^2) or its time slots
    # (total length) would overflow
    for vertices, segment in (
        (((0.0, 0.0), (1e200, 1e200), (0.0, 0.0)), 0),
        (((0.0, 0.0), (1e308, 0.0), (-1e308, 0.0)), 0),
        (((0.0, 0.0), (1.0, 0.0), (1.0, 2e154)), 1),
    ):
        with pytest.raises(ConfigError, match=f"segment {segment} from .* squared length overflows"):
            PathPolyline(vertices)
    # just below the overflow the path and its drive build
    path = PathPolyline(((0.0, 0.0), (1e153, 1e153), (0.0, 0.0)))
    assert np.isfinite(DriveProtocol.from_path(cfg, path, T=10.0).drift_action())


def test_swept_area_rectangle_frozen(cfg):
    # up, around, down at height 0.5: clockwise, area -l * 0.5 = -pi
    l = cfg.l
    path = PathPolyline(((0.0, 0.0), (0.0, 0.5), (l, 0.5), (l, 0.0)))
    assert path.swept_area() == pytest.approx(-3.1415926535897931, abs=1e-12)


def test_swept_area_circle():
    t = np.linspace(0.0, 2 * np.pi, 1025)
    circle = PathPolyline(tuple(zip(np.cos(t) - 1.0, np.sin(t))))
    assert circle.swept_area() == pytest.approx(np.pi, abs=1e-4)


def test_swept_area_double_loop_counts_twice():
    square = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0))
    double = PathPolyline(square + square[1:])
    assert double.swept_area() == pytest.approx(2.0, abs=1e-12)


@st.composite
def random_paths(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    pts = [(0.0, 0.0)]
    for _ in range(n):
        dx = draw(st.floats(min_value=-2, max_value=2).filter(lambda v: abs(v) > 1e-3))
        dy = draw(st.floats(min_value=-2, max_value=2).filter(lambda v: abs(v) > 1e-3))
        pts.append((pts[-1][0] + dx, pts[-1][1] + dy))
    return PathPolyline(tuple(pts))


def reversed_path(path):
    """The same geometry traversed backwards, re-anchored at the origin."""
    end = path.vertices[-1]
    pts = [(p[0] - end[0], p[1] - end[1]) for p in reversed(path.vertices)]
    return PathPolyline.from_points(pts)


@given(random_paths())
@settings(max_examples=50, deadline=None)
def test_swept_area_reversal_antisymmetry(path):
    assert reversed_path(path).swept_area() == pytest.approx(-path.swept_area(), abs=1e-10)


@given(random_paths(), st.integers(min_value=2, max_value=7))
@settings(max_examples=50, deadline=None)
def test_swept_area_refinement_invariant(path, k):
    assert path.refined(k).swept_area() == pytest.approx(path.swept_area(), abs=1e-10)


def test_net_displacement_and_length():
    path = PathPolyline(((0.0, 0.0), (3.0, 4.0), (3.0, 0.0)))
    assert path.net_displacement.rx == 3.0
    assert path.net_displacement.ry == 0.0
    assert path.total_length == pytest.approx(9.0)


# --- translations ------------------------------------------------------


def test_translate_x_on_eigenstate(cfg, grid):
    # mode j picks up e^{i q d phi / hbar l c} e^{-i kappa_j d}
    psi = landau_eigenstate(cfg, grid, 0, 1)
    d = 0.37
    moved = translate_x(psi, d, cfg)
    kappa = 2 * np.pi / cfg.l
    expected = np.exp(1j * (cfg.q * d * cfg.phi0 / (cfg.hbar * cfg.l * cfg.c) - kappa * d))
    overlap = inner_product(psi, moved)
    assert overlap == pytest.approx(expected, abs=1e-12)


def test_translate_x_full_circumference_is_flux_phase(cfg, grid, make_state, rng):
    psi = make_state(rng)
    moved = translate_x(psi, cfg.l, cfg)
    expected = psi * np.exp(1j * cfg.flux_phase(cfg.phi0))
    np.testing.assert_allclose(moved.amplitudes, expected.amplitudes, atol=1e-13)


def test_translate_y_quantized_step_maps_modes(cfg, grid):
    # shifting by one translation step relabels j -> j - 1 exactly
    psi = landau_eigenstate(cfg, grid, 0, 0)
    moved = translate_y(psi, cfg.translation_step, cfg)
    target = landau_eigenstate(cfg, grid, 0, -1)
    assert moved.mode_offset == 0.0
    assert abs(inner_product(target, moved)) == pytest.approx(1.0, abs=1e-12)


def test_translate_y_moves_center(cfg, grid, y_stats):
    psi = landau_eigenstate(cfg, grid, 1, 0)
    moved = translate_y(psi, 0.63, cfg)
    y_mean = y_stats(moved.to_modes().profiles, grid)[0]
    assert y_mean == pytest.approx(mode_center(cfg, 0) + 0.63, abs=1e-9)


def test_translate_y_truncation_guard(cfg, grid):
    psi = landau_eigenstate(cfg, grid, 0, 0)
    with pytest.raises(TruncationError):
        translate_y(psi, 11.0, cfg)


def test_translate_y_refuses_a_shift_across_the_seam(grid):
    # at phi0 = pi/2 the (0, 0) state sits at 0.25; a shift by +-20 carries
    # it past the window's end, and the grid's periodic shift would wrap it
    # whole to -3.75 or 4.25, clear of the edge cells
    cfg = PhysicsConfig.reference(phi0=np.pi / 2)
    psi = landau_eigenstate(cfg, grid, 0, 0)
    for ry in (20.0, -20.0):
        with pytest.raises(TruncationError, match=f"translated by ry = {ry:g};"):
            translate_y(psi, ry, cfg)
        with pytest.raises(TruncationError):
            apply_displacement(psi, Displacement(1.0, ry), cfg)


def test_paths_refuse_a_shift_across_the_seam(grid):
    cfg = PhysicsConfig.reference(phi0=np.pi / 2)
    psi = landau_eigenstate(cfg, grid, 0, 0)
    # the path returns to the origin, but its vertex (0, 20) is past the seam
    with pytest.raises(TruncationError):
        sequential_translation(psi, PathPolyline(((0.0, 0.0), (0.0, 20.0), (0.0, 0.0))), cfg)
    with pytest.raises(TruncationError):
        path_ordered_translation(psi, PathPolyline(((0.0, 0.0), (1.0, 20.0))), cfg)


def test_sequential_translation_checks_every_vertex(cfg, grid):
    # the path returns to the origin, so only the state at its middle vertex
    # reaches the edge cells; the periodic spectral shift would hide it
    psi = landau_eigenstate(cfg, grid, 0, 0)
    path = PathPolyline(((0.0, 0.0), (0.0, 11.0), (0.0, 0.0)))
    with pytest.raises(TruncationError):
        sequential_translation(psi, path, cfg)


def test_compose_phase_frozen(cfg):
    # -qB/2hc * (R1 x R2): unit steps at reference give exactly -1/2
    assert compose_phase(Displacement(1.0, 0.0), Displacement(0.0, 1.0), cfg) == pytest.approx(
        -0.5, abs=1e-15
    )
    assert compose_phase(Displacement(0.0, 1.0), Displacement(1.0, 0.0), cfg) == pytest.approx(
        0.5, abs=1e-15
    )


def test_bch_composition(cfg, grid, make_state, rng):
    for _ in range(10):
        r1 = Displacement(*rng.uniform(-1.2, 1.2, 2))
        r2 = Displacement(*rng.uniform(-1.2, 1.2, 2))
        psi = make_state(rng)
        seq = apply_displacement(apply_displacement(psi, r1, cfg), r2, cfg)
        direct = apply_displacement(psi, r1 + r2, cfg)
        phase = compose_phase(r1, r2, cfg)
        np.testing.assert_allclose(
            seq.amplitudes, direct.amplitudes * np.exp(1j * phase), atol=1e-10
        )


def test_mixed_order_conventions_agree(cfg, grid, make_state, rng):
    # x-then-y with +RxRy/2 phase equals y-then-x with -RxRy/2
    psi = make_state(rng)
    r = Displacement(0.7, -0.45)
    via_api = apply_displacement(psi, r, cfg)
    ty_first = translate_x(translate_y(psi, r.ry, cfg), r.rx, cfg)
    other = ty_first * np.exp(-0.5j * cfg.q * cfg.B * r.rx * r.ry / (cfg.hbar * cfg.c))
    np.testing.assert_allclose(via_api.amplitudes, other.amplitudes, atol=1e-11)


# --- path-ordered products ----------------------------------------------


def test_path_ordered_telescopes(cfg, grid, make_state, rng):
    psi = make_state(rng)
    path = PathPolyline(((0.0, 0.0), (0.8, 0.0), (0.8, 0.6), (0.2, 0.6), (0.2, 0.1)))
    res = path_ordered_translation(psi, path, cfg)
    assert path.net_displacement.rx == pytest.approx(0.2)
    assert path.net_displacement.ry == pytest.approx(0.1)
    assert res.accumulated_phase == pytest.approx(
        -cfg.q * cfg.B * path.swept_area() / (cfg.hbar * cfg.c), abs=1e-13
    )
    direct = apply_displacement(psi, path.net_displacement, cfg)
    np.testing.assert_allclose(res.state.amplitudes, direct.amplitudes, atol=1e-11)


def test_sequential_matches_telescoped(cfg, grid, make_state, rng):
    # the literal ordered product is the independent oracle for the
    # area-phase bookkeeping
    psi = make_state(rng)
    path = PathPolyline(((0.0, 0.0), (0.5, 0.4), (-0.3, 0.9), (0.0, 0.0))).refined(8)
    seq_state, phase_pred = sequential_translation(psi, path, cfg)
    res = path_ordered_translation(psi, path, cfg)
    assert phase_pred == pytest.approx(res.accumulated_phase, abs=1e-12)
    np.testing.assert_allclose(
        seq_state.amplitudes,
        res.state.amplitudes * np.exp(1j * res.accumulated_phase),
        atol=1e-13,
    )


def test_closed_loop_pure_phase(cfg, grid, make_state, rng):
    psi = make_state(rng)
    path = PathPolyline(((0.0, 0.0), (0.9, 0.0), (0.9, 0.7), (0.0, 0.7), (0.0, 0.0)))
    res = path_ordered_translation(psi, path, cfg)
    total = res.state * np.exp(1j * res.accumulated_phase)
    overlap = inner_product(psi, total) / psi.norm_sq()
    expected = np.exp(-1j * cfg.q * cfg.B * 0.63 / (cfg.hbar * cfg.c))
    assert overlap == pytest.approx(expected, abs=1e-11)
    # the experiments' loops, at a flux that makes the winding phase show:
    # M(C) multiplies any state by exp(i q (w phi - B S) / hbar c), the
    # loop's predicted phase, with S the area the builder means to sweep
    c = replace(cfg, phi0=1.3)
    phi_B = 0.8
    loops = (
        (ab_loop_spec(c, 1.0), 1, 0.0),
        (ab_loop_spec(c, 1.0, winding=2), 2, 0.0),
        (rectangle_loop_spec(c, 0.5, 1.0), 1, -0.5 * c.l),
        (fig1_loop_spec(c, "blue", phi_B, 1.0), 1, phi_B / c.B),
        (fig1_loop_spec(c, "green", phi_B, 1.0), 1, -phi_B / c.B),
    )
    for spec, winding, area in loops:
        res = path_ordered_translation(psi, spec.path, c)
        gamma = c.q * (winding * c.phi0 - c.B * area) / (c.hbar * c.c)
        total = res.state * np.exp(1j * res.accumulated_phase)
        assert (total - psi * np.exp(1j * gamma)).norm() < 1e-12, spec.kind


# --- the x-space translations, kept as the reference --------------------

# x and y shifts within this many cells of a whole cell are index rolls
_CELL_SNAP = 1e-12


def _shift(u, cells, axis, phases):
    """Periodic shift of u along axis by `cells`: a roll for whole cells, else spectral."""
    nearest = round(cells)
    if abs(cells - nearest) < _CELL_SNAP * max(1.0, abs(cells)):
        return np.roll(u, nearest, axis=axis)
    return np.fft.ifft(np.fft.fft(u, axis=axis) * phases, axis=axis)


def reference_translate_x(psi, rx, cfg):
    """translate_x as an FFT pair along x (or a roll) on the reduced amplitudes."""
    grid = psi.grid
    flux_phase = np.exp(1j * cfg.q * rx * cfg.phi0 / (cfg.hbar * grid.l * cfg.c))
    offset_phase = np.exp(-2j * np.pi * psi.mode_offset * rx / grid.l)
    turns = np.mod(grid.mode_numbers * (rx / grid.l), 1.0)
    u = _shift(psi.amplitudes, rx / grid.dx, 0, np.exp(-2j * np.pi * turns)[:, None])
    return Wavefunction(grid, u * (flux_phase * offset_phase), psi.mode_offset)


def reference_translate_y(psi, ry, cfg):
    """translate_y as an FFT pair along y (or a roll), the window judged on
    every x row, then the gauge phase multiplied in x space."""
    grid = psi.grid
    u = _shift(psi.amplitudes, ry / grid.dy, 1, np.exp(-1j * grid.ky * ry)[None, :])
    check_window(u, grid, f"the state translated by ry = {ry:g}", ry)
    alpha = -cfg.q * cfg.B * ry / (cfg.hbar * cfg.c)
    return Wavefunction(grid, u, psi.mode_offset).multiply_phase_linear_x(alpha)


def reference_apply_displacement(psi, disp, cfg):
    out = reference_translate_y(reference_translate_x(psi, disp.rx, cfg), disp.ry, cfg)
    return out * np.exp(0.5j * cfg.q * cfg.B * disp.rx * disp.ry / (cfg.hbar * cfg.c))


def reference_sequential_translation(psi, path, cfg):
    state, reached, phase = psi, Displacement(0.0, 0.0), 0.0
    for seg in path.segments:
        state = reference_apply_displacement(state, seg, cfg)
        phase += compose_phase(reached, seg, cfg)
        reached = reached + seg
    return state, phase


def assert_matches_reference(new, old):
    assert abs(new.mode_offset - old.mode_offset) <= 1e-14
    assert np.max(np.abs(new.amplitudes - old.amplitudes)) <= 1e-13


def check_against_reference(psi, cfg, rx, ry, path=None):
    assert_matches_reference(translate_x(psi, rx, cfg), reference_translate_x(psi, rx, cfg))
    assert_matches_reference(translate_y(psi, ry, cfg), reference_translate_y(psi, ry, cfg))
    disp = Displacement(rx, ry)
    assert_matches_reference(apply_displacement(psi, disp, cfg),
                             reference_apply_displacement(psi, disp, cfg))
    if path is not None:
        state, phase = sequential_translation(psi, path, cfg)
        old_state, old_phase = reference_sequential_translation(psi, path, cfg)
        assert_matches_reference(state, old_state)
        assert abs(phase - old_phase) <= 1e-14


def test_translations_match_the_x_space_reference(cfg, grid, make_state, rng):
    path = PathPolyline(((0.0, 0.0), (0.5, 0.4), (-0.3, 0.9), (0.0, 0.0))).refined(4)
    for _ in range(4):
        psi = make_state(rng)
        # theta != 0, reached by an unquantized y step
        lifted = reference_translate_y(psi, float(rng.uniform(0.1, 0.9)), cfg)
        assert lifted.mode_offset != 0.0
        for state in (psi, lifted):
            rx, ry = rng.uniform(-1.5, 1.5, 2)
            check_against_reference(state, cfg, rx, ry, path)
            # quantized y steps keep the offset and relabel the modes
            for k in (-2, 1, 3):
                check_against_reference(state, cfg, rx, k * cfg.translation_step)
            # whole cells: the reference rolls the indices
            for k in (1, -17, 64):
                check_against_reference(state, cfg, k * grid.dx, k * grid.dy)


def test_translations_match_the_reference_across_the_nyquist_edge(grid):
    # with 31 flux quanta in the bore, modes 29 to 31 sit near the middle of
    # the window; a step of -1 translation step maps j to j + 1, and row
    # j = 31 goes to j = -32, the other end of the grid's Nyquist range
    cfg = PhysicsConfig.reference(phi0=31 * 2.0 * np.pi)
    amps = sum(c * landau_eigenstate(cfg, grid, n, j).amplitudes
               for n, j, c in ((0, 31, 1.0), (1, 30, 0.5j), (2, 29, -0.7)))
    psi = Wavefunction(grid, amps, 0.0).normalized()
    moved = translate_y(psi, -cfg.translation_step, cfg)
    norms = moved.to_modes().mode_norms_sq()
    assert norms[grid.mode_row(-32)] == pytest.approx(1.0 / 1.74, abs=1e-12)
    path = PathPolyline(((0.0, 0.0), (0.4, -1.0), (0.9, -1.5)))
    check_against_reference(psi, cfg, 0.37, -cfg.translation_step, path)
    check_against_reference(psi, cfg, 0.37, -2.3, path.refined(3))

