import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landau_cylinder import (
    ConfigError,
    CylinderGrid,
    Displacement,
    DriveProtocol,
    PathPolyline,
    TruncationError,
    ab_loop_spec,
    apply_displacement,
    apply_hamiltonian,
    displaced_gaussian,
    evolve_oracle,
    evolve_tdse,
    expectation_energy,
    ModeStack,
    PhysicsConfig,
    Wavefunction,
    inner_product,
    landau_eigenstate,
    landau_energy,
    mode_center,
    mode_well,
    rectangle_loop_spec,
    wrap_angle,
)
from landau_cylinder import propagator
from landau_cylinder.core import TRUNCATION_THRESHOLD
from landau_cylinder.verify import CHECKS, _random_drive
from landau_cylinder.propagator import MAX_PIECE_ANGLE, OCCUPATION_THRESHOLD, _time_grid


WIGGLE = PathPolyline(((0.0, 0.0), (0.8, 0.6), (0.0, 0.0)))


# --- Hamiltonian application ----------------------------------------------


def test_expectation_energy_on_levels(cfg, grid):
    for n in range(3):
        psi = landau_eigenstate(cfg, grid, n, 0)
        assert expectation_energy(psi, cfg) == pytest.approx(landau_energy(cfg, n), abs=1e-10)


def with_field(h_psi, psi, cfg, ey):
    """H psi plus the drive's -q E_y y psi, row by row."""
    tilt = -cfg.q * ey * psi.grid.y * psi.to_modes().profiles
    return h_psi + Wavefunction.from_modes(ModeStack(psi.grid, tilt, psi.mode_offset))


def test_hamiltonian_with_field_tilts_well(cfg, grid, y_stats):
    # an ab loop moves along x only, so the flux stays phi0 and the drive
    # adds just -qE_y y: <H> shifts by -qE_y <y> at fixed state
    psi = landau_eigenstate(cfg, grid, 0, -1)
    proto = DriveProtocol.from_path(cfg, PathPolyline(((0.0, 0.0), (cfg.l, 0.0))), T=100.0)
    t = 50.0  # cruise phase, between the ramps
    ey = float(proto.efield(t)[1])
    assert ey == pytest.approx(cfg.B / cfg.c * cfg.l / 90.0, rel=1e-12)
    assert float(proto.flux(t)) == cfg.phi0
    h0 = apply_hamiltonian(psi, cfg)
    h1 = with_field(h0, psi, cfg, ey)
    de = np.real(inner_product(psi, h1) - inner_product(psi, h0))
    y_mean = y_stats(psi.to_modes().profiles, grid)[0]
    assert de == pytest.approx(-cfg.q * ey * y_mean, rel=1e-10)


def test_mode_well_matches_gauge_potential(grid):
    # completing the square reproduces apply_hamiltonian's gauge form on
    # every row; a profile constant in y has no kinetic term, so the
    # potential is H psi / psi
    cfg = PhysicsConfig(hbar=2.0, q=3.0, m=1.5, c=1.2, B=2.0, phi0=0.4, l=grid.l)
    theta = 0.3
    proto = DriveProtocol.from_path(cfg, PathPolyline(((0.0, 0.0), (3.0, 1.0))), T=100.0)
    t = 50.0  # cruise phase: the flux has moved and E_y is on
    rows = [grid.mode_row(j) for j in (-2, 0, 3)]
    profiles = np.zeros((grid.Nx, grid.Ny), dtype=complex)
    profiles[rows] = 1.0
    psi = Wavefunction.from_modes(ModeStack(grid, profiles, theta))
    ey = float(proto.efield(t)[1])
    assert ey != 0.0
    at_t = replace(cfg, phi0=float(proto.flux(t)))
    h_psi = with_field(apply_hamiltonian(psi, at_t), psi, cfg, ey)
    v_gauge = np.real(h_psi.to_modes().profiles[rows] / psi.to_modes().profiles[rows])
    b, c = mode_well(cfg, grid.mode_numbers[rows][:, None], float(proto.flux(t)), ey, theta)
    v_well = 0.5 * cfg.m * cfg.omega**2 * (grid.y - b) ** 2 + c
    np.testing.assert_allclose(v_well, v_gauge, rtol=0.0, atol=1e-12 * np.abs(v_gauge).max())


# --- TDSE vs exact oracle ---------------------------------------------------


def test_static_evolution_phase(cfg, grid):
    proto = DriveProtocol(cfg=cfg, T=3.0)
    psi0 = landau_eigenstate(cfg, grid, 1, 0)
    rec = evolve_tdse(psi0, proto)
    overlap = inner_product(psi0, rec.final_state)
    assert abs(overlap) == pytest.approx(1.0, abs=1e-12)
    expected = -landau_energy(cfg, 1) * 3.0 / cfg.hbar
    assert np.angle(overlap) == pytest.approx(np.angle(np.exp(1j * expected)), abs=1e-12)


@pytest.mark.parametrize("refine", [1, 10])
def test_hold_phase_exact_at_any_step(cfg, grid, refine):
    # a static well is propagated without splitting bias: every level keeps
    # exactly its E_n T / hbar phase whatever dt splits the quadrature into
    # (Strang splitting misses by (n + 1/2) omega T (omega dt)^2 / 24)
    dt = 0.1 / cfg.omega / refine
    T = 20.0
    proto = DriveProtocol(cfg=cfg, T=T, dt=dt)
    for n in (0, 1, 2):
        for j in (-1, 0, 1):
            psi0 = landau_eigenstate(cfg, grid, n, j)
            overlap = inner_product(psi0, evolve_tdse(psi0, proto).final_state)
            phase = wrap_angle(np.angle(overlap) + landau_energy(cfg, n) * T / cfg.hbar)
            assert abs(phase) < 1e-10, (n, j, phase)


def test_ab_loop_phase_independent_of_dt(cfg, grid):
    # dt only splits the quadrature pieces, which are exact to rounding, so
    # it moves the return phase only by rounding
    cfg = replace(cfg, phi0=np.pi / 2)
    path = ab_loop_spec(cfg, T=200.0).path
    psi0 = landau_eigenstate(cfg, grid, 0, 0)
    phases = []
    for dt in (None, 0.1, 0.01):
        proto = DriveProtocol.from_path(cfg, path, T=200.0, dt=dt)
        phases.append(np.angle(inner_product(psi0, evolve_tdse(psi0, proto).final_state)))
    assert max(abs(wrap_angle(p - phases[0])) for p in phases[1:]) < 1e-10


def reference_tdse(psi0, protocol):
    """The evolution as a plain loop of exact steps, one at a time, every factor rebuilt.

    Independent of evolve_tdse's whole-drive form: each piece of _time_grid
    is one step, exact for its own static well at the row's centre b0 at the
    step start.  Its force integrals A, B = S / m omega, G and D (those of
    _drive_integrals, over the step in its own time) come from nested
    12-point Gauss-Legendre (numpy's leggauss), and the
    step applies e^{i (A x + B p) / hbar} as a shift by -B and a kick, then
    the static well's exact V K V split.  Returns the final state and its
    norm drift.
    """
    cfg, grid = protocol.cfg, psi0.grid
    stack = psi0.to_modes()
    occ = stack.occupied_rows(OCCUPATION_THRESHOLD)
    prof = stack.profiles[occ].copy()
    omega, hbar, m = cfg.omega, cfg.hbar, cfg.m
    stiffness = m * omega**2
    y, ky = grid.y[None, :], grid.ky
    nodes, weights = np.polynomial.legendre.leggauss(12)
    u, wu = 0.5 * (nodes + 1.0), 0.5 * weights  # the rule on [0, 1]

    def well(t):  # (b, C) per row, then the shape of t
        modes = grid.mode_numbers[occ].reshape((-1,) + (1,) * t.ndim)
        return mode_well(cfg, modes, protocol.flux(t), protocol.efield(t)[1], stack.mode_offset)

    for t0, h, n in _time_grid(protocol):
        starts = t0 + h * np.arange(n)
        s1 = h * u
        s2 = s1[:, None] * u  # inner nodes: row i spans [0, s1[i]]
        b0 = well(starts)[0]
        b1, c1 = well(starts[:, None] + s1)
        f1 = stiffness * (b1 - b0[..., None])
        f2 = stiffness * (well(starts[:, None, None] + s2)[0] - b0[..., None, None])
        A = h * (f1 * np.cos(omega * s1)) @ wu
        B = h * (f1 * np.sin(omega * s1)) @ wu / (m * omega)
        G = h * (f1 * f1 / (2.0 * stiffness) + c1) @ wu
        inner = s1 * ((f2 * np.sin(omega * (s1[:, None] - s2))) @ wu)
        D = h * (f1 * inner) @ wu
        phase = (-G + D / (2.0 * m * omega) + 0.5 * A * B) / hbar
        tau, sigma = np.tan(0.5 * omega * h) / omega, np.sin(omega * h) / omega
        free = np.exp(-1j * hbar * sigma * ky**2 / (2.0 * m))
        for i in range(n):
            x = y - b0[:, i, None]
            prof = np.fft.ifft(np.fft.fft(prof, axis=1) * np.exp(1j * ky * B[:, i, None]), axis=1)
            prof = prof * np.exp(1j * (A[:, i, None] * x / hbar + phase[:, i, None]))
            half_well = np.exp(-1j * stiffness * tau * x * x / (2.0 * hbar))
            prof = half_well * np.fft.ifft(free * np.fft.fft(half_well * prof, axis=1), axis=1)
    full = np.zeros((grid.Nx, grid.Ny), dtype=complex)
    full[occ] = prof
    final = Wavefunction.from_modes(ModeStack(grid, full, stack.mode_offset))
    return final, abs(final.norm() - psi0.norm())


def stepper_case(cfg, grid, case):
    """(psi0, protocol) of a named evolve_tdse case."""
    cfg = replace(cfg, phi0=np.pi / 2)
    psi0 = landau_eigenstate(cfg, grid, 0, 0)
    if case in ("two_rows", "open_offset_rows"):
        psi0 = (psi0 + landau_eigenstate(cfg, grid, 1, 1)).normalized()
    if case == "winding":
        proto = ab_loop_spec(cfg, T=200.0).protocol(cfg)
    elif case == "hold":
        proto = DriveProtocol(cfg=cfg, T=20.0)
    elif case == "hold_long":
        proto = DriveProtocol(cfg=cfg, T=3.0, dt=0.002)
    elif case == "wiggle":
        proto = DriveProtocol.from_path(cfg, WIGGLE, T=4.0, dt=1e-3)
    elif case == "two_rows":
        proto = rectangle_loop_spec(cfg, height=1.0, T=40.0).protocol(cfg)
    else:
        # a y translation by a non-quantized ry gives mode offset 0.7, and the
        # open drive ends at R_x = 1.3, no multiple of l, so each row's -delta F
        # term in G moves its phase; on two_rows' closed loop that term is
        # -2 pi hbar w j and leaves the phase as it is
        psi0 = apply_displacement(psi0, Displacement(0.0, 0.3), cfg)
        path = PathPolyline(((0.0, 0.0), (0.9, 0.5), (1.3, -0.2)))
        proto = DriveProtocol.from_path(cfg, path, T=6.0)
    return psi0, proto


CASES = ["winding", "hold", "hold_long", "wiggle", "two_rows", "open_offset_rows"]


@pytest.mark.parametrize("case", CASES)
def test_tdse_equals_reference_loop(cfg, grid, case):
    # evolve_tdse sums the force integrals of every piece into one rotation,
    # one displacement and one phase; the reference takes the pieces as
    # exact steps one at a time, with its own quadrature, so the two agree
    # to rounding
    psi0, proto = stepper_case(cfg, grid, case)
    rec = evolve_tdse(psi0, proto)
    expected, drift = reference_tdse(psi0, proto)
    assert np.max(np.abs(rec.final_state.amplitudes - expected.amplitudes)) <= 1e-12
    assert abs(rec.norm_drift - drift) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(
    durations=st.lists(st.floats(0.05, 50.0), min_size=1, max_size=4),
    ramp_fraction=st.sampled_from([0.0, 0.1, 0.5]),
    omega=st.floats(0.2, 5.0),
    dt=st.one_of(st.none(), st.floats(1e-3, 5.0)),
)
def test_time_grid(cfg, durations, ramp_fraction, omega, dt):
    # segments of the given durations along x; B sets omega
    cfg = replace(cfg, B=omega * cfg.m * cfg.c / cfg.q)
    T = sum(durations)
    vertices = [(0.0, 0.0)]
    for d in durations:
        vertices.append((vertices[-1][0] + d, 0.0))
    proto = DriveProtocol.from_path(
        cfg, PathPolyline(tuple(vertices)), T=T, dt=dt, ramp_fraction=ramp_fraction
    )
    pieces = _time_grid(proto)
    h_max = MAX_PIECE_ANGLE / cfg.omega if dt is None else min(MAX_PIECE_ANGLE / cfg.omega, dt)
    edges = [t0 + i * h for t0, h, n in pieces for i in range(n)] + [T]
    # the intervals chain from 0 to T and start at every breakpoint
    ends = [t0 + n * h for t0, h, n in pieces]
    assert pieces[0][0] == 0.0
    np.testing.assert_allclose(ends[:-1], [t0 for t0, *_ in pieces[1:]], rtol=0, atol=1e-12 * T)
    assert ends[-1] == pytest.approx(T, rel=1e-12)
    np.testing.assert_array_equal([t0 for t0, *_ in pieces], proto.breakpoints()[:-1])
    assert np.all(np.diff(edges) > 0)
    for _, h, n in pieces:
        # the fewest equal pieces short enough for the quadrature and below dt;
        # no T / 256 cap: the criterion-7 drives and loops up to T = 400 read
        # the same oracle gaps with it and without it
        assert n >= 1
        assert h <= h_max * (1 + 1e-9)
        assert n == 1 or h * n / (n - 1) > h_max


def test_orbit_leaving_window_mid_drive_is_exact(cfg, grid):
    # the rectangle loop of height 11 carries the state to y ~ 11, off the
    # window, and back; only the rotations of psi0 and psi(T) are ever on
    # the grid, so the result is the infinite cylinder's
    spec = rectangle_loop_spec(cfg, height=11.0, T=200.0)
    psi0 = landau_eigenstate(cfg, grid, 0, 0)
    proto = spec.protocol(cfg)
    num = evolve_tdse(psi0, proto).final_state
    ora = evolve_oracle(psi0, proto).final_state
    assert (num - ora).norm() < 1e-10


def test_kicked_packet_trips_the_rotation_check(cfg, grid):
    # a packet kicked hard in a static well swings out to y ~ 9 in its
    # rotation, whose pieces end within 3.5 of the edge; the error names
    # the first of them
    proto = DriveProtocol(cfg=cfg, T=10.0)
    psi0 = displaced_gaussian(cfg, grid, j=0, center=mode_center(cfg, 0), momentum=9.0)
    first = 2.0 * np.pi + (10.0 - 2.0 * np.pi) / 3.0
    with pytest.raises(TruncationError, match=f"psi0 rotated by the static well to t = {first:.3f};"):
        evolve_tdse(psi0, proto)


def test_shift_across_the_seam_raises(grid):
    # a fast rectangle loop flings the (0, -6) state, centred at 6.25, to
    # y ~ 21.6; the FFT's periodic shift would put it whole at y ~ -2.6,
    # clear of the edge cells, so the check also counts what crossed the seam
    cfg = PhysicsConfig.reference(phi0=np.pi / 2)
    psi0 = landau_eigenstate(cfg, grid, 0, -6)
    proto = rectangle_loop_spec(cfg, height=11.0, T=5.0).protocol(cfg)
    with pytest.raises(TruncationError, match="in psi\\(T\\) at t = 5.000;"):
        evolve_tdse(psi0, proto)


def test_hold_scan_exact_on_every_admitted_row(grid, y_stats):
    # driveless holds at T = 500 (rotation pieces of omega h ~ pi/2) from
    # every (n, j) landau_eigenstate admits, at phi0 = pi/2, where row j is
    # centred at 0.25 - j; each state comes back as e^{-i E_n T / hbar}
    # times itself, up to its own amplitude at the window's seam
    cfg = PhysicsConfig.reference(phi0=np.pi / 2)
    T = 500.0
    proto = DriveProtocol(cfg=cfg, T=T)
    held = 0
    for n in (0, 2):
        for j in range(-grid.Nx // 2, grid.Nx // 2):
            try:
                psi0 = landau_eigenstate(cfg, grid, n, j)
            except ConfigError:
                continue
            # construction applies the window rule, so no admitted state is over the gate
            assert y_stats(psi0.to_modes().profiles, grid)[1] <= TRUNCATION_THRESHOLD, (n, j)
            chi = psi0.to_modes().profiles[grid.mode_row(j)]
            chi = chi / np.sqrt(np.sum(np.abs(chi) ** 2) * grid.dy)
            seam = max(abs(chi[0]), abs(chi[-1]))
            final = evolve_tdse(psi0, proto).final_state
            want = psi0 * np.exp(-1j * landau_energy(cfg, n) * T / cfg.hbar)
            err = (final - want).norm()
            assert err <= seam + 1e-12, (n, j, err, seam)
            held += 1
    assert held == 15 + 13


def test_tdse_matches_oracle_adiabatic(cfg, grid):
    proto = DriveProtocol.from_path(cfg, WIGGLE, T=40.0)
    psi0 = displaced_gaussian(cfg, grid, j=0, center=mode_center(cfg, 0) + 0.3)
    num = evolve_tdse(psi0, proto).final_state
    ora = evolve_oracle(psi0, proto).final_state
    overlap = inner_product(num, ora)
    assert abs(1.0 - abs(overlap)) < 3e-12
    assert abs(np.angle(overlap)) < 1e-11


def test_tdse_matches_oracle_violent(cfg, grid):
    # drive period comparable to the cyclotron period: nothing adiabatic
    proto = DriveProtocol.from_path(cfg, WIGGLE, T=3.0)
    psi0 = displaced_gaussian(cfg, grid, j=0, center=mode_center(cfg, 0) - 0.5, momentum=0.6, n=2)
    num = evolve_tdse(psi0, proto).final_state
    ora = evolve_oracle(psi0, proto).final_state
    overlap = inner_product(num, ora)
    assert abs(1.0 - abs(overlap)) < 3e-12
    assert abs(np.angle(overlap)) < 1e-11


def test_default_dt_matches_oracle_on_fast_drive(cfg, grid):
    # a criterion-7-style drive (ramps of 0.1) needs no explicit dt
    proto = DriveProtocol.from_path(cfg, WIGGLE, T=4.0)
    psi0 = displaced_gaussian(cfg, grid, j=1, center=mode_center(cfg, 1) + 0.5, momentum=-0.4, n=1)
    num = evolve_tdse(psi0, proto).final_state
    ora = evolve_oracle(psi0, proto).final_state
    overlap = inner_product(num, ora)
    assert abs(1.0 - abs(overlap)) < 3e-12
    assert abs(np.angle(overlap)) < 1e-11


def _criterion_7_states(cfg, grid, random_drives, loop=True, ramp_fraction=0.1):
    """(psi0, protocol) of criterion 7's T = 500 rectangle loop, if asked,
    and of its first random drives, as that check draws them."""
    check = next(c for c in CHECKS if c.name == "oracle_equivalence")
    rng = np.random.default_rng(check.seed)
    spec = rectangle_loop_spec(cfg, 0.5, T=500.0)
    drives = [(0, 0, 0.0, 0.0, spec.path.vertices, spec.T)] if loop else []
    drives += [_random_drive(rng) for _ in range(random_drives)]
    states = []
    for n, j, d0, p0, vertices, T in drives:
        psi0 = displaced_gaussian(
            cfg, grid, j=j, center=mode_center(cfg, j) + d0, momentum=p0, n=n
        )
        proto = DriveProtocol.from_path(cfg, PathPolyline(vertices), T=T,
                                        ramp_fraction=ramp_fraction)
        states.append((psi0, proto))
    return states


def test_oracle_agrees_with_tighter_rerun(cfg, grid, monkeypatch):
    # the judge of criterion 7, judged on that criterion's random drives and
    # its T = 500 rectangle loop: its state against a rerun on sub-intervals
    # of half the angle with degree 20, measured at 2.4e-15 (5.7e-14 on the
    # criterion's T = 500 fig1 loops)
    states = _criterion_7_states(cfg, grid, 20)
    runs = [[evolve_oracle(psi0, proto).final_state for psi0, proto in states]]
    monkeypatch.setattr(propagator, "ORACLE_PIECE_ANGLE", 0.5 * propagator.ORACLE_PIECE_ANGLE)
    monkeypatch.setattr(propagator, "CHEBYSHEV_NODES", 21)
    runs.append([evolve_oracle(psi0, proto).final_state for psi0, proto in states])
    gaps = [(a - b).norm() for a, b in zip(*runs)]
    assert max(gaps) <= 1e-12


def dop853_orbit(protocol, j, theta, y0, p0):
    """_classical_orbit by scipy's DOP853 at rtol 3e-14, one call per
    interval between breakpoints, sampling the drive's array formulas."""
    from scipy.integrate import solve_ivp

    cfg = protocol.cfg
    stiffness = cfg.m * cfg.omega**2

    def rhs(t, z):
        yc, pc, _ = z
        b, c = mode_well(cfg, j, protocol.flux(t), protocol.efield(t)[1], theta)
        f = stiffness * b
        lagr = pc * pc / (2.0 * cfg.m) - 0.5 * stiffness * yc * yc + f * yc
        return [pc / cfg.m, f - stiffness * yc, lagr - (c + 0.5 * f * b)]

    z = np.array([y0, p0, 0.0])
    times = protocol.breakpoints()
    for t0, t1 in zip(times[:-1], times[1:]):
        sol = solve_ivp(rhs, (t0, t1), z, method="DOP853", rtol=3e-14, atol=1e-15)
        assert sol.success, sol.message
        z = sol.y[:, -1]
    return tuple(z)


def test_oracle_agrees_with_dop853(cfg, grid, monkeypatch):
    # an independent ODE solver in place of the Chebyshev-Picard sweeps, on
    # five of criterion 7's random drives, measured at 3.1e-15 (the T = 500
    # loops take seconds each, and DOP853 is itself about 1e-13 off there)
    states = _criterion_7_states(cfg, grid, 5, loop=False)
    runs = [[evolve_oracle(psi0, proto).final_state for psi0, proto in states]]
    monkeypatch.setattr(propagator, "_classical_orbit", dop853_orbit)
    runs.append([evolve_oracle(psi0, proto).final_state for psi0, proto in states])
    gaps = [(a - b).norm() for a, b in zip(*runs)]
    assert max(gaps) <= 1e-13


def test_tdse_matches_oracle_without_ramps(cfg, grid):
    # at ramp fraction 0 the velocity jumps at every segment start, where
    # the formulas count both segments, so only interior nodes integrate it
    # right; reads 2.3e-15 (DOP853 at rtol 1e-12 read 6.3e-12 to 1.5e-11)
    for psi0, proto in _criterion_7_states(cfg, grid, 5, loop=False, ramp_fraction=0.0):
        num = evolve_tdse(psi0, proto).final_state
        ora = evolve_oracle(psi0, proto).final_state
        assert (num - ora).norm() < 1e-12


def test_hold_returns_every_row(cfg, grid):
    # a row holding 1e-8 of the probability must come back as
    # e^{-i E_n T / hbar} times itself, like the large one
    T = 3.0
    big, small = (landau_eigenstate(cfg, grid, 0, j) for j in (0, 1))
    psi0 = (big + small * 1e-4).normalized()
    rec = evolve_tdse(psi0, DriveProtocol(cfg=cfg, T=T))
    final = rec.final_state
    want = psi0.to_modes().profiles * np.exp(-1j * landau_energy(cfg, 0) * T / cfg.hbar)
    row_err = np.sqrt(np.sum(np.abs(final.to_modes().profiles - want) ** 2, axis=1) * grid.dy)
    assert np.max(row_err) < 1e-12
    # a row left out of the propagation would show in the norm drift too
    assert rec.norm_drift <= 1e-12


def test_tdse_rejects_empty_state(cfg, grid):
    empty = Wavefunction(grid, np.zeros((grid.Nx, grid.Ny), dtype=complex))
    with pytest.raises(ValueError, match="initial state is empty"):
        evolve_tdse(empty, DriveProtocol(cfg=cfg, T=1.0))


def test_oracle_rejects_multimode(cfg, grid):
    a = landau_eigenstate(cfg, grid, 0, 0)
    b = landau_eigenstate(cfg, grid, 0, 1)
    # equal rows, and a second row with 3.16e-13 of the weight, which
    # evolve_tdse propagates too (it is above OCCUPATION_THRESHOLD)
    for weight in (1.0, 10**-6.25):
        psi = a + b * weight
        assert psi.to_modes().occupied_rows(OCCUPATION_THRESHOLD).size == 2
        with pytest.raises(ValueError, match="found 2 occupied"):
            evolve_oracle(psi, DriveProtocol(cfg=cfg, T=1.0))


def test_oracle_rejects_non_eigen_profile(cfg, grid):
    prof = np.zeros((grid.Nx, grid.Ny), dtype=complex)
    y = grid.y
    # double-humped profile: no displaced level matches it
    prof[0] = np.exp(-((y - 1.2) ** 2) / 2) + np.exp(-((y + 1.2) ** 2) / 2)
    psi = Wavefunction.from_modes(ModeStack(grid, prof, 0.0)).normalized()
    with pytest.raises(ValueError):
        evolve_oracle(psi, DriveProtocol(cfg=cfg, T=1.0))
    # an eigenstate on a grid of another circumference: both evolutions
    # refuse it by the same check
    other = replace(cfg, l=5.0)
    psi = landau_eigenstate(other, CylinderGrid.for_config(other), 0, 0)
    for evolve in (evolve_tdse, evolve_oracle):
        with pytest.raises(ValueError, match="disagree about the circumference"):
            evolve(psi, DriveProtocol(cfg=cfg, T=1.0))


# --- records and guards ------------------------------------------------------


def test_evolution_record_contents(cfg, grid, y_stats):
    path = PathPolyline(((0.0, 0.0), (0.0, 1.5)))
    proto = DriveProtocol.from_path(cfg, path, T=30.0)
    psi0 = landau_eigenstate(cfg, grid, 0, 0)
    rec = evolve_tdse(psi0, proto)
    assert rec.n_steps == sum(n for *_, n in _time_grid(proto))
    assert rec.norm_drift < 1e-12
    # the state rides the moving well to center + R_y(T), up to the
    # coherent ring left by the ramp, amplitude ~ drift speed / omega = 0.06
    y_mean = y_stats(rec.final_state.to_modes().profiles, grid)[0]
    assert y_mean == pytest.approx(mode_center(cfg, 0) + 1.5, abs=0.12)


def test_memory_is_flat_in_duration(cfg, grid):
    # the drive is sampled in blocks of pieces: a whole interval at once
    # peaked near 100 MB here, and grew linearly with T
    psi0 = landau_eigenstate(cfg, grid, 0, 0)
    protocol = ab_loop_spec(cfg, T=2e5).protocol(cfg)
    tracemalloc.start()
    try:
        evolve_tdse(psi0, protocol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


def test_truncation_guard_fires(cfg, grid):
    path = PathPolyline(((0.0, 0.0), (0.0, 10.5)))
    proto = DriveProtocol.from_path(cfg, path, T=60.0)
    psi0 = landau_eigenstate(cfg, grid, 0, 0)
    with pytest.raises(TruncationError):
        evolve_tdse(psi0, proto)
