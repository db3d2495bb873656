from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landau_cylinder import (
    CylinderGrid,
    DriveProtocol,
    PathPolyline,
    TruncationError,
    ab_loop_spec,
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
from landau_cylinder.core import TRUNCATION_THRESHOLD, edge_fraction
from landau_cylinder.verify import CHECKS, _random_drive
from landau_cylinder.propagator import (
    CHECK_SAMPLES,
    MAX_BLOCK_ANGLE,
    OCCUPATION_THRESHOLD,
    _step_coefficients,
    _time_grid,
)


WIGGLE = PathPolyline(((0.0, 0.0), (0.8, 0.6), (0.0, 0.0)))


# --- Hamiltonian application ----------------------------------------------


def test_expectation_energy_on_levels(cfg, grid):
    for n in range(3):
        psi = landau_eigenstate(cfg, grid, n, 0)
        assert expectation_energy(psi, cfg) == pytest.approx(landau_energy(cfg, n), abs=1e-10)


def test_hamiltonian_with_field_tilts_well(cfg, grid):
    # an ab loop moves along x only, so the flux stays phi0 and the drive
    # adds just -qE_y y: <H> shifts by -qE_y <y> at fixed state
    psi = landau_eigenstate(cfg, grid, 0, -1)
    proto = DriveProtocol.from_path(cfg, PathPolyline(((0.0, 0.0), (cfg.l, 0.0))), T=100.0)
    t = 50.0  # cruise phase, between the ramps
    ey = float(proto.efield(t)[1])
    assert ey == pytest.approx(cfg.B / cfg.c * cfg.l / 90.0, rel=1e-12)
    h0 = apply_hamiltonian(psi, cfg)
    h1 = apply_hamiltonian(psi, cfg, protocol=proto, t=t)
    de = np.real(inner_product(psi, h1) - inner_product(psi, h0))
    assert de == pytest.approx(-cfg.q * ey * psi.expectation_y(), rel=1e-10)


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
    h_psi = apply_hamiltonian(psi, cfg, protocol=proto, t=t).to_modes().profiles[rows]
    v_gauge = np.real(h_psi / psi.to_modes().profiles[rows])
    ey = float(proto.efield(t)[1])
    assert ey != 0.0
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
    # exactly its E_n T / hbar phase at any step (Strang splitting misses
    # by (n + 1/2) omega T (omega dt)^2 / 24)
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
    # every step is exact, so dt moves the return phase only by rounding
    cfg = replace(cfg, phi0=np.pi / 2)
    path = ab_loop_spec(cfg, T=200.0).path
    psi0 = landau_eigenstate(cfg, grid, 0, 0)
    phases = []
    for dt in (None, 0.1, 0.01):
        proto = DriveProtocol.from_path(cfg, path, T=200.0, dt=dt)
        phases.append(np.angle(inner_product(psi0, evolve_tdse(psi0, proto).final_state)))
    assert max(abs(wrap_angle(p - phases[0])) for p in phases[1:]) < 1e-10


def reference_tdse(psi0, protocol):
    """The stepper as a plain loop: one exact step at a time, every factor rebuilt.

    Each step applies the factors of _step_coefficients as written there:
    its own translation e^{i beta k_y} in k space, and the quadratic and
    linear potential terms in x = y - b0.  Returns the final state, the
    norm drift and the end time of the first natural step at which the
    edge fraction exceeds TRUNCATION_THRESHOLD (None if none does; the
    loop runs on regardless).
    """
    cfg, grid = protocol.cfg, psi0.grid
    stack = psi0.to_modes()
    occ = stack.occupied_rows(OCCUPATION_THRESHOLD)
    prof = stack.profiles[occ].copy()
    omega, hbar, m = cfg.omega, cfg.hbar, cfg.m
    y, ky = grid.y[None, :], grid.ky
    norms = [np.sqrt(float((np.abs(stack.profiles) ** 2).sum() * grid.dy))]
    edge_time = None
    for t0, h, n, k in _time_grid(protocol):
        sub = h / k
        starts = t0 + sub * np.arange(n * k)
        b0, A, beta, phase = _step_coefficients(
            protocol, grid.mode_numbers[occ], stack.mode_offset, starts, sub
        )
        kin = np.exp(-1j * hbar * ky**2 * np.tan(0.5 * omega * sub) / omega / (2.0 * m))
        sigma = np.sin(omega * sub) / omega
        for s in range(n * k):
            F = np.fft.fft(prof, axis=1) * np.exp(1j * ky * beta[:, s, None]) * kin
            x = y - b0[:, s, None]
            pot = -1j * m * omega**2 * sigma * x * x / (2.0 * hbar) + 1j * A[:, s, None] * x / hbar
            psi_y = np.fft.ifft(F, axis=1) * np.exp(pot + 1j * phase[:, s, None])
            prof = np.fft.ifft(np.fft.fft(psi_y, axis=1) * kin, axis=1)
            if (s + 1) % k == 0:
                w = np.abs(prof) ** 2
                norms.append(np.sqrt(float(w.sum() * grid.dy)))
                if edge_time is None and edge_fraction(w) > TRUNCATION_THRESHOLD:
                    edge_time = t0 + (s + 1) // k * h
    full = np.zeros((grid.Nx, grid.Ny), dtype=complex)
    full[occ] = prof
    final = Wavefunction.from_modes(ModeStack(grid, full, stack.mode_offset))
    norms = np.array(norms)
    return final, float(np.max(np.abs(norms - norms[0]))), edge_time


def stepper_case(cfg, grid, case):
    """(psi0, protocol) of a named evolve_tdse case."""
    cfg = replace(cfg, phi0=np.pi / 2)
    psi0 = landau_eigenstate(cfg, grid, 0, 0)
    if case == "winding":
        proto = ab_loop_spec(cfg, T=200.0).protocol(cfg)
    elif case == "hold":
        proto = DriveProtocol(cfg=cfg, T=20.0)
    elif case == "hold_long":
        proto = DriveProtocol(cfg=cfg, T=3.0, dt=0.002)
    elif case == "wiggle":
        proto = DriveProtocol.from_path(cfg, WIGGLE, T=4.0, dt=1e-3)
    else:
        amps = psi0.amplitudes + landau_eigenstate(cfg, grid, 1, 1).amplitudes
        psi0 = Wavefunction(grid, amps, 0.0).normalized()
        proto = rectangle_loop_spec(cfg, height=1.0, T=40.0).protocol(cfg)
    return psi0, proto


@pytest.mark.parametrize("case", ["winding", "hold", "hold_long", "wiggle", "two_rows"])
def test_tdse_bitwise_equals_reference_loop(cfg, grid, case):
    # evolve_tdse applies each natural step's translations at its start,
    # writes the potential factor as a complete square and merges the
    # kinetic factors between steps; the step-by-step reference keeps every
    # factor apart, so the two agree to rounding
    psi0, proto = stepper_case(cfg, grid, case)
    rec = evolve_tdse(psi0, proto)
    expected, drift, _ = reference_tdse(psi0, proto)
    assert np.max(np.abs(rec.final_state.amplitudes - expected.amplitudes)) <= 1e-12
    assert abs(rec.norm_drift - drift) <= 1e-12


@pytest.mark.parametrize("case", ["winding", "hold_long", "two_rows"])
def test_tdse_bits_do_not_depend_on_block_size(cfg, grid, case, monkeypatch):
    # blocks of one step, and blocks of four steps of one row (two of two
    # rows), which split hold_long's natural steps of six steps across two
    # blocks, give the bytes of the default block
    psi0, proto = stepper_case(cfg, grid, case)
    if case == "hold_long":
        assert [k for *_, k in _time_grid(proto)] == [6]

    def run():
        rec = evolve_tdse(psi0, proto)
        return rec.final_state.amplitudes.tobytes(), rec.norm_drift, rec.n_steps

    default = run()
    for block_values in (1, 4 * grid.Ny):
        monkeypatch.setattr(propagator, "BLOCK_VALUES", block_values)
        assert run() == default, block_values


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
    steps = _time_grid(proto)
    h_max = min(MAX_BLOCK_ANGLE / cfg.omega, T / CHECK_SAMPLES) * (1 + 1e-9)
    edges = [t0 + i * h for t0, h, n, _ in steps for i in range(n)] + [T]
    # the intervals chain from 0 to T and start at every breakpoint
    ends = [t0 + n * h for t0, h, n, _ in steps]
    assert steps[0][0] == 0.0
    np.testing.assert_allclose(ends[:-1], [t0 for t0, *_ in steps[1:]], rtol=0, atol=1e-12 * T)
    assert ends[-1] == pytest.approx(T, rel=1e-12)
    np.testing.assert_array_equal([t0 for t0, *_ in steps], proto.breakpoints()[:-1])
    assert np.all(np.diff(edges) > 0)
    for _, h, n, k in steps:
        assert n >= 1 and k >= 1
        # a natural step is short enough for the kinetic factor and the checks
        assert h <= h_max
        if dt is None:
            assert k == 1
        else:
            # an explicit dt is honoured by the fewest equal steps
            assert h / k <= dt * (1 + 1e-9)
            assert k == 1 or h / (k - 1) > dt


def test_truncation_time_is_a_reference_check_step(cfg, grid):
    # a packet kicked hard in a static well swings out to the y edge at
    # t ~ pi / 2 omega; checks end every natural step of 4 steps, yet the
    # error reports the reference's first offending check
    proto = DriveProtocol(cfg=cfg, T=10.0, dt=0.01)
    assert [k for *_, k in _time_grid(proto)] == [4]
    psi0 = displaced_gaussian(cfg, grid, j=0, center=mode_center(cfg, 0), momentum=9.0)
    _, _, edge_time = reference_tdse(psi0, proto)
    assert edge_time is not None
    t_edge = f"t = {edge_time:.3f};"
    with pytest.raises(TruncationError, match=t_edge):
        evolve_tdse(psi0, proto)


def test_truncation_inside_a_block_on_default_grid(cfg, grid):
    # the kicked packet on the default grid (one natural step per step):
    # its first offending check lies inside a block of checks, neither
    # the block's first nor its last, and is the one the error names
    proto = DriveProtocol(cfg=cfg, T=10.0)
    ((_, h, _, k),) = _time_grid(proto)
    assert k == 1
    psi0 = displaced_gaussian(cfg, grid, j=0, center=mode_center(cfg, 0), momentum=8.0)
    _, _, edge_time = reference_tdse(psi0, proto)
    block = propagator.BLOCK_VALUES // grid.Ny
    assert 0 < (round(edge_time / h) - 1) % block < block - 1
    with pytest.raises(TruncationError, match=f"t = {edge_time:.3f};"):
        evolve_tdse(psi0, proto)


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


def test_oracle_agrees_with_tighter_rerun(cfg, grid, monkeypatch):
    # the judge of criterion 7, judged on that criterion's random drives and
    # its T = 500 rectangle loop: its own phase error against a rerun at
    # rtol 3e-14 (scipy warns below about 2.2e-14), measured at 1.0e-13 on
    # the random drives and 2.1e-14 on the loop
    check = next(c for c in CHECKS if c.name == "oracle_equivalence")
    rng = np.random.default_rng(check.seed)
    spec = rectangle_loop_spec(cfg, 0.5, T=500.0)
    drives = [(0, 0, 0.0, 0.0, spec.path.vertices, spec.T)]
    drives += [_random_drive(rng) for _ in range(check.full["random_drives"])]
    states = []
    for n, j, d0, p0, vertices, T in drives:
        psi0 = displaced_gaussian(
            cfg, grid, j=j, center=mode_center(cfg, j) + d0, momentum=p0, n=n
        )
        states.append((psi0, DriveProtocol.from_path(cfg, PathPolyline(vertices), T=T)))
    runs = [[evolve_oracle(psi0, proto).final_state for psi0, proto in states]]
    monkeypatch.setattr(propagator, "ORACLE_RTOL", 3e-14)
    monkeypatch.setattr(propagator, "ORACLE_ATOL", 1e-15)
    runs.append([evolve_oracle(psi0, proto).final_state for psi0, proto in states])
    gaps = [abs(np.angle(inner_product(a, b))) for a, b in zip(*runs)]
    assert max(gaps) < 1e-12


def test_hold_returns_every_row(cfg, grid):
    # a row holding 1e-8 of the probability must come back as
    # e^{-i E_n T / hbar} times itself, like the large one
    T = 3.0
    big, small = (landau_eigenstate(cfg, grid, 0, j) for j in (0, 1))
    psi0 = Wavefunction(grid, big.amplitudes + 1e-4 * small.amplitudes, big.mode_offset)
    psi0 = psi0.normalized()
    rec = evolve_tdse(psi0, DriveProtocol(cfg=cfg, T=T))
    final = rec.final_state
    want = psi0.to_modes().profiles * np.exp(-1j * landau_energy(cfg, 0) * T / cfg.hbar)
    row_err = np.sqrt(np.sum(np.abs(final.to_modes().profiles - want) ** 2, axis=1) * grid.dy)
    assert np.max(row_err) < 1e-12
    # a row left out of the propagation would show in the norm drift too
    assert rec.norm_drift <= 1e-12


def test_oracle_rejects_multimode(cfg, grid):
    a = landau_eigenstate(cfg, grid, 0, 0)
    b = landau_eigenstate(cfg, grid, 0, 1)
    # equal rows, and a second row with 3.16e-13 of the weight, which
    # evolve_tdse propagates too (it is above OCCUPATION_THRESHOLD)
    for weight in (1.0, 10**-6.25):
        psi = Wavefunction(grid, a.amplitudes + weight * b.amplitudes, 0.0)
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


def test_evolution_record_contents(cfg, grid):
    path = PathPolyline(((0.0, 0.0), (0.0, 1.5)))
    proto = DriveProtocol.from_path(cfg, path, T=30.0)
    psi0 = landau_eigenstate(cfg, grid, 0, 0)
    rec = evolve_tdse(psi0, proto)
    assert rec.n_steps == sum(n * k for *_, n, k in _time_grid(proto))
    assert rec.norm_drift < 1e-12
    # the state rides the moving well to center + R_y(T), up to the
    # coherent ring left by the ramp, amplitude ~ drift speed / omega = 0.06
    assert rec.final_state.expectation_y() == pytest.approx(mode_center(cfg, 0) + 1.5, abs=0.12)


def test_truncation_guard_fires(cfg, grid):
    path = PathPolyline(((0.0, 0.0), (0.0, 10.5)))
    proto = DriveProtocol.from_path(cfg, path, T=60.0)
    psi0 = landau_eigenstate(cfg, grid, 0, 0)
    with pytest.raises(TruncationError):
        evolve_tdse(psi0, proto)
