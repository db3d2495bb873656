import numpy as np
import pytest

from landau_cylinder import (
    DriveProtocol,
    PathPolyline,
    TruncationError,
    apply_hamiltonian,
    displaced_gaussian,
    evolve_oracle,
    evolve_tdse,
    expectation_energy,
    factorized_evolution,
    ModeStack,
    PhysicsConfig,
    Wavefunction,
    inner_product,
    landau_eigenstate,
    landau_energy,
    mode_center,
    mode_well,
    run_ab_loop,
    wrap_angle,
)
from landau_cylinder.drive import MAX_DT_PER_CYCLOTRON


def closed_wiggle(T, dt=5e-4):
    return ((0.0, 0.0), (0.8, 0.6), (0.0, 0.0)), T, dt


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
    proto = DriveProtocol.hold(cfg, T=3.0, dt=0.002)
    psi0 = landau_eigenstate(cfg, grid, 1, 0)
    rec = evolve_tdse(psi0, proto)
    overlap = inner_product(psi0, rec.final_state)
    assert abs(overlap) == pytest.approx(1.0, abs=1e-12)
    expected = -landau_energy(cfg, 1) * 3.0 / cfg.hbar
    assert np.angle(overlap) == pytest.approx(np.angle(np.exp(1j * expected)), abs=1e-5)


@pytest.mark.parametrize("refine", [1, 10])
def test_hold_phase_exact_at_any_step(cfg, grid, refine):
    # a static well is propagated without splitting bias: every level keeps
    # exactly its E_n T / hbar phase at the step cap and below it (Strang
    # splitting misses by (n + 1/2) omega T (omega dt)^2 / 24)
    dt = MAX_DT_PER_CYCLOTRON / cfg.omega / refine
    T = 20.0
    proto = DriveProtocol.hold(cfg, T=T, dt=dt)
    assert proto.dt == pytest.approx(dt)
    for n in (0, 1, 2):
        for j in (-1, 0, 1):
            psi0 = landau_eigenstate(cfg, grid, n, j)
            overlap = inner_product(psi0, evolve_tdse(psi0, proto).final_state)
            phase = wrap_angle(np.angle(overlap) + landau_energy(cfg, n) * T / cfg.hbar)
            assert abs(phase) < 1e-10, (n, j, phase)


def test_ab_loop_phase_independent_of_dt(cfg, grid):
    cap = MAX_DT_PER_CYCLOTRON / cfg.omega
    gammas = [
        run_ab_loop(cfg, grid, phi=np.pi / 2, T=200.0, dt=dt).gamma_measured
        for dt in (cap, cap / 10)
    ]
    assert abs(wrap_angle(gammas[0] - gammas[1])) < 1e-6


def test_tdse_matches_oracle_adiabatic(cfg, grid):
    pts, T, dt = closed_wiggle(T=40.0, dt=1e-3)
    proto = DriveProtocol.from_path(cfg, PathPolyline(pts), T=T, dt=dt)
    psi0 = displaced_gaussian(cfg, grid, j=0, center=mode_center(cfg, 0) + 0.3)
    num = evolve_tdse(psi0, proto).final_state
    ora = evolve_oracle(psi0, proto).final_state
    overlap = inner_product(num, ora)
    assert abs(overlap) == pytest.approx(1.0, abs=1e-9)
    assert abs(np.angle(overlap)) < 1e-5


def test_tdse_matches_oracle_violent(cfg, grid):
    # drive period comparable to the cyclotron period: nothing adiabatic
    pts, T, dt = closed_wiggle(T=3.0)
    proto = DriveProtocol.from_path(cfg, PathPolyline(pts), T=T, dt=dt)
    psi0 = displaced_gaussian(cfg, grid, j=0, center=mode_center(cfg, 0) - 0.5, momentum=0.6, n=2)
    num = evolve_tdse(psi0, proto).final_state
    ora = evolve_oracle(psi0, proto).final_state
    overlap = inner_product(num, ora)
    assert abs(overlap) == pytest.approx(1.0, abs=1e-8)
    assert abs(np.angle(overlap)) < 1e-5


def test_default_dt_matches_oracle_on_fast_drive(cfg, grid):
    # a criterion-7-style drive (ramps of 0.1) needs no explicit dt
    pts, T, _ = closed_wiggle(T=4.0)
    proto = DriveProtocol.from_path(cfg, PathPolyline(pts), T=T)
    psi0 = displaced_gaussian(cfg, grid, j=1, center=mode_center(cfg, 1) + 0.5, momentum=-0.4, n=1)
    num = evolve_tdse(psi0, proto).final_state
    ora = evolve_oracle(psi0, proto).final_state
    overlap = inner_product(num, ora)
    assert abs(1.0 - abs(overlap)) < 1e-6
    assert abs(np.angle(overlap)) < 1e-6


def test_oracle_rejects_multimode(cfg, grid):
    a = landau_eigenstate(cfg, grid, 0, 0)
    b = landau_eigenstate(cfg, grid, 0, 1)
    psi = Wavefunction(grid, (a.amplitudes + b.amplitudes) / np.sqrt(2), 0.0)
    with pytest.raises(ValueError):
        evolve_oracle(psi, DriveProtocol.hold(cfg, T=1.0))


def test_oracle_rejects_non_eigen_profile(cfg, grid):
    prof = np.zeros((grid.Nx, grid.Ny), dtype=complex)
    y = grid.y
    # double-humped profile: no displaced level matches it
    prof[0] = np.exp(-((y - 1.2) ** 2) / 2) + np.exp(-((y + 1.2) ** 2) / 2)
    psi = Wavefunction.from_modes(ModeStack(grid, prof, 0.0)).normalized()
    with pytest.raises(ValueError):
        evolve_oracle(psi, DriveProtocol.hold(cfg, T=1.0))


# --- records and guards ------------------------------------------------------


def test_evolution_record_contents(cfg, grid):
    path = PathPolyline(((0.0, 0.0), (0.0, 1.5)))
    proto = DriveProtocol.from_path(cfg, path, T=30.0, dt=0.005)
    psi0 = landau_eigenstate(cfg, grid, 0, 0)
    rec = evolve_tdse(psi0, proto)
    assert rec.n_steps * rec.dt == pytest.approx(30.0, rel=1e-15)
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


# --- adiabatic factorization --------------------------------------------------


def test_factorization_phase_is_drift_action(cfg, grid):
    # the residual factor's phase equals the drift kinetic action
    # (m / 2 hbar) integral |Rdot|^2 dt, protocol-computable and
    # state-independent; at T = 100 the factorized product matches the
    # TDSE up to exactly that phase
    path = PathPolyline(((0.0, 0.0), (cfg.l, 0.0)))
    proto = DriveProtocol.from_path(cfg, path, T=100.0, dt=0.005)
    psi0 = landau_eigenstate(cfg, grid, 0, 0)
    report = factorized_evolution(psi0, proto)
    assert report.completeness > 1.0 - 1e-12
    assert report.fidelity > 1.0 - 1e-4
    assert report.phase_difference == pytest.approx(report.drift_action, abs=5e-3)
    assert report.discrepancy_norm == pytest.approx(
        abs(np.exp(1j * report.drift_action) - 1.0), abs=5e-3
    )


def test_factorization_discrepancy_shrinks_with_T(cfg, grid):
    path = PathPolyline(((0.0, 0.0), (cfg.l, 0.0)))
    psi0 = landau_eigenstate(cfg, grid, 0, 0)
    gaps = []
    for T in (50.0, 100.0):
        proto = DriveProtocol.from_path(cfg, path, T=T, dt=0.01)
        gaps.append(factorized_evolution(psi0, proto).discrepancy_norm)
    assert gaps[1] < gaps[0]


def test_factorization_completeness_guard(cfg, grid):
    # far-displaced packet needs many oscillator levels: n_max=1 cannot hold it
    psi0 = displaced_gaussian(cfg, grid, j=0, center=mode_center(cfg, 0) + 2.5)
    proto = DriveProtocol.hold(cfg, T=1.0)
    with pytest.raises(TruncationError):
        factorized_evolution(psi0, proto, n_max=1)
