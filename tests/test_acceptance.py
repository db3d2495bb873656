"""Acceptance gate: the package's headline claims at full scale.

Each test prints one [PASS]/[FAIL] line with the measured numbers, then
asserts.  Tolerances are the advertised ones, not tuned-down versions;
runs use the reference geometry throughout.
"""

from dataclasses import replace

import numpy as np
import pytest

from landau_cylinder import (
    CylinderGrid,
    Displacement,
    PathPolyline,
    PhysicsConfig,
    Wavefunction,
    apply_displacement,
    apply_hamiltonian,
    compose_phase,
    displaced_gaussian,
    evolve_oracle,
    evolve_tdse,
    inner_product,
    landau_eigenstate,
    landau_energy,
    mode_center,
    path_ordered_translation,
    run_ab_loop,
    run_fig1_comparison,
    run_general_loop,
    sequential_translation,
    translate_x,
    wrap_angle,
)
from landau_cylinder.drive import DriveProtocol
from landau_cylinder.experiments import adiabatic_study, flux_sweep, rectangle_loop_spec


def report(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def ref():
    cfg = PhysicsConfig.reference()
    return cfg, CylinderGrid.for_config(cfg)


def test_01_topological_operator_phase(ref, capsys):
    """translate_x(l) is the global phase e^{i q phi / hbar c}: exact,
    independent of B."""
    _, grid = ref
    rng = np.random.default_rng(7)
    worst = 0.0
    for B in (0.5, 1.0, 2.0):
        for phi in (0.0, np.pi / 2, np.pi, 2 * np.pi, 3.7):
            cfg = PhysicsConfig(hbar=1, q=1, m=1, c=1, B=B, phi0=phi, l=2 * np.pi)
            for _ in range(50 // 5):
                amps = rng.normal(size=(grid.Nx, grid.Ny)) + 1j * rng.normal(
                    size=(grid.Nx, grid.Ny)
                )
                psi = Wavefunction(grid, amps, 0.0).normalized()
                moved = translate_x(psi, cfg.l, cfg)
                expected = psi.amplitudes * np.exp(1j * cfg.flux_phase(phi))
                worst = max(worst, float(np.max(np.abs(moved.amplitudes - expected))))
    report(
        capsys,
        "criterion 1 (topological phase)",
        worst < 1e-12,
        f"worst deviation {worst:.2e} over 150 states x {{B}} x {{phi}} (tol 1e-12)",
    )


def test_02_bch_composition(ref, capsys):
    """M(R2) M(R1) = e^{-i q B (R1 x R2)/2 hbar c} M(R1+R2) operationally."""
    cfg, grid = ref
    rng = np.random.default_rng(11)
    worst_state, worst_phase = 0.0, 0.0
    for _ in range(100):
        r1 = Displacement(*rng.uniform(-1.5, 1.5, 2))
        r2 = Displacement(*rng.uniform(-1.5, 1.5, 2))
        n = int(rng.integers(0, 3))
        j = int(rng.integers(-1, 2))
        psi = landau_eigenstate(cfg, grid, n, j)
        seq = apply_displacement(
            apply_displacement(psi, r1, cfg, check_truncation=False), r2, cfg,
            check_truncation=False,
        )
        direct = apply_displacement(psi, r1 + r2, cfg, check_truncation=False)
        theta = compose_phase(r1, r2, cfg)
        dev = float(np.linalg.norm(seq.amplitudes - direct.amplitudes * np.exp(1j * theta)))
        dev *= np.sqrt(grid.dx * grid.dy)
        worst_state = max(worst_state, dev)
        measured = float(np.angle(inner_product(direct, seq)))
        worst_phase = max(worst_phase, abs(wrap_angle(measured - theta)))
    report(
        capsys,
        "criterion 2 (BCH composition)",
        worst_state < 1e-9 and worst_phase < 1e-10,
        f"100 triples: state dev {worst_state:.2e} (tol 1e-9), "
        f"phase dev {worst_phase:.2e} (tol 1e-10)",
    )


def test_03_ab_berry_phase(ref, capsys):
    """Adiabatic winding loop: gamma = q phi / hbar c within 1e-3 at T=200,
    for n in {0, 1} and phi in {pi/2, pi}."""
    cfg, grid = ref
    worst_err, worst_fid = 0.0, 1.0
    for n in (0, 1):
        for phi in (np.pi / 2, np.pi):
            res = run_ab_loop(cfg, grid, phi=phi, T=200.0, n=n, dt=0.005)
            err = abs(wrap_angle(res.gamma_measured - res.gamma_predicted))
            worst_err = max(worst_err, err)
            worst_fid = min(worst_fid, res.fidelity)
    report(
        capsys,
        "criterion 3 (AB Berry phase)",
        worst_err < 1e-3 and worst_fid > 0.999,
        f"worst error {worst_err:.2e} (tol 1e-3), worst fidelity {worst_fid:.7f} (min 0.999)",
    )


def test_04_general_loop_phase(ref, capsys):
    """Rectangle loop, |phi_B| = pi at phi = pi/2: gamma = q(phi - phi_B)/hbar c,
    cross-checked against the literal composition-phase product."""
    cfg, grid = ref
    cfg = replace(cfg, phi0=np.pi / 2)
    res = run_general_loop(cfg, grid, height=0.5, T=2000.0)
    err = abs(wrap_angle(res.gamma_measured - res.gamma_predicted))

    # independent oracle: apply the loop as a literal ordered product of
    # small magnetic translations and sum the pairwise composition phases
    spec = rectangle_loop_spec(cfg, 0.5, T=2000.0)
    psi0 = landau_eigenstate(cfg, grid, 0, 0)
    seq_state, phase_pred = sequential_translation(psi0, spec.path.refined(16), cfg)
    tele = path_ordered_translation(psi0, spec.path, cfg)
    product_dev = float(
        np.max(
            np.abs(
                seq_state.amplitudes
                - tele.state.amplitudes * np.exp(1j * tele.accumulated_phase)
            )
        )
    )
    gamma_oracle = wrap_angle(cfg.flux_phase(cfg.phi0) + phase_pred)
    oracle_gap = abs(wrap_angle(gamma_oracle - res.gamma_measured))

    expected = wrap_angle(cfg.flux_phase(cfg.phi0) - cfg.q * res.phi_B / (cfg.hbar * cfg.c))
    ok = (
        err < 1e-4
        and abs(res.phi_B - (-np.pi)) < 1e-12
        and abs(wrap_angle(res.gamma_predicted - expected)) < 1e-14
        and product_dev < 1e-9
        and oracle_gap < 1e-4
    )
    report(
        capsys,
        "criterion 4 (general loop)",
        ok,
        f"phi_B {res.phi_B:+.6f}, error {err:.2e} (tol 1e-4), "
        f"product oracle dev {product_dev:.2e}, oracle gap {oracle_gap:.2e} (tol 1e-4)",
    )


def test_05_flux_cancellation(ref, capsys):
    """Opposite excursions at phi = phi_B = pi/2: the phase follows
    q(phi - phi_B), not the total enclosed flux."""
    cfg, grid = ref
    pair = run_fig1_comparison(cfg, grid, phi_B=np.pi / 2, phi=np.pi / 2, T=2000.0)
    blue, green = pair.blue, pair.green
    blue_err = abs(blue.gamma_measured)
    green_err = abs(wrap_angle(green.gamma_measured - np.pi))
    flux_blue = abs(blue.enclosed_flux_total - np.pi)
    flux_green = abs(green.enclosed_flux_total)
    ok = blue_err < 1e-4 and green_err < 1e-4 and flux_blue < 1e-12 and flux_green < 1e-12
    report(
        capsys,
        "criterion 5 (flux cancellation)",
        ok,
        f"|gamma_blue| {blue_err:.2e}, |gamma_green - pi| {green_err:.2e} (tol 1e-4); "
        f"enclosed flux blue {blue.enclosed_flux_total:.6f} = phi + phi_B, "
        f"green {green.enclosed_flux_total:.2e} = 0",
    )


def test_06_flux_periodicity_and_linearity(ref, capsys):
    """Unwrapped gamma(phi) is linear with slope q/hbar c; wrapped gamma has
    period 2 pi in phi (reference units)."""
    cfg, grid = ref
    phis = np.linspace(0.0, 4 * np.pi, 17)
    sweep = flux_sweep(cfg, grid, phis, T=200.0, threads=4)
    slope_err = abs(sweep.slope - 1.0)
    gm = np.array([r.gamma_measured for r in sweep.rows])
    # grid step pi/4: phi + 2 pi is eight indices ahead
    period_dev = max(abs(wrap_angle(gm[i + 8] - gm[i])) for i in range(9))
    failures = [r.error for r in sweep.rows if r.error is not None]
    ok = slope_err < 1e-3 and period_dev < 2e-3 and not failures
    report(
        capsys,
        "criterion 6 (flux periodicity/linearity)",
        ok,
        f"slope error {slope_err:.2e} (tol 1e-3), periodicity dev {period_dev:.2e} "
        f"(tol 2e-3), failed rows {len(failures)}",
    )


def test_07_oracle_equivalence(ref, capsys):
    """Exact-oscillator split TDSE vs the exact driven-oscillator solution on 20
    random single-mode Gaussians and drives, adiabatic or not."""
    cfg, grid = ref
    rng = np.random.default_rng(20260819)
    worst_inf, worst_phase = 0.0, 0.0
    for _ in range(20):
        n = int(rng.integers(0, 3))
        j = int(rng.integers(-1, 2))
        d0 = float(rng.uniform(-0.8, 0.8))
        p0 = float(rng.uniform(-0.8, 0.8))
        psi0 = displaced_gaussian(
            cfg, grid, j=j, center=mode_center(cfg, j) + d0, momentum=p0, n=n
        )
        nv = int(rng.integers(2, 5))
        pts = [(0.0, 0.0)]
        for _ in range(nv):
            pts.append(
                (
                    pts[-1][0] + float(rng.uniform(-0.7, 0.7)),
                    pts[-1][1] + float(rng.uniform(-0.7, 0.7)),
                )
            )
        T = float(rng.uniform(3.0, 8.0))
        proto = DriveProtocol.from_path(cfg, PathPolyline(tuple(pts)), T=T, dt=5e-4)
        num = evolve_tdse(psi0, proto).final_state
        ora = evolve_oracle(psi0, proto).final_state
        overlap = inner_product(num, ora)
        worst_inf = max(worst_inf, abs(1.0 - abs(overlap)))
        worst_phase = max(worst_phase, abs(np.angle(overlap)))
    report(
        capsys,
        "criterion 7 (oracle equivalence)",
        worst_inf < 1e-6 and worst_phase < 1e-7,
        f"20 drives: worst infidelity {worst_inf:.2e} (tol 1e-6), worst phase gap "
        f"{worst_phase:.2e} (tol 1e-7)",
    )


def test_08_eigenstate_fidelity(ref, capsys):
    """Residuals, exact center spacing, spectral flow under one flux quantum."""
    cfg, grid = ref
    worst_resid = 0.0
    for n in range(4):
        for j in range(-4, 5):
            psi = landau_eigenstate(cfg, grid, n, j)
            hpsi = apply_hamiltonian(psi, cfg)
            resid = Wavefunction(
                grid, hpsi.amplitudes - landau_energy(cfg, n) * psi.amplitudes, 0.0
            ).norm()
            worst_resid = max(worst_resid, resid / psi.norm())

    # spacing -2 pi hbar c / (q B l): exactly one step down at the reference
    spacing_exact = all(
        mode_center(cfg, j + 1) - mode_center(cfg, j) == -cfg.translation_step
        for j in range(-4, 4)
    )

    c2 = replace(cfg, phi0=cfg.phi0 + cfg.flux_quantum)
    flow_dev = 0.0
    for n in (0, 2):
        a = landau_eigenstate(c2, grid, n, 0)
        b = landau_eigenstate(cfg, grid, n, -1).multiply_phase_linear_x(2 * np.pi / cfg.l)
        flow_dev = max(flow_dev, float(np.max(np.abs(a.amplitudes - b.amplitudes))))

    ok = worst_resid < 1e-8 and spacing_exact and flow_dev < 1e-10
    report(
        capsys,
        "criterion 8 (eigenstate fidelity)",
        ok,
        f"residual {worst_resid:.2e} (tol 1e-8, n<=3 |j|<=4), spacing exact: "
        f"{spacing_exact}, spectral-flow dev {flow_dev:.2e} (tol 1e-10)",
    )


def test_09_adiabatic_convergence(ref, capsys):
    """Corrected phase error decreases strictly with T; so does the
    factorization discrepancy; infidelity does not grow."""
    cfg, grid = ref
    study = adiabatic_study(cfg, grid, [25.0, 50.0, 100.0, 200.0], dt=0.005)
    ge = study.gamma_errors
    disc = study.discrepancies
    infid = study.infidelities
    ok = (
        bool(np.all(np.diff(ge) < 0))
        and bool(np.all(np.diff(disc) < 0))
        and bool(np.all(np.diff(infid) <= 1e-12))
    )
    detail = ", ".join(
        f"T={r.T:g}: err {r.gamma_error:.1e}/disc {r.discrepancy_norm:.1e}"
        for r in study.rows
    )
    report(capsys, "criterion 9 (adiabatic convergence)", ok, detail)


def test_10_integrator_quality(ref, capsys):
    """Second-order step halving; norm conserved over the longest run."""
    cfg, grid = ref
    psi0 = displaced_gaussian(cfg, grid, j=0, center=mode_center(cfg, 0) + 0.3)
    path = PathPolyline(((0.0, 0.0), (0.6, 0.4), (0.0, 0.0)))
    ref_state = evolve_tdse(
        psi0, DriveProtocol.from_path(cfg, path, T=4.0, dt=0.0005)
    ).final_state
    errs = []
    for dt in (0.008, 0.004):
        out = evolve_tdse(psi0, DriveProtocol.from_path(cfg, path, T=4.0, dt=dt)).final_state
        errs.append(float(np.linalg.norm(out.amplitudes - ref_state.amplitudes)))
    ratio = errs[0] / errs[1]

    long_run = run_ab_loop(cfg, grid, phi=np.pi / 2, T=2000.0)
    ok = 3.0 < ratio < 5.0 and long_run.norm_drift < 1e-10
    report(
        capsys,
        "criterion 10 (integrator quality)",
        ok,
        f"halving ratio {ratio:.2f} (want [3, 5]), norm drift over T=2000 "
        f"run {long_run.norm_drift:.2e} (tol 1e-10)",
    )
