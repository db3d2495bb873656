"""The self-check table shared by `landau-cylinder verify` and the acceptance gate.

Each row of CHECKS names one check function, the full-scale inputs that
tests/test_acceptance.py runs, and the smaller quick inputs that `verify`
runs.  A check is called as fn(cfg, grid, rng, **inputs) on the reference
setup and returns (passed, detail).  Every tolerance is written once,
inside the function, so both runs judge by the same numbers; quick inputs
only use fewer samples or shorter drives.  A row without quick inputs
runs its full inputs in `verify` too.  Everything is deterministic given
the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .core import CylinderGrid, PhysicsConfig, Wavefunction, inner_product, wrap_angle
from .drive import DriveProtocol, drift_displacement
from .eigenstates import displaced_gaussian, landau_eigenstate, landau_energy, mode_center
from .experiments import (
    ab_loop_spec,
    adiabatic_study,
    fig1_loop_spec,
    flux_sweep,
    rectangle_loop_spec,
    run_fig1_comparison,
    run_loop,
)
from .magtrans import (
    Displacement,
    PathPolyline,
    apply_displacement,
    compose_phase,
    path_ordered_translation,
    sequential_translation,
    translate_x,
)
from .propagator import apply_hamiltonian, evolve_oracle, evolve_tdse, expectation_energy

__all__ = ["Check", "CHECKS", "run_all_checks"]


def _random_state(cfg, grid, rng, n_modes=3):
    """Random low-lying superposition, well inside the window."""
    psi = None
    for _ in range(n_modes):
        n = int(rng.integers(0, 3))
        j = int(rng.integers(-2, 3))
        c = complex(rng.normal(), rng.normal())
        term = landau_eigenstate(cfg, grid, n, j) * c
        psi = term if psi is None else Wavefunction(
            grid, psi.amplitudes + term.amplitudes, psi.mode_offset
        )
    return psi.normalized()


# --- the ten acceptance criteria ---------------------------------------------


def check_topological_operator_phase(cfg, grid, rng, B_values, phi_values, states):
    """translate_x(l) is the global phase e^{i q phi / hbar c}: exact,
    independent of B."""
    worst = 0.0
    for B in B_values:
        for phi in phi_values:
            c = replace(cfg, B=B, phi0=phi)
            for _ in range(states):
                amps = rng.normal(size=(grid.Nx, grid.Ny)) + 1j * rng.normal(
                    size=(grid.Nx, grid.Ny)
                )
                psi = Wavefunction(grid, amps, 0.0).normalized()
                moved = translate_x(psi, c.l, c)
                expected = psi.amplitudes * np.exp(1j * c.flux_phase(phi))
                worst = max(worst, float(np.max(np.abs(moved.amplitudes - expected))))
    count = len(B_values) * len(phi_values) * states
    return (
        worst < 1e-12,
        f"worst deviation {worst:.2e} over {count} states x {{B}} x {{phi}} (tol 1e-12)",
    )


def check_bch_composition(cfg, grid, rng, triples):
    """M(R2) M(R1) = e^{-i q B (R1 x R2)/2 hbar c} M(R1+R2) operationally."""
    worst_state, worst_amp, worst_phase = 0.0, 0.0, 0.0
    for _ in range(triples):
        r1 = Displacement(*rng.uniform(-1.5, 1.5, 2))
        r2 = Displacement(*rng.uniform(-1.5, 1.5, 2))
        n = int(rng.integers(0, 3))
        j = int(rng.integers(-1, 2))
        psi = landau_eigenstate(cfg, grid, n, j)
        seq = apply_displacement(apply_displacement(psi, r1, cfg), r2, cfg)
        direct = apply_displacement(psi, r1 + r2, cfg)
        theta = compose_phase(r1, r2, cfg)
        diff = seq.amplitudes - direct.amplitudes * np.exp(1j * theta)
        worst_state = max(worst_state, float(np.linalg.norm(diff)) * np.sqrt(grid.dx * grid.dy))
        worst_amp = max(worst_amp, float(np.max(np.abs(diff))))
        measured = float(np.angle(inner_product(direct, seq)))
        worst_phase = max(worst_phase, abs(wrap_angle(measured - theta)))
    return (
        worst_state < 1e-12 and worst_amp < 1e-12 and worst_phase < 1e-12,
        f"{triples} triples: state dev {worst_state:.2e} (tol 1e-12), "
        f"amplitude dev {worst_amp:.2e} (tol 1e-12), phase dev {worst_phase:.2e} (tol 1e-12)",
    )


def check_ab_berry_phase(cfg, grid, rng, levels, phis, T):
    """Adiabatic winding loop: gamma = q phi / hbar c within 1e-3."""
    worst_err, worst_fid = 0.0, 1.0
    for n in levels:
        spec = replace(ab_loop_spec(cfg, T), n=n)
        for phi in phis:
            res = run_loop(replace(cfg, phi0=phi), grid, spec)
            err = abs(wrap_angle(res.gamma_measured - res.gamma_predicted))
            worst_err = max(worst_err, err)
            worst_fid = min(worst_fid, res.fidelity)
    return (
        worst_err < 1e-3 and worst_fid > 0.999,
        f"worst error {worst_err:.2e} (tol 1e-3), worst fidelity {worst_fid:.7f} (min 0.999)",
    )


def check_general_loop_phase(cfg, grid, rng, height, T):
    """Rectangle loop, |phi_B| = pi at phi = pi/2: gamma = q(phi - phi_B)/hbar c,
    cross-checked against the literal composition-phase product."""
    cfg = replace(cfg, phi0=np.pi / 2)
    spec = rectangle_loop_spec(cfg, height, T=T)
    res = run_loop(cfg, grid, spec)
    err = abs(wrap_angle(res.gamma_measured - res.gamma_predicted))

    # independent oracle: apply the loop as a literal ordered product of
    # small magnetic translations and sum the pairwise composition phases
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
    return (
        ok,
        f"phi_B {res.phi_B:+.6f}, error {err:.2e} (tol 1e-4), "
        f"product oracle dev {product_dev:.2e}, oracle gap {oracle_gap:.2e} (tol 1e-4)",
    )


def check_flux_cancellation(cfg, grid, rng, T):
    """Opposite excursions at phi = phi_B = pi/2: the phase follows
    q(phi - phi_B), not the total enclosed flux."""
    blue, green = run_fig1_comparison(replace(cfg, phi0=np.pi / 2), grid, phi_B=np.pi / 2, T=T)
    blue_err = abs(blue.gamma_measured)
    green_err = abs(wrap_angle(green.gamma_measured - np.pi))
    flux_blue = abs(blue.enclosed_flux_total - np.pi)
    flux_green = abs(green.enclosed_flux_total)
    ok = blue_err < 1e-4 and green_err < 1e-4 and flux_blue < 1e-12 and flux_green < 1e-12
    return (
        ok,
        f"|gamma_blue| {blue_err:.2e}, |gamma_green - pi| {green_err:.2e} (tol 1e-4); "
        f"enclosed flux blue {blue.enclosed_flux_total:.6f} = phi + phi_B, "
        f"green {green.enclosed_flux_total:.2e} = 0",
    )


def check_flux_periodicity_and_linearity(cfg, grid, rng, T):
    """Unwrapped gamma(phi) is linear with slope q/hbar c; wrapped gamma has
    period 2 pi in phi (reference units)."""
    phis = np.linspace(0.0, 4 * np.pi, 17)
    sweep = flux_sweep(cfg, grid, ab_loop_spec(cfg, T=T), phis)
    slope_err = abs(sweep.slope - 1.0)
    gm = np.array([r.gamma_measured for r in sweep.rows])
    # grid step pi/4: phi + 2 pi is eight indices ahead
    period_dev = max(abs(wrap_angle(gm[i + 8] - gm[i])) for i in range(9))
    failures = [r.error for r in sweep.rows if r.error is not None]
    ok = slope_err < 1e-12 and period_dev < 1.5e-12 and not failures
    return (
        ok,
        f"slope error {slope_err:.2e} (tol 1e-12), periodicity dev {period_dev:.2e} "
        f"(tol 1.5e-12), failed rows {len(failures)}",
    )


def _random_drive(rng):
    """(n, j, center offset, momentum, path vertices, T) of one random drive."""
    n = int(rng.integers(0, 3))
    j = int(rng.integers(-1, 2))
    d0 = float(rng.uniform(-0.8, 0.8))
    p0 = float(rng.uniform(-0.8, 0.8))
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
    return n, j, d0, p0, tuple(pts), T


def check_oracle_equivalence(cfg, grid, rng, drives=(), random_drives=0):
    """Exact-step TDSE vs the exact driven-oscillator solution on
    single-mode Gaussians and drives, adiabatic or not: the given drives
    plus `random_drives` drawn from rng."""
    drives = list(drives) + [_random_drive(rng) for _ in range(random_drives)]
    worst_inf, worst_phase = 0.0, 0.0
    for n, j, d0, p0, vertices, T in drives:
        psi0 = displaced_gaussian(
            cfg, grid, j=j, center=mode_center(cfg, j) + d0, momentum=p0, n=n
        )
        proto = DriveProtocol.from_path(cfg, PathPolyline(vertices), T=T)
        num = evolve_tdse(psi0, proto).final_state
        ora = evolve_oracle(psi0, proto).final_state
        overlap = inner_product(num, ora)
        worst_inf = max(worst_inf, abs(1.0 - abs(overlap)))
        worst_phase = max(worst_phase, abs(np.angle(overlap)))
    return (
        worst_inf < 3e-12 and worst_phase < 1e-11,
        f"{len(drives)} drives: worst infidelity {worst_inf:.2e} (tol 3e-12), worst phase gap "
        f"{worst_phase:.2e} (tol 1e-11)",
    )


def check_eigenstate_fidelity(cfg, grid, rng, n_max, j_max, flow_levels):
    """Residuals, exact center spacing, spectral flow under one flux quantum."""
    worst_resid = 0.0
    for n in range(n_max + 1):
        for j in range(-j_max, j_max + 1):
            psi = landau_eigenstate(cfg, grid, n, j)
            hpsi = apply_hamiltonian(psi, cfg)
            resid = Wavefunction(
                grid, hpsi.amplitudes - landau_energy(cfg, n) * psi.amplitudes, 0.0
            ).norm()
            worst_resid = max(worst_resid, resid / psi.norm())

    # spacing -2 pi hbar c / (q B l): exactly one step down at the reference
    spacing_exact = all(
        mode_center(cfg, j + 1) - mode_center(cfg, j) == -cfg.translation_step
        for j in range(-j_max, j_max)
    )

    # one flux quantum maps (n, j) onto the old (n, j - 1), boosted by one mode
    c2 = replace(cfg, phi0=cfg.phi0 + cfg.flux_quantum)
    flow_dev = 0.0
    for n in flow_levels:
        a = landau_eigenstate(c2, grid, n, 0)
        b = landau_eigenstate(cfg, grid, n, -1).multiply_phase_linear_x(2 * np.pi / cfg.l)
        flow_dev = max(flow_dev, float(np.max(np.abs(a.amplitudes - b.amplitudes))))
    center_dev = abs(mode_center(c2, 0) - mode_center(cfg, -1))

    ok = worst_resid < 1e-8 and spacing_exact and flow_dev < 1e-10 and center_dev < 1e-12
    return (
        ok,
        f"residual {worst_resid:.2e} (tol 1e-8, n<={n_max} |j|<={j_max}), spacing exact: "
        f"{spacing_exact}, spectral-flow dev {flow_dev:.2e} (tol 1e-10), "
        f"center dev {center_dev:.2e} (tol 1e-12)",
    )


def check_adiabatic_convergence(cfg, grid, rng, T_values):
    """Corrected phase error decreases strictly with T; so does the
    factorization discrepancy; infidelity does not grow."""
    study = adiabatic_study(cfg, grid, ab_loop_spec(cfg, T_values[0]), T_values)
    ge = np.array([r.gamma_error for r in study])
    disc = np.array([r.discrepancy_norm for r in study])
    infid = np.array([r.infidelity for r in study])
    ok = (
        bool(np.all(np.diff(ge) < 0))
        and bool(np.all(np.diff(disc) < 0))
        and bool(np.all(np.diff(infid) <= 1e-12))
    )
    detail = ", ".join(
        f"T={r.T:g}: err {r.gamma_error:.1e}/disc {r.discrepancy_norm:.1e}"
        for r in study
    )
    return ok, detail


def check_integrator_quality(cfg, grid, rng, norm_T):
    """Every step is exact, so an explicit dt moves the state only by
    rounding; norm conserved over a winding loop of duration norm_T."""
    psi0 = displaced_gaussian(cfg, grid, j=0, center=mode_center(cfg, 0) + 0.3)
    path = PathPolyline(((0.0, 0.0), (0.6, 0.4), (0.0, 0.0)))
    ref = evolve_tdse(psi0, DriveProtocol.from_path(cfg, path, T=4.0)).final_state
    worst_dev = 0.0
    for dt in (0.008, 0.004, 0.0005):
        out = evolve_tdse(psi0, DriveProtocol.from_path(cfg, path, T=4.0, dt=dt)).final_state
        dev = Wavefunction(grid, out.amplitudes - ref.amplitudes, 0.0).norm()
        worst_dev = max(worst_dev, dev)

    long_run = run_loop(replace(cfg, phi0=np.pi / 2), grid, ab_loop_spec(cfg, T=norm_T))
    ok = worst_dev < 5e-11 and long_run.norm_drift < 1e-11
    return (
        ok,
        f"dt 0.008/0.004/0.0005 vs default step: worst state dev {worst_dev:.2e} "
        f"(tol 5e-11), norm drift over T={norm_T:g} run {long_run.norm_drift:.2e} (tol 1e-11)",
    )


# --- further consistency checks -----------------------------------------------


def check_parseval(cfg, grid, rng):
    psi = _random_state(cfg, grid, rng)
    stack = psi.to_modes()
    total = float(np.sum(stack.mode_norms_sq()))
    err = abs(total - psi.norm_sq())
    return err < 1e-12, f"mode-sum vs grid norm mismatch {err:.2e}"


def check_energy_invariance(cfg, grid, rng):
    """Quantized translations commute with the static Hamiltonian."""
    psi = _random_state(cfg, grid, rng)
    step = cfg.translation_step
    moved = apply_displacement(psi, Displacement(0.0, -2.0 * step), cfg)
    err = abs(expectation_energy(moved, cfg) - expectation_energy(psi, cfg))
    return err < 1e-9, f"energy shift under quantized y-translation {err:.2e}"


def check_swept_area(cfg, grid, rng):
    t = np.linspace(0.0, 2 * np.pi, 1025)
    circle = PathPolyline(tuple(zip(np.cos(t) - 1.0, np.sin(t))))
    err = abs(circle.swept_area() - np.pi)
    return err < 1e-4, f"unit-circle shoelace area off by {err:.2e}"


def check_drift_quadrature(cfg, grid, rng):
    """Closed-form drive displacement vs direct quadrature of the fields."""
    path = PathPolyline(((0.0, 0.0), (1.0, 0.5), (0.0, 0.0)))
    proto = DriveProtocol.from_path(cfg, path, T=8.0)
    worst = 0.0
    for t in (1.7, 4.0, 7.3):
        rx, ry = proto.displacement(t)
        b = drift_displacement(proto, t)
        worst = max(worst, abs(float(rx) - b.rx), abs(float(ry) - b.ry))
    return worst < 1e-9, f"displacement mismatch {worst:.2e}"


def check_path_phase_bookkeeping(cfg, grid, rng):
    """Path-ordered product collapses to net translation x area phase."""
    psi = _random_state(cfg, grid, rng)
    path = PathPolyline(((0.0, 0.0), (0.7, 0.0), (0.7, 0.5), (0.0, 0.5), (0.0, 0.0)))
    out = path_ordered_translation(psi, path, cfg)
    # contractible loop: state must return to itself up to the area phase
    total = out.state * np.exp(1j * out.accumulated_phase)
    overlap = inner_product(psi, total)
    err = abs(overlap / psi.norm_sq() - np.exp(-1j * cfg.q * cfg.B * 0.35 / (cfg.hbar * cfg.c)))
    err2 = abs(out.accumulated_phase - (-cfg.q * cfg.B * 0.35 / (cfg.hbar * cfg.c)))
    return err < 1e-9 and err2 < 1e-12, f"loop phase dev {err:.2e}, area phase dev {err2:.2e}"


# --- the table ------------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    """One row: a check function with its full and quick inputs.

    `seed` seeds the full-scale run (`verify` passes its own seed);
    `criterion` is the (number, title) of an acceptance criterion, if any.
    """

    name: str
    fn: Callable[..., tuple[bool, str]]
    full: dict
    quick: Optional[dict] = None
    seed: int = 0
    criterion: Optional[tuple[int, str]] = None

    @property
    def label(self) -> str:
        if self.criterion is None:
            return self.name
        number, title = self.criterion
        return f"criterion {number} ({title})"

    def run(self, inputs: dict, seed: int) -> tuple[bool, str]:
        cfg = PhysicsConfig.reference()
        grid = CylinderGrid.for_config(cfg)
        ok, detail = self.fn(cfg, grid, np.random.default_rng(seed), **inputs)
        return bool(ok), detail


_ORACLE_DRIVE = (0, 0, 0.4, 0.0, ((0.0, 0.0), (0.8, 0.6), (0.0, 0.0)), 6.0)
# the loops of criteria 4 and 5 at T = 500, from the (0, 0) eigenstate: long
# enough that evolve_tdse takes the loop experiments' longest step,
# omega h = MAX_BLOCK_ANGLE, where a short drive's steps stay below T / 256
_LOOP_DRIVES = tuple(
    (0, 0, 0.0, 0.0, spec.path.vertices, spec.T)
    for spec in (
        rectangle_loop_spec(PhysicsConfig.reference(), 0.5, T=500.0),
        fig1_loop_spec(PhysicsConfig.reference(), "blue", np.pi / 2, T=500.0),
    )
)

CHECKS = (
    Check(
        "topological_operator_phase", check_topological_operator_phase,
        full=dict(B_values=(0.5, 1.0, 2.0), phi_values=(0.0, np.pi / 2, np.pi, 2 * np.pi, 3.7),
                  states=10),
        quick=dict(B_values=(1.0,), phi_values=(0.0, np.pi / 2, 3.7), states=1),
        seed=7, criterion=(1, "topological phase"),
    ),
    Check(
        "bch_composition", check_bch_composition,
        full=dict(triples=100), quick=dict(triples=5),
        seed=11, criterion=(2, "BCH composition"),
    ),
    Check(
        "ab_berry_phase", check_ab_berry_phase,
        full=dict(levels=(0, 1), phis=(np.pi / 2, np.pi), T=200.0),
        quick=dict(levels=(0,), phis=(np.pi / 2,), T=200.0),
        criterion=(3, "AB Berry phase"),
    ),
    Check(
        "general_loop_phase", check_general_loop_phase,
        full=dict(height=0.5, T=2000.0),
        criterion=(4, "general loop"),
    ),
    Check(
        "flux_cancellation", check_flux_cancellation,
        full=dict(T=2000.0),
        criterion=(5, "flux cancellation"),
    ),
    Check(
        "flux_periodicity_and_linearity", check_flux_periodicity_and_linearity,
        full=dict(T=200.0),
        criterion=(6, "flux periodicity/linearity"),
    ),
    Check(
        "oracle_equivalence", check_oracle_equivalence,
        full=dict(drives=_LOOP_DRIVES, random_drives=20),
        quick=dict(drives=(_ORACLE_DRIVE,)),
        seed=20260819, criterion=(7, "oracle equivalence"),
    ),
    Check(
        "eigenstate_fidelity", check_eigenstate_fidelity,
        full=dict(n_max=3, j_max=4, flow_levels=(0, 2)),
        quick=dict(n_max=2, j_max=1, flow_levels=(0,)),
        criterion=(8, "eigenstate fidelity"),
    ),
    Check(
        "adiabatic_convergence", check_adiabatic_convergence,
        full=dict(T_values=(25.0, 50.0, 100.0, 200.0)),
        criterion=(9, "adiabatic convergence"),
    ),
    Check(
        "integrator_quality", check_integrator_quality,
        full=dict(norm_T=2000.0), quick=dict(norm_T=200.0),
        criterion=(10, "integrator quality"),
    ),
    Check("parseval", check_parseval, full={}, quick={}),
    Check("energy_invariance", check_energy_invariance, full={}, quick={}),
    Check("swept_area", check_swept_area, full={}, quick={}),
    Check("drift_quadrature", check_drift_quadrature, full={}, quick={}),
    Check("path_phase_bookkeeping", check_path_phase_bookkeeping, full={}, quick={}),
)


def run_all_checks(seed: int = 0):
    """Run every row, on its quick inputs where it has them and on its full
    inputs otherwise; returns (name, ok, detail) rows.

    A check that raises is reported as failed, so one fault does not hide
    the rest of the table.
    """
    results = []
    for check in CHECKS:
        try:
            ok, detail = check.run(check.full if check.quick is None else check.quick, seed)
        except Exception as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append((check.name, ok, detail))
    return results
