"""The self-check table shared by `landau-cylinder verify` and the acceptance gate.

Each row of CHECKS names one check function, the full-scale inputs that
tests/test_acceptance.py runs, and the smaller quick inputs that `verify`
runs.  A check is called as fn(cfg, grid, rng, **inputs) on the reference
setup and returns (passed, detail) from the one judge, `_verdict`.  Each
gate is (label, values, tol), its tolerance written once, inside the
function, so both runs judge by the same numbers.  A gate passes iff the
largest of its values is below tol, so a NaN fails it, and the detail
prints every gate with its tolerance.  Quick inputs only use fewer
samples or shorter drives; a row without quick inputs runs its full
inputs in `verify` too.  Everything is deterministic given the seed.
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


def _random_state(cfg, grid, rng):
    """Random superposition of three low-lying eigenstates, well inside the window."""
    psi = None
    for _ in range(3):
        n = int(rng.integers(0, 3))
        j = int(rng.integers(-2, 3))
        c = complex(rng.normal(), rng.normal())
        term = landau_eigenstate(cfg, grid, n, j) * c
        psi = term if psi is None else psi + term
    return psi.normalized()


def _verdict(note, *gates):
    """(passed, detail) of gates (label, values, tol): a gate passes iff
    np.max(values) < tol, so a NaN fails it and an empty one raises.  The
    detail prints every gate as `label value (tol t)`, after the note."""
    worst = [float(np.max(values)) for _, values, _ in gates]
    ok = all(w < tol for w, (_, _, tol) in zip(worst, gates))
    detail = ", ".join(f"{label} {w:.3g} (tol {tol:g})" for w, (label, _, tol) in zip(worst, gates))
    return ok, f"{note}; {detail}" if note else detail


# --- the ten acceptance criteria ---------------------------------------------


def check_topological_operator_phase(cfg, grid, rng, B_values, phi_values, states):
    """translate_x(l) is the global phase e^{i q phi / hbar c}: exact,
    independent of B."""
    devs = []
    for B in B_values:
        for phi in phi_values:
            c = replace(cfg, B=B, phi0=phi)
            for _ in range(states):
                real, imag = rng.normal(size=(2, grid.Nx, grid.Ny))
                psi = Wavefunction(grid, real + 1j * imag, 0.0).normalized()
                moved = translate_x(psi, c.l, c)
                expected = psi.amplitudes * np.exp(1j * c.flux_phase(phi))
                devs.append(float(np.max(np.abs(moved.amplitudes - expected))))
    return _verdict(f"{len(devs)} states x {{B}} x {{phi}}", ("worst deviation", devs, 1e-12))


def check_bch_composition(cfg, grid, rng, triples):
    """M(R2) M(R1) = e^{-i q B (R1 x R2)/2 hbar c} M(R1+R2) operationally."""
    state_devs, amp_devs, phase_devs = [], [], []
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
        state_devs.append(float(np.linalg.norm(diff)) * np.sqrt(grid.dx * grid.dy))
        amp_devs.append(float(np.max(np.abs(diff))))
        measured = float(np.angle(inner_product(direct, seq)))
        phase_devs.append(abs(wrap_angle(measured - theta)))
    return _verdict(
        f"{triples} triples",
        ("state dev", state_devs, 1e-12),
        ("amplitude dev", amp_devs, 1e-12),
        ("phase dev", phase_devs, 1e-12),
    )


def check_ab_berry_phase(cfg, grid, rng, levels, phis, T):
    """Adiabatic winding loop: gamma = q phi / hbar c, at high fidelity."""
    errs, infids = [], []
    for n in levels:
        spec = replace(ab_loop_spec(cfg, T), n=n)
        for phi in phis:
            res = run_loop(replace(cfg, phi0=phi), grid, spec)
            errs.append(abs(wrap_angle(res.gamma_measured - res.gamma_predicted)))
            infids.append(1.0 - res.fidelity)
    return _verdict("", ("worst error", errs, 1e-3), ("worst infidelity", infids, 1e-3))


def check_general_loop_phase(cfg, grid, rng, height, T):
    """Rectangle loop, |phi_B| = pi at phi = pi/2: gamma = q(phi - phi_B)/hbar c,
    cross-checked against the literal composition-phase product."""
    cfg = replace(cfg, phi0=np.pi / 2)
    spec = rectangle_loop_spec(cfg, height, T=T)
    res = run_loop(cfg, grid, spec)

    # independent oracle: apply the loop as a literal ordered product of
    # small magnetic translations and sum the pairwise composition phases
    psi0 = landau_eigenstate(cfg, grid, 0, 0)
    seq_state, phase_pred = sequential_translation(psi0, spec.path.refined(16), cfg)
    tele = path_ordered_translation(psi0, spec.path, cfg)
    product = tele.state.amplitudes * np.exp(1j * tele.accumulated_phase)
    gamma_oracle = wrap_angle(cfg.flux_phase(cfg.phi0) + phase_pred)

    expected = wrap_angle(cfg.flux_phase(cfg.phi0) - cfg.q * res.phi_B / (cfg.hbar * cfg.c))
    return _verdict(
        f"phi_B {res.phi_B:+.6f}",
        ("error", abs(wrap_angle(res.gamma_measured - res.gamma_predicted)), 1e-4),
        ("phi_B dev from -pi", abs(res.phi_B + np.pi), 1e-12),
        ("predicted phase dev", abs(wrap_angle(res.gamma_predicted - expected)), 1e-14),
        ("product oracle dev", np.abs(seq_state.amplitudes - product), 1e-13),
        ("oracle gap", abs(wrap_angle(gamma_oracle - res.gamma_measured)), 1e-4),
    )


def check_flux_cancellation(cfg, grid, rng, T):
    """Opposite excursions at phi = phi_B = pi/2: the phase follows
    q(phi - phi_B), not the total enclosed flux."""
    blue, green = run_fig1_comparison(replace(cfg, phi0=np.pi / 2), grid, phi_B=np.pi / 2, T=T)
    return _verdict(
        "",
        ("|gamma_blue|", abs(blue.gamma_measured), 1e-4),
        ("|gamma_green - pi|", abs(wrap_angle(green.gamma_measured - np.pi)), 1e-4),
        ("|flux_blue - (phi + phi_B)|", abs(blue.enclosed_flux_total - np.pi), 1e-12),
        ("|flux_green|", abs(green.enclosed_flux_total), 1e-12),
    )


def check_flux_periodicity_and_linearity(cfg, grid, rng, T):
    """Unwrapped gamma(phi) is linear with slope q/hbar c; wrapped gamma has
    period 2 pi in phi (reference units)."""
    phis = np.linspace(0.0, 4 * np.pi, 17)
    sweep = flux_sweep(cfg, grid, ab_loop_spec(cfg, T=T), phis)
    gm = [r.gamma_measured for r in sweep.rows]
    return _verdict(
        "",
        ("slope error", abs(sweep.slope - 1.0), 1e-12),
        # grid step pi/4: phi + 2 pi is eight indices ahead
        ("periodicity dev", [abs(wrap_angle(gm[i + 8] - gm[i])) for i in range(9)], 1.5e-12),
        ("failed rows", sum(r.error is not None for r in sweep.rows), 1),
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
        x, y = pts[-1]
        pts.append((x + float(rng.uniform(-0.7, 0.7)), y + float(rng.uniform(-0.7, 0.7))))
    T = float(rng.uniform(3.0, 8.0))
    return n, j, d0, p0, tuple(pts), T


def check_oracle_equivalence(cfg, grid, rng, drives=(), random_drives=0):
    """Whole-drive TDSE vs the exact driven-oscillator solution on
    single-mode Gaussians and drives, adiabatic or not: the given drives
    plus `random_drives` drawn from rng.  The state gap scores an error to
    first order, where infidelity and phase gap see it only to second.
    Each drive's gap is also gated at its initial row's seam amplitude,
    max |chi| at the window's two ends for the normalised row, plus 1e-12:
    a row near the edge is as exact as the window that holds it."""
    drives = list(drives) + [_random_drive(rng) for _ in range(random_drives)]
    gaps, over_seam, infids, phase_gaps = [], [], [], []
    for n, j, d0, p0, vertices, T in drives:
        psi0 = displaced_gaussian(cfg, grid, j=j, center=mode_center(cfg, j) + d0, momentum=p0, n=n)
        proto = DriveProtocol.from_path(cfg, PathPolyline(vertices), T=T)
        num = evolve_tdse(psi0, proto).final_state
        ora = evolve_oracle(psi0, proto).final_state
        chi = psi0.to_modes().profiles[grid.mode_row(j)]  # psi0's one row
        gaps.append((num - ora).norm())
        over_seam.append(gaps[-1] - max(abs(chi[0]), abs(chi[-1])) / psi0.norm())
        overlap = inner_product(num, ora)
        infids.append(abs(1.0 - abs(overlap)))
        phase_gaps.append(abs(np.angle(overlap)))
    return _verdict(
        f"{len(drives)} drives",
        ("worst state gap", gaps, 2e-9),
        ("worst state gap - seam amplitude", over_seam, 1e-12),
        ("worst infidelity", infids, 3e-12),
        ("worst phase gap", phase_gaps, 1e-11),
    )


def check_eigenstate_fidelity(cfg, grid, rng, n_max, j_max, flow_levels):
    """Residuals, exact center spacing, spectral flow under one flux quantum."""
    resids = []
    for n in range(n_max + 1):
        for j in range(-j_max, j_max + 1):
            psi = landau_eigenstate(cfg, grid, n, j)
            resid = apply_hamiltonian(psi, cfg) - psi * landau_energy(cfg, n)
            resids.append(resid.norm() / psi.norm())

    # spacing -2 pi hbar c / (q B l): exactly one step down at the reference
    spacings = np.diff([mode_center(cfg, j) for j in range(-j_max, j_max + 1)])

    # one flux quantum maps (n, j) onto the old (n, j - 1), boosted by one mode
    c2 = replace(cfg, phi0=cfg.phi0 + cfg.flux_quantum)
    flow_devs = []
    for n in flow_levels:
        a = landau_eigenstate(c2, grid, n, 0)
        b = landau_eigenstate(cfg, grid, n, -1).multiply_phase_linear_x(2 * np.pi / cfg.l)
        flow_devs.append(float(np.max(np.abs(a.amplitudes - b.amplitudes))))

    return _verdict(
        f"n<={n_max} |j|<={j_max}",
        ("residual", resids, 1e-8),
        ("inexact spacings", np.sum(spacings != -cfg.translation_step), 1),
        ("spectral-flow dev", flow_devs, 1e-10),
        ("center dev", abs(mode_center(c2, 0) - mode_center(cfg, -1)), 1e-12),
    )


def check_adiabatic_convergence(cfg, grid, rng, T_values):
    """Each rung of T_values (doublings of T) cuts the corrected phase
    error and the factorization discrepancy by a set ratio from the rung
    before, where they fall to about 0.1-0.2 and 0.5 (a bare decrease would
    pass a value that is flat up to rounding); infidelity does not grow."""
    study = adiabatic_study(cfg, grid, ab_loop_spec(cfg, T_values[0]), T_values)
    ge, disc, infid = np.array([(r.gamma_error, r.discrepancy_norm, r.infidelity) for r in study]).T
    return _verdict(
        ", ".join(
            f"T={r.T:g}: err {r.gamma_error:.1e}/disc {r.discrepancy_norm:.1e}" for r in study
        ),
        ("worst ratio err", ge[1:] / ge[:-1], 0.75),
        ("worst ratio disc", disc[1:] / disc[:-1], 0.75),
        ("infidelity growth", np.diff(infid), 1e-12),
    )


def check_integrator_quality(cfg, grid, rng, norm_T):
    """The quadrature is exact to rounding on every piece, so an explicit dt
    (finer pieces) moves the state only by rounding; norm conserved over a
    winding loop of duration norm_T."""
    psi0 = displaced_gaussian(cfg, grid, j=0, center=mode_center(cfg, 0) + 0.3)
    path = PathPolyline(((0.0, 0.0), (0.6, 0.4), (0.0, 0.0)))
    ref = evolve_tdse(psi0, DriveProtocol.from_path(cfg, path, T=4.0)).final_state
    devs = []
    for dt in (0.008, 0.004, 0.0005):
        out = evolve_tdse(psi0, DriveProtocol.from_path(cfg, path, T=4.0, dt=dt)).final_state
        devs.append((out - ref).norm())

    long_run = run_loop(replace(cfg, phi0=np.pi / 2), grid, ab_loop_spec(cfg, T=norm_T))
    return _verdict(
        "dt 0.008/0.004/0.0005 vs default pieces",
        ("worst state dev", devs, 1e-13),
        (f"norm drift over T={norm_T:g} run", long_run.norm_drift, 1e-13),
    )


# --- further consistency checks -----------------------------------------------


def check_parseval(cfg, grid, rng):
    """The stored norm, a sum over mode rows, is the norm of the x-space view."""
    psi = _random_state(cfg, grid, rng)
    grid_norm_sq = float(np.sum(np.abs(psi.amplitudes) ** 2) * grid.dx * grid.dy)
    mismatch = abs(psi.norm_sq() - grid_norm_sq)
    return _verdict("", ("mode-sum vs grid norm mismatch", mismatch, 1e-12))


def check_energy_invariance(cfg, grid, rng):
    """Quantized translations commute with the static Hamiltonian."""
    psi = _random_state(cfg, grid, rng)
    moved = apply_displacement(psi, Displacement(0.0, -2.0 * cfg.translation_step), cfg)
    err = abs(expectation_energy(moved, cfg) - expectation_energy(psi, cfg))
    return _verdict("", ("energy shift under quantized y-translation", err, 1e-9))


def check_swept_area(cfg, grid, rng):
    t = np.linspace(0.0, 2 * np.pi, 1025)
    circle = PathPolyline(tuple(zip(np.cos(t) - 1.0, np.sin(t))))
    return _verdict("", ("unit-circle shoelace area error", abs(circle.swept_area() - np.pi), 1e-4))


def check_drift_quadrature(cfg, grid, rng):
    """Closed-form drive displacement vs direct quadrature of the fields."""
    path = PathPolyline(((0.0, 0.0), (1.0, 0.5), (0.0, 0.0)))
    proto = DriveProtocol.from_path(cfg, path, T=8.0)
    mismatches = []
    for t in (1.7, 4.0, 7.3):
        rx, ry = proto.displacement(t)
        b = drift_displacement(proto, t)
        mismatches += [abs(float(rx) - b.rx), abs(float(ry) - b.ry)]
    return _verdict("", ("displacement mismatch", mismatches, 1e-12))


def check_path_phase_bookkeeping(cfg, grid, rng):
    """Path-ordered product collapses to net translation x area phase."""
    psi = _random_state(cfg, grid, rng)
    path = PathPolyline(((0.0, 0.0), (0.7, 0.0), (0.7, 0.5), (0.0, 0.5), (0.0, 0.0)))
    out = path_ordered_translation(psi, path, cfg)
    # contractible loop: state must return to itself up to the area phase
    overlap = inner_product(psi, out.state * np.exp(1j * out.accumulated_phase))
    area_phase = -cfg.q * cfg.B * 0.35 / (cfg.hbar * cfg.c)
    return _verdict(
        "",
        ("loop phase dev", abs(overlap / psi.norm_sq() - np.exp(1j * area_phase)), 1e-9),
        ("area phase dev", abs(out.accumulated_phase - area_phase), 1e-12),
    )


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
        return self.fn(cfg, grid, np.random.default_rng(seed), **inputs)


_ORACLE_DRIVE = (0, 0, 0.4, 0.0, ((0.0, 0.0), (0.8, 0.6), (0.0, 0.0)), 6.0)
# the loops of criteria 4 and 5 at T = 500, long enough that evolve_tdse's
# rotation and quadrature pieces reach omega h = MAX_PIECE_ANGLE, from the
# centre row and from rows up to 5 off it, whose tails reach the window's
# seam (a split that widens the state mid-step wraps them)
_LOOP_DRIVES = tuple(
    (n, j, 0.0, 0.0, spec.path.vertices, spec.T)
    for spec in (
        rectangle_loop_spec(PhysicsConfig.reference(), 0.5, T=500.0),
        fig1_loop_spec(PhysicsConfig.reference(), "blue", np.pi / 2, T=500.0),
    )
    for n, j in ((0, 0), (0, 3), (0, -3), (2, -2), (0, 5))
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


def run_all_checks(seed: int):
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
