"""Time evolution: split-operator TDSE, exact oracle, factorization check.

The Hamiltonian

    H(t) = (p_x - q A_x(y, t) / c)^2 / 2m + p_y^2 / 2m - q E_y(t) y,
    A_x = -B y + phi(t) / l,

commutes with p_x at all times, so the x modes never mix and the evolution
factorizes into independent 1D problems: mode j sees the potential

    V_j(y, t) = (hbar kappa_j - q A_x(y, t) / c)^2 / 2m - q E_y(t) y,

a harmonic well of fixed frequency omega whose center rides the drift.
evolve_tdse exploits this: it propagates only the occupied mode rows, and
over each step freezes the drive at the step midpoint, where V_j is the
exact well m omega^2 (y - b)^2 / 2 + C (mode_well gives b and C, here
and in evolve_oracle and factorized_evolution).  The propagator of a
frozen well factorizes exactly into kinetic-y factors of effective time
tan(omega dt / 2) / omega (applied via FFT) around a potential factor
weighted by sin(omega dt) / omega, so a static well is propagated without
splitting error at any dt < pi / omega.  The only error left is second
order in dt, from the drive's time dependence.  While the drive holds its
speed the frozen well does not change, and k such steps compose to the
same factorization with k dt in place of dt; evolve_tdse takes each such
run, up to the next check step and at most MAX_BLOCK_ANGLE / omega long,
as one step, so the result moves only by rounding and a run of single
steps keeps the one-step arithmetic bit for bit (the winding loop at
T = 200 takes 630 blocks for 2000 steps; the rectangle loop and a fig1
loop at phi_B = pi/2, T = 2000, take 7258 and 8508 for 20000).  Each
factor is unitary, so norm is conserved to rounding.  evolve_tdse returns
the final state and the norm drift; the norm and the boundary mass are
checked at about CHECK_SAMPLES evenly spaced steps and at the last one,
and probability at the y boundary raises TruncationError.

evolve_oracle is the independent exact reference for Gaussian states: a
displaced oscillator eigenstate stays a displaced eigenstate, rigidly
transported along the classical trajectory and dressed by the classical
action, for any drive strength.  Substituting the ansatz into the TDSE
fixes every term; no adiabatic assumption is involved.  Its classical ODE
restarts at every DriveProtocol.breakpoints() time, where the sin^2 ramps
make the force's second derivative jump, so each solve_ivp call sees a
smooth force; on the 20 criterion-7 drives its phase then agrees with a
rerun at rtol 3e-14 to 1e-13.

factorized_evolution checks the adiabatic factorization U = g M(C) D U_eps
by building g M(C) D explicitly and comparing with the TDSE result; the
reported discrepancy is the footprint of the neglected U_eps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    TRUNCATION_THRESHOLD,
    ModeStack,
    PhysicsConfig,
    TruncationError,
    Wavefunction,
    edge_fraction,
    inner_product,
)
from .drive import DriveProtocol
from .eigenstates import hermite_profile, mode_well, oscillator_profiles
from .magtrans import path_ordered_translation

__all__ = [
    "apply_hamiltonian",
    "expectation_energy",
    "EvolutionRecord",
    "evolve_tdse",
    "OracleResult",
    "evolve_oracle",
    "FactorizationReport",
    "factorized_evolution",
]

CHECK_SAMPLES = 256
# longest merged step, as omega * h: tan(omega h / 2) <= 1 keeps its kinetic
# factor well conditioned
MAX_BLOCK_ANGLE = np.pi / 2
OCCUPATION_THRESHOLD = 1e-14
ORACLE_RTOL, ORACLE_ATOL = 1e-12, 1e-13


def apply_hamiltonian(
    psi: Wavefunction,
    cfg: PhysicsConfig,
    protocol: Optional[DriveProtocol] = None,
    t: float = 0.0,
) -> Wavefunction:
    """Apply H(t) spectrally.  protocol=None means the static Hamiltonian."""
    grid = psi.grid
    stack = psi.to_modes()
    if protocol is None:
        phi_t, ey_t = cfg.phi0, 0.0
    else:
        phi_t = float(protocol.flux(t))
        ey_t = float(protocol.efield(t)[1])

    y = grid.y[None, :]
    ax = -cfg.B * y + phi_t / cfg.l
    pix = cfg.hbar * stack.kappas[:, None] - cfg.q * ax / cfg.c
    v = pix**2 / (2.0 * cfg.m) - cfg.q * ey_t * y

    ky2 = grid.ky**2
    kinetic = np.fft.ifft(
        np.fft.fft(stack.profiles, axis=1) * (cfg.hbar**2 * ky2 / (2.0 * cfg.m))[None, :],
        axis=1,
    )
    return Wavefunction.from_modes(
        ModeStack(grid, kinetic + v * stack.profiles, stack.mode_offset)
    )


def expectation_energy(
    psi: Wavefunction,
    cfg: PhysicsConfig,
    protocol: Optional[DriveProtocol] = None,
    t: float = 0.0,
) -> float:
    h_psi = apply_hamiltonian(psi, cfg, protocol, t)
    return float(np.real(inner_product(psi, h_psi)) / psi.norm_sq())


@dataclass(frozen=True, eq=False)
class EvolutionRecord:
    """TDSE run result: the final state and the step it was reached with.

    norm_drift is the largest deviation of the norm, sampled at about
    CHECK_SAMPLES evenly spaced steps and at the last one, from the initial
    norm; the stepper is unitary, so this measures accumulated rounding only.
    """

    final_state: Wavefunction
    dt: float
    n_steps: int
    norm_drift: float


def _blocks(fresh: np.ndarray, stride: int, omega_dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Start and length of each block of steps that evolve_tdse takes as one step.

    A block starts at step 0, at every fresh step and after every check step
    (s + 1 a multiple of stride), and holds as many steps as fit in
    MAX_BLOCK_ANGLE / omega_dt (at least one); the last step ends a block.
    """
    n_steps = fresh.size
    max_len = max(1, int(MAX_BLOCK_ANGLE / omega_dt))
    cut = fresh.copy()
    cut[0] = True
    cut[stride::stride] = True
    runs = np.flatnonzero(cut)
    run_len = np.diff(np.append(runs, n_steps))
    chunks = -(-run_len // max_len)
    first = np.repeat(np.cumsum(chunks) - chunks, chunks)
    starts = np.repeat(runs, chunks) + max_len * (np.arange(first.size) - first)
    ends = np.minimum(starts + max_len, np.repeat(runs + run_len, chunks))
    return starts, ends - starts


def _midpoint_wells(
    protocol: DriveProtocol, modes: np.ndarray, mode_offset: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every step's midpoint well (b, C) on every row, in one vectorized pass,
    and the fresh mask: True where a step's well differs bitwise from the
    previous step's.  The per-step samples die here, before evolve_tdse
    builds its blocks."""
    n_steps = protocol.n_steps
    t_mid = (np.arange(n_steps) + 0.5) * protocol.dt
    phi_mid = np.asarray(protocol.flux(t_mid), dtype=float)[:, None, None]
    ey_mid = np.asarray(protocol.efield(t_mid)[1], dtype=float)[:, None, None]
    b, c = mode_well(protocol.cfg, modes, phi_mid, ey_mid, mode_offset)
    well_bits = np.concatenate([b.reshape(n_steps, -1), c.reshape(n_steps, -1)], axis=1)
    well_bits = well_bits.view(np.uint64)
    fresh = np.ones(n_steps, dtype=bool)
    fresh[1:] = np.any(well_bits[1:] != well_bits[:-1], axis=1)
    return b, c, fresh


def evolve_tdse(psi0: Wavefunction, protocol: DriveProtocol) -> EvolutionRecord:
    """Integrate the TDSE over the protocol by exact-oscillator splitting.

    Only mode rows carrying probability are propagated (modes are exactly
    decoupled, so empty rows stay empty); the result is identical to
    propagating the full stack.  Each step samples phi(t) and E_y(t) at
    its midpoint and applies the exact propagator of that frozen well:

        e^{-i p^2 tau / 2 m hbar} e^{-i [sin(omega dt) / omega
        m omega^2 (y - b)^2 / 2 + dt C] / hbar} e^{-i p^2 tau / 2 m hbar},

    tau = tan(omega dt / 2) / omega.  A static well is therefore exact at
    any step; the error is second order in dt through the drive alone.
    That product is e^{-iH dt / hbar} of the frozen well, so a run of k
    steps whose midpoint b and C are bitwise unchanged is one such factor
    with k dt in place of dt (see _blocks for where runs are cut): one FFT
    pair per block instead of one per step.  Every max(1, n_steps //
    CHECK_SAMPLES) steps and at the last step, each of which ends a block,
    the norm is sampled for norm_drift, and TruncationError is raised if
    probability has reached the y boundary.
    """
    cfg = protocol.cfg
    grid = psi0.grid
    if abs(grid.l - cfg.l) > 1e-12 * cfg.l:
        raise ValueError("grid and config disagree about the circumference")

    stack = psi0.to_modes()
    occ = stack.occupied_rows(OCCUPATION_THRESHOLD)
    if occ.size == 0:
        raise ValueError("initial state is empty")
    prof = stack.profiles[occ].copy()
    modes = grid.mode_numbers[occ]

    dt, n_steps = protocol.dt, protocol.n_steps
    stride = max(1, n_steps // CHECK_SAMPLES)

    b, c, fresh = _midpoint_wells(protocol, modes[:, None], stack.mode_offset)
    omega = cfg.omega
    stiffness = cfg.m * omega**2
    y = grid.y[None, :]
    starts, lengths = _blocks(fresh, stride, omega * dt)
    ends = starts + lengths
    # per block from here on: whether its well is new, its center b and its
    # constant phase (c times a length of 1 is exact, so a one-step block
    # keeps the one-step bits); the loop reads plain lists, which index
    # faster than arrays, and the length 0 after the last block ends it
    b, c = b[starts], c[starts]
    const_phase = (-1j * dt / cfg.hbar) * (c * lengths[:, None, None])
    new_well = fresh[starts].tolist()
    checked = ((ends % stride == 0) | (ends == n_steps)).tolist()
    ks = lengths.tolist() + [0]

    # exact harmonic factors of each block length h = k dt
    kin_half, well_phase = {}, {}
    for k in np.flatnonzero(np.bincount(lengths)).tolist():
        h = k * dt
        tau_half = np.tan(0.5 * omega * h) / omega
        kin_half[k] = np.exp(-1j * cfg.hbar * grid.ky**2 * tau_half / (2.0 * cfg.m))[None, :]
        well_phase[k] = -1j * np.sin(omega * h) / omega * stiffness / (2.0 * cfg.hbar)
    kin_pair = {}  # (length, next length) -> the two half factors between them
    well = {}  # length -> potential factor of the current well

    norms = [np.sqrt(float((np.abs(prof) ** 2).sum() * grid.dy))]
    F = np.fft.fft(prof, axis=1)
    F *= kin_half[ks[0]]
    psi_y = np.empty_like(F)
    for i in range(starts.size):
        k, k_next = ks[i], ks[i + 1]
        np.fft.ifft(F, axis=1, out=psi_y)
        if new_well[i]:
            well = {}
        factor = well.get(k)
        if factor is None:
            d = y - b[i]
            factor = well[k] = np.exp(well_phase[k] * (d * d) + const_phase[i])
        psi_y *= factor
        np.fft.fft(psi_y, axis=1, out=F)
        if checked[i]:
            F *= kin_half[k]
            prof = np.fft.ifft(F, axis=1)
            w = np.abs(prof) ** 2
            norms.append(np.sqrt(float(w.sum() * grid.dy)))
            if edge_fraction(w) > TRUNCATION_THRESHOLD:
                raise TruncationError(
                    f"probability reached the y boundary at t = {int(ends[i]) * dt:.3f}; "
                    "widen the window or slow the drive"
                )
            if k_next:
                F *= kin_half[k_next]
        else:
            pair = kin_pair.get((k, k_next))
            if pair is None:
                pair = kin_pair[k, k_next] = kin_half[k] * kin_half[k_next]
            F *= pair

    full = np.zeros((grid.Nx, grid.Ny), dtype=complex)
    full[occ] = prof
    final = Wavefunction.from_modes(ModeStack(grid, full, stack.mode_offset))
    norms = np.array(norms)
    return EvolutionRecord(
        final_state=final,
        dt=dt,
        n_steps=n_steps,
        norm_drift=float(np.max(np.abs(norms - norms[0]))),
    )


@dataclass(frozen=True, eq=False)
class OracleResult:
    """Exact reference evolution of a displaced eigenstate."""

    final_state: Wavefunction
    n: int
    j: int


def evolve_oracle(psi0: Wavefunction, protocol: DriveProtocol) -> OracleResult:
    """Exact evolution for a displaced oscillator eigenstate in one mode.

    The mode potential is a rigid harmonic well plus a linear drive, so the
    solution is phi_n carried along the classical trajectory:

        psi(y, t) = e^{i(S_cl - integral c)/hbar} e^{-i omega (n + 1/2) t}
                    e^{i p_cl (y - y_cl)/hbar} phi_n(y - y_cl),

    with (y_cl, p_cl) the classical solution started on the state's moments
    and S_cl the Lagrangian action of the linearly-driven well.  The input
    is validated against the displaced-eigenstate ansatz; anything else is
    rejected (this oracle is exact only on that family).

    (y_cl, p_cl, S_cl) are integrated by DOP853 in one call per interval
    between the protocol's breakpoints, each started from the end of the
    one before: inside an interval the force is smooth, so the integrator
    keeps its order (phase error ~1e-13 against a rerun at rtol 3e-14 on
    the criterion-7 drives, where one call over [0, T] gave 1.4e-10).
    """
    cfg = protocol.cfg
    grid = psi0.grid
    stack = psi0.to_modes()
    occ = stack.occupied_rows(1e-12)
    if occ.size != 1:
        raise ValueError(
            f"oracle input must occupy exactly one mode (found {occ.size} occupied)"
        )
    row = int(occ[0])
    j = int(grid.mode_numbers[row])
    chi = stack.profiles[row]
    norm0 = float(np.sqrt(np.sum(np.abs(chi) ** 2) * grid.dy))
    chi_n = chi / norm0

    # moments of the profile fix the classical initial conditions
    dy = grid.dy
    y = grid.y
    rho = np.abs(chi_n) ** 2
    y_bar = float(np.sum(rho * y) * dy)
    dchi = np.fft.ifft(1j * grid.ky * np.fft.fft(chi_n))
    p_bar = float(cfg.hbar * np.imag(np.sum(np.conj(chi_n) * dchi) * dy))
    p_sq = float(cfg.hbar**2 * np.sum(np.abs(dchi) ** 2) * dy)
    y_var = float(np.sum(rho * (y - y_bar) ** 2) * dy)

    omega = cfg.omega
    e_centered = (p_sq - p_bar**2) / (2.0 * cfg.m) + 0.5 * cfg.m * omega**2 * y_var
    n_float = e_centered / (cfg.hbar * omega) - 0.5
    n = int(round(n_float))
    if n < 0 or abs(n_float - n) > 1e-6:
        raise ValueError(
            f"profile energy does not sit on an oscillator level (n = {n_float:.6f})"
        )
    ideal = hermite_profile(cfg, y, y_bar, n) * np.exp(1j * p_bar * (y - y_bar) / cfg.hbar)
    ideal = ideal / np.sqrt(np.sum(np.abs(ideal) ** 2) * dy)
    c0 = complex(np.sum(np.conj(ideal) * chi_n) * dy)
    if abs(c0) < 1.0 - 1e-8:
        raise ValueError(
            f"input is not a displaced oscillator eigenstate (overlap {abs(c0):.2e})"
        )

    from scipy.integrate import solve_ivp  # imported here so the package starts on numpy alone

    theta = stack.mode_offset
    stiffness = cfg.m * omega**2

    def rhs(t, z):
        # the well m omega^2 (y - b)^2 / 2 + C is the linear drive f y plus c
        yc, pc, _ = z
        b, c = mode_well(cfg, j, float(protocol.flux(t)), float(protocol.efield(t)[1]), theta)
        f = stiffness * b
        lagr = pc * pc / (2.0 * cfg.m) - 0.5 * stiffness * yc * yc + f * yc
        return [pc / cfg.m, -stiffness * yc + f, lagr - (c + 0.5 * f * b)]

    z = np.array([y_bar, p_bar, 0.0])
    times = protocol.breakpoints()
    for t0, t1 in zip(times[:-1], times[1:]):
        sol = solve_ivp(
            rhs, (t0, t1), z, method="DOP853",
            rtol=ORACLE_RTOL, atol=ORACLE_ATOL, max_step=protocol.T / 16,
        )
        if not sol.success:
            raise RuntimeError(f"classical oracle integration failed: {sol.message}")
        z = sol.y[:, -1]
    y_T, p_T, action_T = z

    phase = action_T / cfg.hbar - omega * (n + 0.5) * protocol.T + np.angle(c0)
    prof_T = hermite_profile(cfg, y, y_T, n) * np.exp(1j * p_T * (y - y_T) / cfg.hbar)
    prof_T = prof_T / np.sqrt(np.sum(np.abs(prof_T) ** 2) * dy)
    profiles = np.zeros((grid.Nx, grid.Ny), dtype=complex)
    profiles[row] = norm0 * np.exp(1j * phase) * prof_T
    final = Wavefunction.from_modes(ModeStack(grid, profiles, theta))

    return OracleResult(final_state=final, n=n, j=j)


@dataclass(frozen=True, eq=False)
class FactorizationReport:
    """TDSE result versus the explicit product g M(C) D.

    discrepancy_norm = |psi_tdse - psi_factorized| measures the neglected
    residual factor directly; phase_difference is its phase on this state.
    drift_action is the protocol's drift kinetic action, the analytic
    leading term of that phase.
    """

    fidelity: float
    phase_difference: float
    discrepancy_norm: float
    drift_action: float
    completeness: float


def factorized_evolution(
    psi0: Wavefunction,
    protocol: DriveProtocol,
    tdse_state: Optional[Wavefunction] = None,
    n_max: int = 40,
    completeness_tol: float = 1e-10,
) -> FactorizationReport:
    """Compare the TDSE against the adiabatic factorization g M(C) D.

    D = exp(-i H(0) T / hbar) acts per mode in the oscillator eigenbasis of
    the initial well (n <= n_max, expansion completeness enforced); M(C) is
    the path-ordered magnetic translation along the protocol's path;
    g = exp(i q B R_y(T) x / hbar c) restores single-valuedness when the
    drift ends off axis.  Pass tdse_state to reuse an existing run.
    """
    cfg = protocol.cfg
    grid = psi0.grid
    if tdse_state is None:
        tdse_state = evolve_tdse(psi0, protocol).final_state

    stack = psi0.to_modes()
    occ = stack.occupied_rows(OCCUPATION_THRESHOLD)
    ey0 = float(protocol.efield(0.0)[1])
    omega = cfg.omega
    T = protocol.T

    profiles = np.zeros_like(stack.profiles)
    completeness = 1.0
    for row in occ:
        j = int(grid.mode_numbers[row])
        center, e_shift = mode_well(cfg, j, cfg.phi0, ey0, stack.mode_offset)
        basis = oscillator_profiles(cfg, grid.y, center, n_max)
        chi = stack.profiles[row]
        coeffs = basis @ chi * grid.dy
        weight = float(np.sum(np.abs(coeffs) ** 2) / (np.sum(np.abs(chi) ** 2) * grid.dy))
        completeness = min(completeness, weight)
        if weight < 1.0 - completeness_tol:
            raise TruncationError(
                f"oscillator expansion of mode {j} incomplete ({weight:.12f}); "
                f"raise n_max above {n_max}"
            )
        energies = cfg.hbar * omega * (np.arange(n_max + 1) + 0.5) + e_shift
        profiles[row] = (coeffs * np.exp(-1j * energies * T / cfg.hbar)) @ basis

    psi_d = Wavefunction.from_modes(ModeStack(grid, profiles, stack.mode_offset))

    if protocol.path is None:
        psi_m = psi_d
    else:
        result = path_ordered_translation(psi_d, protocol.path, cfg, check_truncation=False)
        psi_m = result.state * np.exp(1j * result.accumulated_phase)

    _, ry_T = protocol.displacement(protocol.T)
    psi_fact = psi_m.multiply_phase_linear_x(cfg.q * cfg.B * float(ry_T) / (cfg.hbar * cfg.c))

    overlap = inner_product(psi_fact, tdse_state)
    fid = abs(overlap) / (psi_fact.norm() * tdse_state.norm())
    diff = float(
        np.sqrt(
            np.sum(np.abs(tdse_state.amplitudes - psi_fact.amplitudes) ** 2)
            * grid.dx * grid.dy
        )
    )
    return FactorizationReport(
        fidelity=float(fid),
        phase_difference=float(np.angle(overlap)),
        discrepancy_norm=diff,
        drift_action=protocol.drift_action(),
        completeness=completeness,
    )
