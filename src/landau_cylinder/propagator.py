"""Time evolution: exact-step TDSE and exact oracle.

The Hamiltonian

    H(t) = (p_x - q A_x(y, t) / c)^2 / 2m + p_y^2 / 2m - q E_y(t) y,
    A_x = -B y + phi(t) / l,

commutes with p_x at all times, so the x modes never mix and the evolution
factorizes into independent 1D problems: mode j sees the potential

    V_j(y, t) = (hbar kappa_j - q A_x(y, t) / c)^2 / 2m - q E_y(t) y,

the harmonic well m omega^2 (y - b_j(t))^2 / 2 + C_j(t) of fixed frequency
omega (mode_well gives b and C, here and in
evolve_oracle).  Measured from the well centre at the start of a
step, that is a static oscillator under a linear force that is the same
for every row, and for such a Hamiltonian the Magnus series stops at
second order (Husimi, Prog. Theor. Phys. 9, 381 (1953)).  evolve_tdse
therefore takes steps that are exact for any drive: each step is the
static oscillator's propagator, split exactly into kinetic factors of
effective time tan(omega h / 2) / omega (applied via FFT) around a
potential factor weighted by sin(omega h) / omega, times a displacement
and a phase built from force integrals that 10-node Gauss-Legendre
quadrature evaluates to rounding on the smooth drive between two
breakpoints.  Its steps (see _time_grid) never cross a breakpoint, keep
omega h <= MAX_BLOCK_ANGLE, and end at about CHECK_SAMPLES norm and
boundary checks; a protocol's dt only splits them further.  The steps
of an interval run in blocks of at most BLOCK_VALUES complex values: a
block builds the factors of all its steps at once, and checks the end
states of its natural steps with one stacked inverse FFT.  Only the
occupied mode rows are propagated, each factor is unitary, and
probability at the y boundary raises TruncationError.

evolve_oracle is the independent exact reference for Gaussian states: a
displaced oscillator eigenstate stays a displaced eigenstate, rigidly
transported along the classical trajectory and dressed by the classical
action, for any drive strength.  Substituting the ansatz into the TDSE
fixes every term; no adiabatic assumption is involved.  Its classical ODE
restarts at every DriveProtocol.breakpoints() time, where the sin^2 ramps
make the force's second derivative jump, so each solve_ivp call sees a
smooth force; its right-hand side samples the drive in float arithmetic
(DriveProtocol._flux_and_ey) and takes no force integral from evolve_tdse.
On criterion 7's 20 random drives its phase agrees with a rerun at
rtol 3e-14 to 1e-13, and on its T = 500 rectangle loop to 2.1e-14.

Both refuse a grid whose circumference is not the config's l.  The
adiabatic factorization U = g M(C) D U_eps needs no propagator of its own:
on the cyclic loops the experiments run, g M(C) D takes the initial
eigenstate to a phase times itself, so adiabatic_study reads the footprint
of U_eps off evolve_tdse's final state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
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
from .eigenstates import hermite_profile, mode_well

__all__ = [
    "apply_hamiltonian",
    "expectation_energy",
    "EvolutionRecord",
    "evolve_tdse",
    "OracleResult",
    "evolve_oracle",
]

CHECK_SAMPLES = 256
# longest step, as omega * h: tan(omega h / 2) <= 1 keeps its kinetic factor
# well conditioned
MAX_BLOCK_ANGLE = np.pi / 2
GAUSS_NODES = 10
# evolve_tdse's block of steps, in complex values of (step, row, y): blocks
# of 2048 to 32768 values stepped a 512-point row equally fast, and a long
# sweep's peak memory rose by 1 MB at 8192 but not at 4096
BLOCK_VALUES = 4096
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
    pix = cfg.hbar * grid.kappas(stack.mode_offset)[:, None] - cfg.q * ax / cfg.c
    v = pix**2 / (2.0 * cfg.m) - cfg.q * ey_t * y

    ky2 = grid.ky**2
    kinetic = np.fft.ifft(
        np.fft.fft(stack.profiles, axis=1) * (cfg.hbar**2 * ky2 / (2.0 * cfg.m))[None, :],
        axis=1,
    )
    return Wavefunction.from_modes(
        ModeStack(grid, kinetic + v * stack.profiles, stack.mode_offset)
    )


def expectation_energy(psi: Wavefunction, cfg: PhysicsConfig) -> float:
    """<H> of the static Hamiltonian."""
    h_psi = apply_hamiltonian(psi, cfg)
    return float(np.real(inner_product(psi, h_psi)) / psi.norm_sq())


@dataclass(frozen=True, eq=False)
class EvolutionRecord:
    """TDSE run result: the final state and the number of steps taken.

    norm_drift is the largest deviation of the norm, sampled at every
    check (see _time_grid), from the norm of the whole initial state; the
    stepper is unitary, so this measures accumulated rounding and any
    probability left in rows too empty to propagate.
    """

    final_state: Wavefunction
    n_steps: int
    norm_drift: float


def _require_config_grid(psi0: Wavefunction, cfg: PhysicsConfig) -> None:
    if abs(psi0.grid.l - cfg.l) > 1e-12 * cfg.l:
        raise ValueError("grid and config disagree about the circumference")


def _time_grid(protocol: DriveProtocol) -> list[tuple[float, float, int, int]]:
    """evolve_tdse's steps, as (t0, h, n, k) per interval between breakpoints:
    n natural steps of length h from t0, each split into k equal steps.

    A natural step has omega h <= MAX_BLOCK_ANGLE and h <= T / CHECK_SAMPLES,
    and each one ends at a norm and boundary check.  k is 1, or the fewest
    steps of at most protocol.dt when one is given.
    """
    times = protocol.breakpoints()
    h_max = min(MAX_BLOCK_ANGLE / protocol.cfg.omega, protocol.T / CHECK_SAMPLES)
    grid = []
    for t0, t1 in zip(times[:-1], times[1:]):
        n = max(1, int(np.ceil((t1 - t0) / h_max - 1e-9)))
        h = (t1 - t0) / n
        k = 1 if protocol.dt is None else max(1, int(np.ceil(h / protocol.dt - 1e-9)))
        grid.append((float(t0), h, n, k))
    return grid


@cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes xi and weights w of GAUSS_NODES-point Gauss-Legendre on [-1, 1],
    and Q[k, l], the integral from -1 to xi_k of node l's Lagrange polynomial:
    Q @ g integrates the interpolant of samples g from -1 up to every node.

    Plain numpy (Newton's method on the Legendre recurrence, then the same
    rule on each [-1, xi_k]), so no linear-algebra library is loaded.
    """
    n = GAUSS_NODES

    def legendre(x):  # P_n(x) and P_n'(x)
        p_prev, p = np.ones_like(x), x
        for j in range(2, n + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        return p, n * (x * p - p_prev) / (x * x - 1.0)

    xi = -np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(8):  # converges quadratically from these guesses
        p, dp = legendre(xi)
        xi = xi - p / dp
    w = 2.0 / ((1.0 - xi * xi) * legendre(xi)[1] ** 2)
    # the rule is exact on [-1, xi_k] for the Lagrange polynomials (degree n - 1)
    x = -1.0 + 0.5 * (xi[:, None] + 1.0) * (xi + 1.0)
    off = ~np.eye(n, dtype=bool)
    lagrange = np.where(off, (x[:, :, None] - xi)[:, :, None, :], 1.0).prod(axis=-1)
    lagrange /= np.where(off, xi[:, None] - xi, 1.0).prod(axis=-1)
    q = 0.5 * (xi[:, None] + 1.0) * np.einsum("m,kml->kl", w, lagrange)
    return xi, w, q


def _step_coefficients(
    protocol: DriveProtocol, modes: np.ndarray, mode_offset: float, start: np.ndarray, h: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(b0, A, beta, Phi) of the exact step from each start over h, per row and step.

    In x = y - b0, with b0 the row's well centre at the step start, the
    row sees the static well m omega^2 x^2 / 2 plus -f(s) x + g(s), where
    f = m omega^2 (b(t0 + s) - b0) and g = f^2 / 2 m omega^2 + C.  The
    step's propagator is then exactly

        K exp(-i m omega^2 sigma x^2 / 2 hbar + i A x / hbar) K e^{i beta k_y} e^{i Phi},

    K = exp(-i hbar k_y^2 tau / 2m), tau = tan(omega h / 2) / omega,
    sigma = sin(omega h) / omega, beta = B - A tau / m and
    Phi = (-G + D / 2 m omega - A^2 tau / 2m + A B / 2) / hbar, with
    A = int f cos(omega s), B = int f sin(omega s) / m omega, G = int g and
    D = int int_{s2 < s1} f(s1) f(s2) sin(omega (s1 - s2)) over [0, h].
    """
    cfg = protocol.cfg
    omega, m = cfg.omega, cfg.m
    stiffness = m * omega**2
    xi, w, q = _gauss_legendre()
    s = 0.5 * h * (xi + 1.0)
    t = start[:, None] + np.append(0.0, s)
    phi = np.asarray(protocol.flux(t), dtype=float)
    ey = np.asarray(protocol.efield(t)[1], dtype=float)
    b, c = mode_well(cfg, modes[:, None, None], phi, ey, mode_offset)
    f = stiffness * (b[..., 1:] - b[..., :1])
    fc, fs = f * np.cos(omega * s), f * np.sin(omega * s)
    # einsum, not @: these small sums would load BLAS and its buffers (peak memory)
    A = 0.5 * h * np.einsum("...k,k", fc, w)
    B = 0.5 * h * np.einsum("...k,k", fs, w) / (m * omega)
    G = 0.5 * h * np.einsum("...k,k", f * f / (2.0 * stiffness) + c[..., 1:], w)
    inner_c, inner_s = np.einsum("...l,kl", fc, q), np.einsum("...l,kl", fs, q)
    D = 0.25 * h * h * np.einsum("...k,k", fs * inner_c - fc * inner_s, w)
    tau = np.tan(0.5 * omega * h) / omega
    phase = (-G + D / (2.0 * m * omega) - A * A * tau / (2.0 * m) + 0.5 * A * B) / cfg.hbar
    return b[..., 0], A, B - A * tau / m, phase


def evolve_tdse(psi0: Wavefunction, protocol: DriveProtocol) -> EvolutionRecord:
    """Integrate the TDSE over the protocol in steps that are exact for any drive.

    Only mode rows carrying probability are propagated (modes are exactly
    decoupled, so empty rows stay empty); the result is identical to
    propagating the full stack.  Each step is the product of
    _step_coefficients, with its potential factor written as the
    complete square

        exp(-i m omega^2 sigma (x - A / m omega^2 sigma)^2 / 2 hbar
            + i (Phi + A^2 / 2 hbar m omega^2 sigma)),

    and the translations e^{i beta k_y} of a natural step (see _time_grid)
    are applied together at its start, which moves each of its wells by
    -S, S the sum of beta over the steps after it.  The drive is sampled
    once per interval between breakpoints.

    Each interval is stepped in blocks of consecutive steps, at most
    BLOCK_VALUES complex values of (step, row, y) at a time.  A block
    builds the potential factors of all its steps, and the kinetic and
    translation factors of the natural steps that start in it, with one
    exp each, so its loop over steps is only FFTs and multiplies.  The end
    state of each natural step is kept in k space, and the block's ends
    are checked together with one stacked inverse FFT: the norm is
    sampled for norm_drift, and TruncationError names the first check at
    which probability has reached the y boundary.  Every value is
    computed as a step at a time would compute it, so the result does not
    depend on the block size.
    """
    cfg = protocol.cfg
    grid = psi0.grid
    _require_config_grid(psi0, cfg)

    stack = psi0.to_modes()
    occ = stack.occupied_rows(OCCUPATION_THRESHOLD)
    if occ.size == 0:
        raise ValueError("initial state is empty")
    modes = grid.mode_numbers[occ]
    omega, hbar = cfg.omega, cfg.hbar
    y, ky = grid.y[None, :], grid.ky

    norms = [np.sqrt(float((np.abs(stack.profiles) ** 2).sum() * grid.dy))]
    F = np.fft.fft(stack.profiles[occ], axis=1)
    psi_y = np.empty_like(F)
    block = max(1, BLOCK_VALUES // F.size)  # steps per block
    ends = np.empty((block,) + F.shape, dtype=complex)
    # the state a natural step starts from: the last one's end, in ends
    state = F
    n_steps = 0
    for t0, h, n, k in _time_grid(protocol):
        width = h / k
        b0, A, beta, phase = _step_coefficients(
            protocol, modes, stack.mode_offset, t0 + width * np.arange(n * k), width
        )
        # per step, as (step, row, 1) arrays: the complete square's centre
        # and constant, with the well moved by the natural step's later
        # translations; per natural step, its total translation
        well_stiffness = cfg.m * omega * np.sin(omega * width)  # m omega^2 sigma
        moves = beta.reshape(-1, n, k)
        later = np.cumsum(moves[..., ::-1], axis=2)[..., ::-1] - moves
        shift = (later[..., 0] + moves[..., 0]).T[:, :, None]
        centre = (b0 + A / well_stiffness - later.reshape(-1, n * k)).T[:, :, None]
        const_phase = 1j * (phase + A * A / (2.0 * hbar * well_stiffness)).T[:, :, None]
        well_phase = -0.5j * well_stiffness / hbar
        kinetic = (-0.5j * hbar * np.tan(0.5 * omega * width) / (omega * cfg.m)) * ky**2
        kin_half = np.exp(kinetic)
        kin_pair = kin_half * kin_half
        for s0 in range(0, n * k, block):
            s1 = min(s0 + block, n * k)
            # built in place: fewer temporaries, lower peak memory
            d = y - centre[s0:s1]
            d *= d
            potentials = well_phase * d
            potentials += const_phase[s0:s1]
            np.exp(potentials, out=potentials)
            first = -(-s0 // k)  # the first natural step that starts in the block
            kicks = 1j * ky * shift[first:-(-s1 // k)]
            kicks += kinetic
            np.exp(kicks, out=kicks)
            n_ends = 0
            for s in range(s0, s1):
                if s % k == 0:
                    np.multiply(state, kicks[s // k - first], out=F)
                np.fft.ifft(F, axis=1, out=psi_y)
                psi_y *= potentials[s - s0]
                np.fft.fft(psi_y, axis=1, out=F)
                if (s + 1) % k:
                    F *= kin_pair
                else:
                    state = np.multiply(F, kin_half, out=ends[n_ends])
                    n_ends += 1
            if n_ends == 0:
                continue
            prof = np.fft.ifft(ends[:n_ends], axis=-1)
            w = np.abs(prof)
            w *= w
            total = w.sum(axis=(1, 2))
            norms.extend(np.sqrt(total * grid.dy))
            over = np.flatnonzero(edge_fraction(w, total) > TRUNCATION_THRESHOLD)
            if over.size:
                seg = s0 // k + over[0]  # the offending natural step
                raise TruncationError(
                    f"probability reached the y boundary at t = {t0 + (seg + 1) * h:.3f}; "
                    "widen the window or slow the drive"
                )
        n_steps += n * k

    full = np.zeros((grid.Nx, grid.Ny), dtype=complex)
    full[occ] = prof[-1]
    final = Wavefunction.from_modes(ModeStack(grid, full, stack.mode_offset))
    norms = np.array(norms)
    return EvolutionRecord(
        final_state=final,
        n_steps=n_steps,
        norm_drift=float(np.max(np.abs(norms - norms[0]))),
    )


@dataclass(frozen=True, eq=False)
class OracleResult:
    """Exact reference evolution of a displaced eigenstate."""

    final_state: Wavefunction


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
    the criterion-7 drives, T = 500 rectangle loop included, where one call
    over [0, T] gave 1.4e-10).  The right-hand side reads flux and E_y from
    DriveProtocol._flux_and_ey, the drive's float sampler, which costs a
    fraction of the array calls flux(t) and efield(t).
    """
    cfg = protocol.cfg
    grid = psi0.grid
    _require_config_grid(psi0, cfg)
    stack = psi0.to_modes()
    occ = stack.occupied_rows(OCCUPATION_THRESHOLD)
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
        b, c = mode_well(cfg, j, *protocol._flux_and_ey(float(t)), theta)
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

    return OracleResult(final_state=final)
