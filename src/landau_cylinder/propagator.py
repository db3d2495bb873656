"""Time evolution: whole-drive TDSE and exact oracle.

The Hamiltonian

    H(t) = (p_x - q A_x(y, t) / c)^2 / 2m + p_y^2 / 2m - q E_y(t) y,
    A_x = -B y + phi(t) / l,

commutes with p_x at all times, so the x modes never mix and the evolution
factorizes into independent 1D problems: mode j sees the potential

    V_j(y, t) = (hbar kappa_j - q A_x(y, t) / c)^2 / 2m - q E_y(t) y,

the harmonic well m omega^2 (y - b_j(t))^2 / 2 + C_j(t) of fixed frequency
omega (mode_well gives b and C, here and in evolve_oracle).  Measured from
the well centre at t = 0, that is a static oscillator under a linear force
that is the same for every row, and for such a Hamiltonian the Magnus
series stops at second order (Husimi, Prog. Theor. Phys. 9, 381 (1953);
Blanes et al., Phys. Rep. 470, 151 (2009)).  evolve_tdse therefore
propagates the whole drive at once, exactly for any drive: one free
rotation by the static well, one Weyl displacement by the classical end
offset, and one phase, all built from force integrals that 10-node
Gauss-Legendre quadrature evaluates to rounding, once per drive for every
row, on pieces of the smooth drive between two breakpoints (see
_time_grid; a protocol's dt only caps their width).  A row centred delta
from the reference row gets -delta F in G, F = int q E_y dt.  On a loop
that winds w times F = q B w l / c, so delta_j F = -2 pi hbar w (j + theta)
and at theta = 0 every row reads the same phase.  The rotation is (-1)^K
times at most four exact V K V pieces, so an experiment makes at most ten
FFT calls whatever T, all along y: states are stored by mode row
(core.Wavefunction), so reading psi0's rows and storing psi(T)'s takes no
transform.  Only the occupied mode rows are propagated, each factor is
unitary, and probability at the y boundary, in the rotated initial state
or in the final state, raises TruncationError.

evolve_oracle is the independent exact reference for Gaussian states: a
displaced oscillator eigenstate stays a displaced eigenstate, rigidly
transported along the classical trajectory and dressed by the classical
action, for any drive strength, so no adiabatic assumption is involved.
It solves that classical ODE by Chebyshev-Picard iteration on
drive.chebyshev_rule's nodes, sampling the drive's array formulas, and
takes no force integral, quadrature rule or piece width from evolve_tdse.

Both refuse a grid whose circumference is not the config's l.  The
adiabatic factorization U = g M(C) D U_eps needs no propagator of its own:
on the cyclic loops the experiments run, g M(C) D takes the initial
eigenstate to a phase times itself, so adiabatic_study reads the footprint
of U_eps off evolve_tdse's final state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .core import (OCCUPATION_THRESHOLD, ModeStack, PhysicsConfig, Wavefunction, check_window,
                   inner_product)
from .drive import CHEBYSHEV_NODES, DriveProtocol, chebyshev_rule
from .eigenstates import hermite_profile, mode_center, mode_well

__all__ = [
    "apply_hamiltonian",
    "expectation_energy",
    "EvolutionRecord",
    "evolve_tdse",
    "OracleResult",
    "evolve_oracle",
]

# longest quadrature piece and rotation piece, as omega * h: the 10-node rule
# is exact to rounding on such pieces, and tan(omega h / 2) <= 1 keeps a
# rotation's potential factors well conditioned
MAX_PIECE_ANGLE = np.pi / 2
GAUSS_NODES = 10
# evolve_oracle's longest sub-interval, as omega * h, and its Picard sweeps on
# each: twelve already reach rounding with drive.CHEBYSHEV_NODES, eight do not
ORACLE_PIECE_ANGLE = 1.0
ORACLE_SWEEPS = 16


def apply_hamiltonian(psi: Wavefunction, cfg: PhysicsConfig) -> Wavefunction:
    """Apply the static Hamiltonian at flux cfg.phi0, spectrally in y, row by row."""
    grid = psi.grid
    y = grid.y[None, :]
    ax = -cfg.B * y + cfg.phi0 / cfg.l
    pix = cfg.hbar * grid.kappas(psi.mode_offset)[:, None] - cfg.q * ax / cfg.c
    kinetic = np.fft.ifft(
        np.fft.fft(psi.profiles, axis=1) * (cfg.hbar**2 * grid.ky**2 / (2.0 * cfg.m)), axis=1
    )
    return Wavefunction.from_modes(
        ModeStack(grid, kinetic + pix**2 / (2.0 * cfg.m) * psi.profiles, psi.mode_offset)
    )


def expectation_energy(psi: Wavefunction, cfg: PhysicsConfig) -> float:
    """<H> of the static Hamiltonian."""
    h_psi = apply_hamiltonian(psi, cfg)
    return float(np.real(inner_product(psi, h_psi)) / psi.norm_sq())


@dataclass(frozen=True, eq=False)
class EvolutionRecord:
    """TDSE run result: the final state and the number of quadrature pieces.

    norm_drift is |norm(psi(T)) - norm(psi0)|, psi0 whole; every factor is
    unitary, so this measures rounding and any probability left in rows
    too empty to propagate.
    """

    final_state: Wavefunction
    n_steps: int
    norm_drift: float


def _require_config_grid(psi0: Wavefunction, cfg: PhysicsConfig) -> None:
    if abs(psi0.grid.l - cfg.l) > 1e-12 * cfg.l:
        raise ValueError("grid and config disagree about the circumference")


def _time_grid(protocol: DriveProtocol) -> list[tuple[float, float, int]]:
    """The quadrature pieces, as (t0, h, n) per interval between breakpoints:
    n equal pieces of width h from t0.

    n is the fewest with omega h <= MAX_PIECE_ANGLE, and with h <= protocol.dt
    when one is given.
    """
    times = protocol.breakpoints()
    h_max = MAX_PIECE_ANGLE / protocol.cfg.omega
    if protocol.dt is not None:
        h_max = min(h_max, protocol.dt)
    grid = []
    for t0, t1 in zip(times[:-1], times[1:]):
        n = max(1, int(np.ceil((t1 - t0) / h_max - 1e-9)))
        grid.append((float(t0), (t1 - t0) / n, n))
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


def _drive_integrals(protocol: DriveProtocol, pieces: list) -> tuple[float, ...]:
    """(b0, A, S, G, D, F) of the whole drive, once for every row.

    In x = y - b0, with b0 the well centre at t = 0 of the reference row
    (mode 0 at offset 0), it sees m omega^2 x^2 / 2 - f(t) x + g(t), where
    f = m omega^2 (b(t) - b0) and g = f^2 / 2 m omega^2 + C, and over [0, T]

        A = int f cos(omega t),  S = int f sin(omega t),  G = int g,
        D = int int_{t2 < t1} f(t1) f(t2) sin(omega (t1 - t2)),  F = int q E_y.

    Every row sees the same f, and a row centred delta from the reference
    has C lower by q E_y delta, so its G is G - delta F.

    Each piece of the time grid is integrated by GAUSS_NODES-point
    Gauss-Legendre, D's inner integral by the rule's interpolant (Q of
    _gauss_legendre), and D's cross terms between pieces from the running
    sums of A and S.  The drive is sampled once per interval.
    """
    cfg = protocol.cfg
    omega = cfg.omega
    stiffness = cfg.m * omega**2
    xi, w, q = _gauss_legendre()
    b0 = mode_well(cfg, 0, protocol.flux(0.0), protocol.efield(0.0)[1], 0.0)[0]
    A = S = G = D = F = 0.0
    for t0, h, n in pieces:
        t = t0 + h * (np.arange(n)[:, None] + 0.5 * (xi + 1.0))
        ey = protocol.efield(t)[1]
        b, c = mode_well(cfg, 0, protocol.flux(t), ey, 0.0)
        f = stiffness * (b - b0)
        fc, fs = f * np.cos(omega * t), f * np.sin(omega * t)
        # per piece; einsum, not @: these small sums would load BLAS and its buffers (peak memory)
        a = 0.5 * h * np.einsum("...k,k", fc, w)
        s = 0.5 * h * np.einsum("...k,k", fs, w)
        g = 0.5 * h * np.einsum("...k,k", f * f / (2.0 * stiffness) + c, w)
        inner_c, inner_s = np.einsum("...l,kl", fc, q), np.einsum("...l,kl", fs, q)
        d = 0.25 * h * h * np.einsum("...k,k", fs * inner_c - fc * inner_s, w)
        # D's cross terms: each piece against everything before it
        a_before = A + np.cumsum(a) - a
        s_before = S + np.cumsum(s) - s
        D = D + (d + s * a_before - a * s_before).sum()
        A, S, G = A + a.sum(), S + s.sum(), G + g.sum()
        F = F + 0.5 * h * np.einsum("...k,k", cfg.q * ey, w).sum()
    return b0, A, S, G, D, F


def evolve_tdse(psi0: Wavefunction, protocol: DriveProtocol) -> EvolutionRecord:
    """Evolve psi0 over the whole drive at once, exactly for any drive.

    Per row, in x = y - b0 - delta (see _drive_integrals), the interaction
    picture of the static well H0 sees the linear force f(t) (x cos omega t
    + p sin omega t / m omega), whose commutators are numbers, so the
    Magnus series stops at second order and

        U(T) = e^{i (dp x - dy p) / hbar} U0(T) e^{i (-G + delta F + D / 2 m omega) / hbar},

    with the classical end offset dy = (A sin omega T - S cos omega T) / m omega
    and dp = A cos omega T + S sin omega T.  U0(2 pi / omega) = -1, so
    U0(T) is (-1)^K times at most four exact pieces of the remainder, each
    V K V: the potential half factors exp(-i m omega^2 tau x^2 / 2 hbar)
    around the free factor exp(-i p^2 sigma / 2 m hbar), tau =
    tan(omega h / 2) / omega and sigma = sin(omega h) / omega, which rotate
    the state through phase space without widening it.  The Weyl factor is
    a shift by dy (FFT) then the kick e^{i dp x / hbar}, with the phase
    -dp dy / 2 hbar.

    The rotation comes first, so the grid only ever holds rotations of
    psi0 and psi(T): each is checked for probability at the y boundary,
    or carried across it by the shift (core.check_window, the rule every
    y shift obeys), and TruncationError names the offender.  Where the
    drive carries the state between those states the cylinder's axis is
    infinite, so leaving the window there is no error.
    """
    cfg = protocol.cfg
    grid = psi0.grid
    _require_config_grid(psi0, cfg)

    stack = psi0.to_modes()
    occ = stack.occupied_rows(OCCUPATION_THRESHOLD)
    if occ.size == 0:
        raise ValueError("initial state is empty")
    omega, m, hbar, T = cfg.omega, cfg.m, cfg.hbar, protocol.T
    pieces = _time_grid(protocol)
    b0, A, S, G, D, F = _drive_integrals(protocol, pieces)
    # each row's centre offset from the reference row (the flux terms cancel)
    delta = mode_center(cfg, grid.mode_numbers[occ], 0.0, stack.mode_offset)
    delta = delta - mode_center(cfg, 0, 0.0)
    x = grid.y - (b0 + delta)[:, None]

    prof = stack.profiles[occ]
    period = 2.0 * np.pi / omega
    turns = np.floor(T / period)
    rest = T - turns * period
    n_rot = int(np.ceil(omega * rest / MAX_PIECE_ANGLE))
    if n_rot:
        h = rest / n_rot
        half_well = np.exp((-0.5j * m * omega * np.tan(0.5 * omega * h) / hbar) * x * x)
        free = np.exp((-0.5j * hbar * np.sin(omega * h) / (m * omega)) * grid.ky**2)
        prof = prof * half_well
        for i in range(1, n_rot + 1):
            prof = np.fft.ifft(np.fft.fft(prof, axis=1) * free, axis=1)
            # the closing half factor is a phase: it leaves the density checked here
            check_window(prof, grid, f"psi0 rotated by the static well to t = "
                         f"{turns * period + i * h:.3f}")
            prof *= half_well if i == n_rot else half_well * half_well

    cos_T, sin_T = np.cos(omega * T), np.sin(omega * T)
    shift = (A * sin_T - S * cos_T) / (m * omega)
    kick = A * cos_T + S * sin_T
    phase = (delta * F - G + D / (2.0 * m * omega) - 0.5 * kick * shift) / hbar
    phase = phase + np.pi * (turns % 2)
    moved = np.fft.fft(prof, axis=1) * np.exp(-1j * grid.ky * shift)
    prof = np.fft.ifft(moved, axis=1) * np.exp(1j * (kick * x / hbar + phase[:, None]))
    total = check_window(prof, grid, f"psi(T) at t = {T:.3f}", shift)

    full = np.zeros((grid.Nx, grid.Ny), dtype=complex)
    full[occ] = prof
    final = Wavefunction.from_modes(ModeStack(grid, full, stack.mode_offset))
    return EvolutionRecord(
        final_state=final,
        n_steps=sum(n for *_, n in pieces),
        norm_drift=abs(float(np.sqrt(total * grid.dy)) - psi0.norm()),
    )


@dataclass(frozen=True, eq=False)
class OracleResult:
    """Exact reference evolution of a displaced eigenstate."""

    final_state: Wavefunction


def _classical_orbit(protocol: DriveProtocol, j: int, theta: float, y0: float,
                     p0: float) -> tuple[float, float, float]:
    """(y, p, S) at T of the orbit from (y0, p0) in mode j's well, S its action.

    In equal sub-intervals of omega h <= ORACLE_PIECE_ANGLE of each smooth
    interval between breakpoints, where the drive is sampled once at
    chebyshev_rule's nodes, ORACLE_SWEEPS Gauss-Seidel Picard sweeps set
    y = y0 + int p / m, then p = p0 + int (f - m omega^2 y) (Clenshaw &
    Norton, Comput. J. 6, 88 (1963)); the rule's last row carries (y, p)
    to the sub-interval's end and adds its action.
    """
    cfg = protocol.cfg
    omega = cfg.omega
    m, stiffness = cfg.m, cfg.m * omega**2
    x, rule = chebyshev_rule(CHEBYSHEV_NODES)
    y_T, p_T, action_T = y0, p0, 0.0
    times = protocol.breakpoints()
    for t0, t1 in zip(times[:-1], times[1:]):
        n_sub = int(np.ceil(omega * (t1 - t0) / ORACLE_PIECE_ANGLE))
        h = (t1 - t0) / n_sub
        t = t0 + h * (np.arange(n_sub)[:, None] + 0.5 * (x + 1.0))
        # the well m omega^2 (y - b)^2 / 2 + C is the linear drive f y plus g
        b, c = mode_well(cfg, j, protocol.flux(t), protocol.efield(t)[1], theta)
        f = stiffness * b
        g = c + 0.5 * f * b
        q = 0.5 * h * rule
        # one einsum per half sweep, not @, which would load BLAS (peak memory)
        q_y, q_p = q / m, -stiffness * q
        for f_k, g_k in zip(f, g):
            # at the nodes, then the sub-interval's end (the rule's last row)
            ps = np.full(x.size + 1, p_T)
            p_forced = p_T + np.einsum("kl,l", q, f_k)
            for _ in range(ORACLE_SWEEPS):
                ys = y_T + np.einsum("kl,l", q_y, ps[:-1])
                ps = p_forced + np.einsum("kl,l", q_p, ys[:-1])
            yn, pn = ys[:-1], ps[:-1]
            lagr = pn * pn / (2.0 * m) - 0.5 * stiffness * yn * yn + f_k * yn - g_k
            action_T += np.einsum("l,l", q[-1], lagr)
            y_T, p_T = ys[-1], ps[-1]
    return y_T, p_T, action_T


def evolve_oracle(psi0: Wavefunction, protocol: DriveProtocol) -> OracleResult:
    """Exact evolution for a displaced oscillator eigenstate in one mode.

    The mode potential is a rigid harmonic well plus a linear drive, so the
    solution is phi_n carried along the classical trajectory:

        psi(y, t) = e^{i(S_cl - integral c)/hbar} e^{-i omega (n + 1/2) t}
                    e^{i p_cl (y - y_cl)/hbar} phi_n(y - y_cl),

    with (y_cl, p_cl) the classical solution started on the state's moments
    and S_cl the Lagrangian action of the linearly-driven well.  The input
    is validated against the displaced-eigenstate ansatz; anything else is
    rejected (this oracle is exact only on that family).  _classical_orbit
    gives (y_cl, p_cl, S_cl), good to ~1e-13 in state.
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

    theta = stack.mode_offset
    y_T, p_T, action_T = _classical_orbit(protocol, j, theta, y_bar, p_bar)

    phase = action_T / cfg.hbar - omega * (n + 0.5) * protocol.T + np.angle(c0)
    prof_T = hermite_profile(cfg, y, y_T, n) * np.exp(1j * p_T * (y - y_T) / cfg.hbar)
    prof_T = prof_T / np.sqrt(np.sum(np.abs(prof_T) ** 2) * dy)
    profiles = np.zeros((grid.Nx, grid.Ny), dtype=complex)
    profiles[row] = norm0 * np.exp(1j * phase) * prof_T
    final = Wavefunction.from_modes(ModeStack(grid, profiles, theta))

    return OracleResult(final_state=final)
