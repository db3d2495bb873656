"""Cyclic transport experiments and geometric-phase extraction.

An experiment drags an eigenstate around a closed guiding-center loop with
a slow drive and reads the phase left on the returned state.  For a loop
that winds w times around the cylinder and sweeps oriented contractible
area S, the adiabatic prediction is

    gamma = q (w phi - B S) / (hbar c)   (mod 2 pi),

i.e. the threading flux and the locally enclosed flux enter with opposite
signs.  The winding contribution survives S -> 0 (the flux never touches
the surface); the two cancel exactly when the loop encloses total flux
w phi + B S = 2 w phi.

Extraction subtracts two known dynamical pieces from arg<psi0|psi(T)>:
the eigenstate phase E_n T / hbar and the drift kinetic action
(m / 2 hbar) integral |Rdot|^2 dt.  The latter is the residual factor's
phase at finite duration: it scales like 1/T, is independent of state,
mode, level, and flux, and is computable from the protocol alone.  Both
the uncorrected phase (gamma_raw) and the subtracted pieces are reported.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace
from typing import Optional

import numpy as np

from .core import (
    ConfigError,
    CylinderGrid,
    NonCyclicEvolutionError,
    PhysicsConfig,
    TruncationError,
    Wavefunction,
    inner_product,
    wrap_angle,
)
from .drive import DriveProtocol
from .eigenstates import landau_eigenstate, landau_energy
from .magtrans import PathPolyline
from .propagator import evolve_tdse, factorized_evolution

__all__ = [
    "berry_phase",
    "LoopSpec",
    "ab_loop_spec",
    "rectangle_loop_spec",
    "fig1_loop_spec",
    "ExperimentResult",
    "run_loop",
    "run_fig1_comparison",
    "SweepResult",
    "flux_sweep",
    "StudyRow",
    "adiabatic_study",
]

DEFAULT_FIDELITY_GATE = 0.99


def berry_phase(
    psi0: Wavefunction,
    psi_T: Wavefunction,
    energy: float,
    T: float,
    cfg: PhysicsConfig,
    min_fidelity: float = DEFAULT_FIDELITY_GATE,
) -> tuple[float, float]:
    """(arg<psi0|psi(T)> + E T / hbar wrapped to (-pi, pi], return fidelity).

    Demands approximate cyclicity: if the return fidelity falls below
    min_fidelity the phase is not a meaningful holonomy and a
    NonCyclicEvolutionError is raised.  Pass min_fidelity = 0 to bypass
    (convergence studies need the failing rungs on record).
    """
    overlap = inner_product(psi0, psi_T)
    fidelity = abs(overlap) / (psi0.norm() * psi_T.norm())
    if fidelity < min_fidelity:
        raise NonCyclicEvolutionError(
            f"return fidelity {fidelity:.6f} below gate {min_fidelity}; "
            "the evolution is not cyclic enough for a phase readout"
        )
    return wrap_angle(np.angle(overlap) + energy * T / cfg.hbar), fidelity


@dataclass(frozen=True)
class LoopSpec:
    """One cyclic transport experiment: geometry, schedule, initial state.

    The builders set path and T; n, j and ramp_fraction are set only here.
    """

    kind: str
    path: PathPolyline
    T: float
    n: int = 0
    j: int = 0
    ramp_fraction: float = 0.1

    def protocol(self, cfg: PhysicsConfig) -> DriveProtocol:
        return DriveProtocol.from_path(
            cfg, self.path, self.T, ramp_fraction=self.ramp_fraction
        )


def ab_loop_spec(cfg: PhysicsConfig, T: float, winding: int = 1) -> LoopSpec:
    """Straight loop around the cylinder: encloses the flux, sweeps no area."""
    path = PathPolyline(((0.0, 0.0), (winding * cfg.l, 0.0)))
    return LoopSpec("ab_loop", path, T)


def rectangle_loop_spec(cfg: PhysicsConfig, height: float, T: float) -> LoopSpec:
    """Loop around the cylinder displaced axially: up, around, back down.

    Sweeps oriented area -l * height (clockwise for positive height), so it
    encloses surface flux -B l height on top of the threading flux.
    """
    l = cfg.l
    path = PathPolyline(((0.0, 0.0), (0.0, height), (l, height), (l, 0.0)))
    return LoopSpec("general_loop", path, T)


def fig1_loop_spec(cfg: PhysicsConfig, variant: str, phi_B: float, T: float) -> LoopSpec:
    """Winding loop with a contractible square excursion bolted on.

    variant "blue": counterclockwise excursion, surface flux +phi_B, phase
    q(phi - phi_B)/hbar c.  variant "green": clockwise, surface flux
    -phi_B, phase q(phi + phi_B)/hbar c, so the total enclosed flux
    phi - phi_B vanishes at phi = phi_B while the phase does not.
    """
    if variant not in ("blue", "green"):
        raise ValueError(f"variant must be 'blue' or 'green' (got {variant!r})")
    if phi_B < 0:
        raise ValueError("phi_B magnitude must be non-negative")
    side = float(np.sqrt(phi_B / cfg.B))  # a closed square excursion of area phi_B / B
    if variant == "blue":  # counterclockwise
        square = ((0.0, 0.0), (side, 0.0), (side, side), (0.0, side), (0.0, 0.0))
    else:
        square = ((0.0, 0.0), (0.0, side), (side, side), (side, 0.0), (0.0, 0.0))
    return LoopSpec(f"fig1_{variant}", PathPolyline(square + ((cfg.l, 0.0),)), T)


@dataclass(frozen=True)
class ExperimentResult:
    """Outcome of one cyclic transport run.

    gamma_measured subtracts both reported dynamical pieces
    (dynamical_phase = E_n T / hbar and drift_action); gamma_raw subtracts
    only dynamical_phase.  phi_B = B * swept area is the surface flux
    enclosed by the loop; enclosed_flux_total = winding * phi + phi_B.
    """

    kind: str
    phi: float
    phi_B: float
    n: int
    j: int
    T: float
    gamma_measured: float
    gamma_predicted: float
    gamma_raw: float
    dynamical_phase: float
    drift_action: float
    fidelity: float
    enclosed_flux_total: float
    norm_drift: float
    gamma_unwrapped: Optional[float] = None
    error: Optional[str] = None

    CSV_COLUMNS = ("phi", "phi_B", "gamma_measured", "gamma_predicted", "fidelity", "T", "n", "kind")

    def csv_row(self) -> tuple:
        return tuple(getattr(self, k) for k in self.CSV_COLUMNS)

    def to_dict(self) -> dict:
        return asdict(self)


def _run_spec(
    cfg: PhysicsConfig,
    grid: CylinderGrid,
    spec: LoopSpec,
    min_fidelity: float = DEFAULT_FIDELITY_GATE,
):
    """Execute one loop experiment: (result, psi0, record, protocol)."""
    net = spec.path.net_displacement
    winding_f = net.rx / cfg.l
    winding = round(winding_f)
    if abs(winding_f - winding) > 1e-9 or abs(net.ry) > 1e-12:
        raise ValueError(
            "loop is not cyclic: net displacement must be an integer number of "
            f"circumferences along x and zero along y (got {net})"
        )

    protocol = spec.protocol(cfg)
    psi0 = landau_eigenstate(cfg, grid, spec.n, spec.j)
    record = evolve_tdse(psi0, protocol)

    energy = landau_energy(cfg, spec.n)
    gamma_raw, fidelity = berry_phase(
        psi0, record.final_state, energy, spec.T, cfg, min_fidelity=min_fidelity
    )
    drift_action = protocol.drift_action()
    gamma = wrap_angle(gamma_raw - drift_action)

    area = spec.path.swept_area()
    phi_b = cfg.B * area
    predicted = wrap_angle(cfg.q * (winding * cfg.phi0 - phi_b) / (cfg.hbar * cfg.c))

    result = ExperimentResult(
        kind=spec.kind,
        phi=cfg.phi0,
        phi_B=phi_b,
        n=spec.n,
        j=spec.j,
        T=spec.T,
        gamma_measured=gamma,
        gamma_predicted=predicted,
        gamma_raw=gamma_raw,
        dynamical_phase=energy * spec.T / cfg.hbar,
        drift_action=drift_action,
        fidelity=fidelity,
        enclosed_flux_total=winding * cfg.phi0 + phi_b,
        norm_drift=record.norm_drift,
    )
    return result, psi0, record, protocol


def run_loop(
    cfg: PhysicsConfig,
    grid: CylinderGrid,
    spec: LoopSpec,
    min_fidelity: float = DEFAULT_FIDELITY_GATE,
) -> ExperimentResult:
    """Drag the spec's eigenstate around its loop at the flux cfg.phi0."""
    return _run_spec(cfg, grid, spec, min_fidelity)[0]


def run_fig1_comparison(
    cfg: PhysicsConfig,
    grid: CylinderGrid,
    phi_B: float,
    T: float,
    n: int = 0,
    j: int = 0,
    ramp_fraction: float = 0.1,
    min_fidelity: float = DEFAULT_FIDELITY_GATE,
) -> tuple[ExperimentResult, ExperimentResult]:
    """(blue, green): two loops, same threading flux, opposite contractible excursions.

    At phi = phi_B the blue loop (total enclosed flux phi + phi_B) returns
    zero geometric phase, while the green loop (total enclosed flux zero)
    returns 2 q phi / hbar c: the phase follows the winding flux minus the
    surface flux, not the total.
    """
    specs = (fig1_loop_spec(cfg, v, phi_B, T) for v in ("blue", "green"))
    schedule = dict(n=n, j=j, ramp_fraction=ramp_fraction)
    return tuple(run_loop(cfg, grid, replace(s, **schedule), min_fidelity) for s in specs)


@dataclass(frozen=True)
class SweepResult:
    """Flux sweep rows plus the linear response of the unwrapped phase."""

    rows: tuple[ExperimentResult, ...]
    slope: float
    intercept: float


def flux_sweep(
    cfg: PhysicsConfig,
    grid: CylinderGrid,
    spec: LoopSpec,
    phi_values,
    min_fidelity: float = DEFAULT_FIDELITY_GATE,
) -> SweepResult:
    """Run one loop over a flux grid; for a loop winding w times the ideal
    slope is w q / hbar c.

    Rows that fail with the package's own errors (truncation, non-cyclic
    return, bad configuration) are recorded with an error string and
    excluded from the fit; any other exception propagates.
    """
    rows = []
    for phi in phi_values:
        try:
            rows.append(run_loop(replace(cfg, phi0=float(phi)), grid, spec, min_fidelity))
        except (TruncationError, NonCyclicEvolutionError, ConfigError) as exc:
            blank = dict.fromkeys((f.name for f in fields(ExperimentResult)), float("nan"))
            rows.append(ExperimentResult(**{
                **blank, "kind": spec.kind, "phi": float(phi), "n": spec.n, "j": spec.j,
                "T": spec.T, "gamma_unwrapped": None,
                "error": f"{type(exc).__name__}: {exc}",
            }))

    good = [i for i, r in enumerate(rows) if r.error is None]
    if len(good) >= 2:
        phis = np.array([rows[i].phi for i in good])
        wrapped = np.array([rows[i].gamma_measured for i in good])
        unwrapped = np.unwrap(wrapped)
        for i, g in zip(good, unwrapped):
            rows[i] = replace(rows[i], gamma_unwrapped=float(g))
        slope, intercept = np.polyfit(phis, unwrapped, 1)
    else:
        slope, intercept = float("nan"), float("nan")
    return SweepResult(rows=tuple(rows), slope=float(slope), intercept=float(intercept))


@dataclass(frozen=True)
class StudyRow:
    T: float
    gamma_error: float
    infidelity: float
    gamma_raw_error: float
    discrepancy_norm: float
    result: ExperimentResult


def adiabatic_study(
    cfg: PhysicsConfig,
    grid: CylinderGrid,
    spec: LoopSpec,
    T_values,
) -> tuple[StudyRow, ...]:
    """Convergence of the phase readout and the factorization with the
    spec's duration, rerun at each T in T_values.

    The fidelity gate is bypassed on purpose: the short-T rungs are exactly
    the interesting failures and must be recorded, not fatal.
    """
    rows = []
    for T in T_values:
        result, psi0, record, protocol = _run_spec(
            cfg, grid, replace(spec, T=float(T)), min_fidelity=0.0
        )
        report = factorized_evolution(psi0, protocol, tdse_state=record.final_state)
        rows.append(
            StudyRow(
                T=float(T),
                gamma_error=abs(wrap_angle(result.gamma_measured - result.gamma_predicted)),
                infidelity=1.0 - result.fidelity,
                gamma_raw_error=abs(wrap_angle(result.gamma_raw - result.gamma_predicted)),
                discrepancy_norm=report.discrepancy_norm,
                result=result,
            )
        )
    return tuple(rows)
