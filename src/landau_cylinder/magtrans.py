"""Magnetic translations, their composition phases, and path ordering.

The operators implemented here displace the guiding center while commuting
with the kinetic momenta:

    x by R_x:  exp(i q R_x phi / (hbar l c)) exp(-(i/hbar) p_x R_x)
    y by R_y:  exp(-(i/hbar) p_y R_y) exp(-i q B R_y x / (hbar c))

The x translation is well defined for any R_x; a full loop R_x = l reduces
to the global phase exp(i q phi / (hbar c)) because the pure shift acts
trivially on single-valued states.  The y translation is single valued only
when B l R_y is an integer number of flux quanta; otherwise the linear-x
phase leaves a fractional mode offset that downstream bookkeeping must
cancel before overlaps are taken.

Translations along different directions commute only up to the enclosed
magnetic flux:

    M(R2) M(R1) = M(R1 + R2) exp(-i (qB/hbar c) (R1 x R2) . n / 2),

with n = e_x cross e_y.  Iterating this over the segments of a polyline
telescopes the phases into (-q/hbar c) B S, where S is the oriented area
swept between the path and its chord back to the origin; that is what
path_ordered_translation reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigError, PhysicsConfig, Wavefunction, check_window

__all__ = [
    "Displacement",
    "PathPolyline",
    "translate_x",
    "translate_y",
    "apply_displacement",
    "compose_phase",
    "TranslationResult",
    "path_ordered_translation",
    "sequential_translation",
]

# x shifts within this many circumferences of an exact grid cell use np.roll,
# which makes quantized translations exact instead of spectrally exact.
_CELL_SNAP = 1e-12


@dataclass(frozen=True)
class Displacement:
    """In-surface displacement (rx along the circumference, ry axial)."""

    rx: float
    ry: float

    def __add__(self, other: "Displacement") -> "Displacement":
        return Displacement(self.rx + other.rx, self.ry + other.ry)

    def cross(self, other: "Displacement") -> float:
        """(self x other) . n with n = e_x cross e_y."""
        return self.rx * other.ry - self.ry * other.rx

    @property
    def length(self) -> float:
        return float(np.hypot(self.rx, self.ry))


@dataclass(frozen=True)
class PathPolyline:
    """Piecewise-linear guiding-center path starting at the origin."""

    vertices: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if len(self.vertices) < 2:
            raise ConfigError("a path needs at least two vertices")
        if self.vertices[0] != (0.0, 0.0):
            raise ConfigError(f"paths start at the origin (got {self.vertices[0]})")
        for i, (a, b) in enumerate(zip(self.vertices, self.vertices[1:]), start=1):
            if not np.isfinite(b).all():
                raise ConfigError(f"vertex {i} must be finite (got {b})")
            if a == b:
                raise ConfigError(f"consecutive vertices coincide at {a}")

    @classmethod
    def from_points(cls, points) -> "PathPolyline":
        return cls(tuple((float(p[0]), float(p[1])) for p in points))

    @property
    def segments(self) -> list[Displacement]:
        return [
            Displacement(b[0] - a[0], b[1] - a[1])
            for a, b in zip(self.vertices, self.vertices[1:])
        ]

    @property
    def net_displacement(self) -> Displacement:
        end = self.vertices[-1]
        return Displacement(end[0], end[1])

    @property
    def total_length(self) -> float:
        return float(sum(seg.length for seg in self.segments))

    def swept_area(self) -> float:
        """Oriented area between the path and its closure back to the origin.

        Shoelace formula over the vertices with the implicit closing
        segment; exact for polylines, counterclockwise positive.
        """
        v = np.asarray(self.vertices)
        x, y = v[:, 0], v[:, 1]
        # closing terms vanish because the path starts at the origin
        return float(0.5 * np.sum(x[:-1] * y[1:] - x[1:] * y[:-1]))

    def refined(self, factor: int) -> "PathPolyline":
        """Subdivide every segment into `factor` equal pieces."""
        pts = []
        for a, b in zip(self.vertices, self.vertices[1:]):
            for k in range(factor):
                t = k / factor
                pts.append((a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])))
        pts.append(self.vertices[-1])
        return PathPolyline.from_points(pts)


def translate_x(psi: Wavefunction, rx: float, cfg: PhysicsConfig) -> Wavefunction:
    """Magnetic translation around the cylinder by rx.

    Exact on the grid: integer-cell shifts are index rolls and the flux
    phase is a single complex factor.  A full loop rx = l multiplies the
    state by exp(i q phi / hbar c) and nothing else.
    """
    grid = psi.grid
    flux_phase = np.exp(1j * cfg.q * rx * cfg.phi0 / (cfg.hbar * grid.l * cfg.c))
    offset_phase = np.exp(-2j * np.pi * psi.mode_offset * rx / grid.l)

    cells = rx / grid.dx
    nearest = round(cells)
    if abs(cells - nearest) < _CELL_SNAP * max(1.0, abs(cells)):
        u = np.roll(psi.amplitudes, nearest, axis=0)
    else:
        # spectral shift of the periodic reduced function; angles are kept
        # in [0, 1) turns so large rx does not degrade the phase accuracy
        turns = np.mod(grid.mode_numbers * (rx / grid.l), 1.0)
        u = np.fft.ifft(np.fft.fft(psi.amplitudes, axis=0) * np.exp(-2j * np.pi * turns)[:, None], axis=0)
    return psi.with_amplitudes(u * (flux_phase * offset_phase))


def translate_y(psi: Wavefunction, ry: float, cfg: PhysicsConfig) -> Wavefunction:
    """Magnetic translation along the axis by ry.

    Spectral y shift of every mode profile followed by the gauge phase
    exp(-i q B ry x / hbar c).  The phase is quantized (offset preserving)
    iff B l ry is an integer number of flux quanta; then the mode index
    ladder shifts by that integer.  The axis is infinite but the window is
    not, and the grid's shift is periodic: probability that the shift
    carries across the window's seam, or leaves at its edge cells, raises
    TruncationError (core.check_window), instead of a state wrapped to the
    other end of the window.
    """
    grid = psi.grid
    cells = ry / grid.dy
    nearest = round(cells)
    if abs(cells - nearest) < _CELL_SNAP * max(1.0, abs(cells)):
        u = np.roll(psi.amplitudes, nearest, axis=1)
    else:
        u = np.fft.ifft(np.fft.fft(psi.amplitudes, axis=1) * np.exp(-1j * grid.ky * ry)[None, :], axis=1)
    check_window(u, grid, f"the state translated by ry = {ry:g}", ry)
    shifted = psi.with_amplitudes(u)
    return shifted.multiply_phase_linear_x(-cfg.q * cfg.B * ry / (cfg.hbar * cfg.c))


def compose_phase(r1: Displacement, r2: Displacement, cfg: PhysicsConfig) -> float:
    """Phase of M(r2) M(r1) relative to M(r1 + r2): -(qB / 2 hbar c) (r1 x r2) . n."""
    return -cfg.q * cfg.B * r1.cross(r2) / (2.0 * cfg.hbar * cfg.c)


def apply_displacement(psi: Wavefunction, disp: Displacement, cfg: PhysicsConfig) -> Wavefunction:
    """Mixed magnetic translation M(disp) = exp(-(i/hbar) P . disp).

    Implemented as the x translation followed by the y translation with the
    composition phase folded in, which reproduces the generator form
    exactly (the commutator of the two generators is the c-number
    i q B rx ry / hbar c).
    """
    out = translate_x(psi, disp.rx, cfg)
    out = translate_y(out, disp.ry, cfg)
    corr = np.exp(0.5j * cfg.q * cfg.B * disp.rx * disp.ry / (cfg.hbar * cfg.c))
    return out * corr


@dataclass(frozen=True, eq=False)
class TranslationResult:
    """Net translation of a path plus the separated geometric phase factor.

    state:             M(path.net_displacement) applied to the input
    accumulated_phase: -(q / hbar c) B S, S the path's oriented swept area;
                       the ordered product of segment translations equals
                       exp(i accumulated_phase) applied to `state`
    """

    state: Wavefunction
    accumulated_phase: float


def path_ordered_translation(
    psi: Wavefunction, path: PathPolyline, cfg: PhysicsConfig
) -> TranslationResult:
    """Ordered product of magnetic translations along a polyline.

    The segment phases telescope, so the result is computed in closed form:
    one net translation and the c-number phase -(q / hbar c) B S.  The
    telescoping is verified operationally by sequential_translation, which
    this function must agree with to near machine precision.
    """
    state = apply_displacement(psi, path.net_displacement, cfg)
    phase = -cfg.q * cfg.B * path.swept_area() / (cfg.hbar * cfg.c)
    return TranslationResult(state=state, accumulated_phase=phase)


def sequential_translation(
    psi: Wavefunction, path: PathPolyline, cfg: PhysicsConfig
) -> tuple[Wavefunction, float]:
    """Apply the path segment by segment, accumulating composition phases.

    Independent code path used to cross-check path_ordered_translation.
    The returned state is the literal ordered operator product (composition
    phases and all); the returned float is the phase predicted by summing
    the pairwise composition identity along the way.  Consistency demands
    state = exp(i phase) M(net) psi with phase = -(q / hbar c) B S.
    Every segment's y shift is judged by translate_y's window rule, so a
    vertex that leaves the window, or a segment that carries the state
    across its seam, raises TruncationError even when the endpoints and
    the net translation fit.
    """
    state = psi
    reached = Displacement(0.0, 0.0)
    phase = 0.0
    for seg in path.segments:
        state = apply_displacement(state, seg, cfg)
        phase += compose_phase(reached, seg, cfg)
        reached = reached + seg
    return state, phase
