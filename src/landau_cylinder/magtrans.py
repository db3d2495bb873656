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

Every translation is applied in the (mode, k_y) basis, where each factor
is diagonal or a permutation: the x shift is a phase per mode row,
exp(-2 pi i mod(j R_x / l, 1)) times the flux and offset phases; the y
shift is a phase per k_y column, exp(-i k_y R_y); the gauge factor is a
roll of the rows by the integer part of its slope plus a new offset
(core.split_linear_phase, which Wavefunction.multiply_phase_linear_x
also uses).  States are stored by mode row, so a public call costs one
FFT along y each way and none along x; every vertex after that costs two
phase multiplies, a roll of the rows when the offset passes an integer,
and one inverse y FFT of the occupied rows for its window check.  That
check sees only the rows above OCCUPATION_THRESHOLD; the others'
probability counts as edge and as seam probability both, and a row can
put at most its own probability in either, so no verdict is looser than
one on every row.  On the benchmark's oracle drives (3 of 64 rows
occupied, 48 vertices), sequential_translation takes 6.9-7.3 ms per
drive, against 58 ms for x-space FFT pairs at every vertex (2-core Xeon,
numpy 2.4.6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (OCCUPATION_THRESHOLD, ConfigError, ModeStack, PhysicsConfig, Wavefunction,
                   check_window, split_linear_phase)

__all__ = [
    "Displacement",
    "PathPolyline",
    "apply_displacement",
    "compose_phase",
    "TranslationResult",
    "path_ordered_translation",
    "sequential_translation",
]

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
        total_sq = 0.0
        for i, (a, b) in enumerate(zip(self.vertices, self.vertices[1:]), start=1):
            if not np.isfinite(b).all():
                raise ConfigError(f"vertex {i} must be finite (got {b})")
            if a == b:
                raise ConfigError(f"consecutive vertices coincide at {a}")
            # the drive's action and time slots take the squared length
            dx, dy = float(b[0]) - float(a[0]), float(b[1]) - float(a[1])
            seg_sq = dx * dx + dy * dy
            if not math.isfinite(seg_sq):
                raise ConfigError(f"segment {i - 1} from {a} to {b} is too long: "
                                  "its squared length overflows")
            total_sq += seg_sq
        with np.errstate(over="ignore", invalid="ignore"):
            area = self.swept_area()
        if not (math.isfinite(total_sq) and math.isfinite(area)):
            raise ConfigError("the path is too large: its swept area or its summed "
                              "squared segment length overflows")

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


def _translate(psi: Wavefunction, segments, cfg: PhysicsConfig) -> Wavefunction:
    """The ordered product of M(seg) (apply_displacement) over segments,
    applied to psi in the (mode, k_y) basis.  Angles are kept in turns in
    [0, 1), so large shifts do not degrade them."""
    grid, l = psi.grid, psi.grid.l
    theta = psi.mode_offset
    spec = np.fft.fft(psi.profiles, axis=1)
    # in grid units, as check_window's total
    weights = psi.to_modes().mode_norms_sq() / grid.dy
    # the factors keep each row's probability and the roll moves it with
    # the row, so the rows that hold probability are found once
    occupied = weights > OCCUPATION_THRESHOLD * weights.sum()
    skipped = weights[~occupied].sum()
    for seg in segments:
        rx, ry = seg.rx, seg.ry
        # x: row j gets exp(-2 pi i mod(j rx / l, 1)), every row the flux,
        # composition and offset phases
        turns = np.mod(grid.mode_numbers * (rx / l), 1.0)
        phase = 0.5 * cfg.q * cfg.B * rx * ry / (cfg.hbar * cfg.c)
        scalar = np.exp(1j * (cfg.q * rx * cfg.phi0 / (cfg.hbar * l * cfg.c) + phase))
        scalar *= np.exp(-2j * np.pi * theta * rx / l)
        spec *= (np.exp(-2j * np.pi * turns) * scalar)[:, None]
        # y: column k_y gets exp(-i k_y ry)
        turns = np.mod(np.fft.fftfreq(grid.Ny) * (ry / grid.dy), 1.0)
        spec *= np.exp(-2j * np.pi * turns)
        check_window(np.fft.ifft(spec[occupied], axis=1), grid,
                     f"the state translated by ry = {ry:g}", ry, skipped=skipped)
        alpha = -cfg.q * cfg.B * ry / (cfg.hbar * cfg.c)
        m, theta = split_linear_phase(theta, alpha, l)
        if m:
            spec = np.roll(spec, m, axis=0)
            occupied = np.roll(occupied, m)
    return Wavefunction.from_modes(ModeStack(grid, np.fft.ifft(spec, axis=1), theta))


def compose_phase(r1: Displacement, r2: Displacement, cfg: PhysicsConfig) -> float:
    """Phase of M(r2) M(r1) relative to M(r1 + r2): -(qB / 2 hbar c) (r1 x r2) . n."""
    return -cfg.q * cfg.B * r1.cross(r2) / (2.0 * cfg.hbar * cfg.c)


def apply_displacement(psi: Wavefunction, disp: Displacement, cfg: PhysicsConfig) -> Wavefunction:
    """Magnetic translation M(disp) = exp(-(i/hbar) P . disp).

    The x shift by rx times the composition phase q B rx ry / 2 hbar c,
    then the y shift by ry, then the gauge factor exp(-i q B ry x / hbar c);
    that reproduces the generator form exactly, since the two generators
    commute to the c-number i q B rx ry / hbar c.  A full loop
    disp = (l, 0) multiplies the state by exp(i q phi / hbar c) and nothing
    else; a y shift by an integer number of translation steps relabels the
    modes and keeps the offset.  The axis is infinite but the window is
    not, and the grid's y shift is periodic: every translation, x-only ones
    included, is judged by the window rule (core.check_window), so
    probability at the window's edge cells, or carried across its seam,
    raises TruncationError instead of a state wrapped to the other end.
    """
    return _translate(psi, (disp,), cfg)


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

    Used to cross-check path_ordered_translation's closed form.  The
    returned state is the literal ordered operator product (composition
    phases and all); the returned float is the phase predicted by summing
    the pairwise composition identity along the way.  Consistency demands
    state = exp(i phase) M(net) psi with phase = -(q / hbar c) B S.
    Every segment is judged by apply_displacement's window rule, so a
    vertex that leaves the window, or a segment that carries the state
    across its seam, raises TruncationError even when the endpoints and
    the net translation fit.
    """
    segments = path.segments
    reached = Displacement(0.0, 0.0)
    phase = 0.0
    for seg in segments:
        phase += compose_phase(reached, seg, cfg)
        reached = reached + seg
    return _translate(psi, segments, cfg), phase
