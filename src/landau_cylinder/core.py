"""Geometry, field configuration, and wavefunctions on the cylinder.

The configuration space is a cylinder of circumference ``l``: the x
coordinate is periodic, y runs along the axis and is truncated to a finite
window for numerics.  A uniform magnetic field B is normal to the surface
and a flux ``phi`` threads the hollow.  We work in the gauge

    A_x = -B y + phi(t) / l,      A_y = 0,

so the Hamiltonian is translation invariant in x at all times and the
x momentum quantum number is conserved.

States are stored by x mode: the (mode, y) profiles chi_j(y) of a
ModeStack together with a fractional mode offset theta in [0, 1).  The
physical wave is

    Psi(x, y) = exp(2 pi i theta x / l) u(x, y),
    u(x, y) = sum_j chi_j(y) exp(2 pi i j x / l) / sqrt(l),

single valued iff theta = 0.  Quasi-periodic intermediates (theta != 0)
appear when a linear-in-x phase with non-quantized slope is applied, e.g.
inside y translations that do not satisfy the flux quantization condition.
The plane-wave content of Psi lives at wavevectors kappa_j = 2 pi (j +
theta) / l with integer j in the grid's Nyquist range.  p_x is conserved,
so every propagator and translation acts row by row and nothing transforms
a stored state along x: the reduced amplitudes u(x, y) are a view computed
on each read (Wavefunction.amplitudes), and a state built from them
(Wavefunction(grid, u, theta)) is transformed once, at construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "ConfigError",
    "GridMismatchError",
    "ModeOffsetMismatchError",
    "TruncationError",
    "NonCyclicEvolutionError",
    "PhysicsConfig",
    "CylinderGrid",
    "Wavefunction",
    "ModeStack",
    "inner_product",
    "wrap_angle",
]

BOUNDARY_CELLS = 4
TRUNCATION_THRESHOLD = 1e-10
# mode rows holding at most this fraction of a state's probability are
# neither propagated nor transformed back to y for a window check
OCCUPATION_THRESHOLD = 1e-14

# Linear-x phases whose slope is within this of a quantized value are
# snapped onto it, so quantized translations return exactly theta = 0
# instead of theta = 1 - 1e-16.
_OFFSET_SNAP = 1e-12


class ConfigError(ValueError):
    """Invalid physics or grid configuration."""


class GridMismatchError(ValueError):
    """Binary operation on wavefunctions living on different grids."""


class ModeOffsetMismatchError(ValueError):
    """Binary operation on wavefunctions with different mode offsets."""


class TruncationError(RuntimeError):
    """Probability mass reached the truncated y boundary."""


class NonCyclicEvolutionError(RuntimeError):
    """Return fidelity too low for a meaningful cyclic-phase readout."""


def wrap_angle(angle: float) -> float:
    """Wrap an angle to the interval (-pi, pi]."""
    wrapped = float(np.remainder(angle, 2.0 * np.pi))
    return wrapped - 2.0 * np.pi if wrapped > np.pi else wrapped


def check_window(
    prof: np.ndarray, grid: CylinderGrid, where: str, shift: float = 0.0, skipped: float = 0.0
) -> float:
    """Total probability of the (row, y) profiles prof plus `skipped`, in grid units.

    The one window rule, for every y shift and every built state: in the y
    marginal of prof, the BOUNDARY_CELLS cells at each y edge and the cells
    that a periodic shift of every row by `shift` carried across the
    window's seam may hold at most TRUNCATION_THRESHOLD of the probability.
    Otherwise, or if there is no probability (or NaN), raises
    TruncationError naming `where`.  `skipped` is the probability of rows
    left out of prof; it counts as edge probability and as seam
    probability both, so leaving rows out never passes a state that the
    whole profile stack would fail.
    """
    w = (np.abs(prof) ** 2).sum(axis=0)
    total = float(w.sum()) + skipped
    source = grid.y - shift
    crossed = (source < grid.y_min) | (source >= grid.y_max)
    edge = w[:BOUNDARY_CELLS].sum() + w[-BOUNDARY_CELLS:].sum() + skipped
    seam = w.sum(where=crossed) + skipped
    if not total > 0.0 or edge / total + seam / total > TRUNCATION_THRESHOLD:
        raise TruncationError(f"probability reached the y boundary in {where}; widen the y window")
    return total


def split_linear_phase(theta: float, alpha: float, l: float) -> tuple[int, float]:
    """Mode shift m and offset theta' with exp(i alpha x) exp(2 pi i theta x / l)
    = exp(2 pi i m x / l) exp(2 pi i theta' x / l) on a circumference l.

    When alpha l / (2 pi) is an integer (a quantized phase) theta' is
    exactly theta.  exp(2 pi i m x / l) maps mode j to j + m.
    """
    shift = alpha * l / (2.0 * np.pi)
    nearest = round(shift)
    if abs(shift - nearest) < _OFFSET_SNAP:
        return nearest, theta
    s = theta + shift
    # accumulated offsets can land a rounding error away from an integer;
    # the whole integer must go into the mode shift, or the constructor's
    # offset fold would silently change the state
    r = round(s)
    if abs(s - r) < _OFFSET_SNAP:
        return int(r), 0.0
    m = int(np.floor(s))
    return m, s - m


@dataclass(frozen=True)
class PhysicsConfig:
    """Physical constants and background fields.

    Parameters
    ----------
    hbar, q, m, c : float
        Planck constant, charge, mass, speed of light.  All positive;
        Gaussian-units factors of c are kept explicit.
    B : float
        Magnetic field normal to the cylinder surface, positive.
    phi0 : float
        Flux threading the hollow at t = 0 (any real value).
    l : float
        Circumference of the cylinder.
    """

    hbar: float = 1.0
    q: float = 1.0
    m: float = 1.0
    c: float = 1.0
    B: float = 1.0
    phi0: float = 0.0
    l: float = 2.0 * np.pi

    def __post_init__(self) -> None:
        for name in ("hbar", "q", "m", "c", "B", "l"):
            value = getattr(self, name)
            if not np.isfinite(value) or value <= 0.0:
                raise ConfigError(f"{name} must be positive (got {value!r})")
        if not np.isfinite(self.phi0):
            raise ConfigError(f"phi0 must be finite (got {self.phi0!r})")

    @property
    def omega(self) -> float:
        """Cyclotron frequency q B / (m c)."""
        return self.q * self.B / (self.m * self.c)

    @property
    def flux_quantum(self) -> float:
        """h c / q."""
        return 2.0 * np.pi * self.hbar * self.c / self.q

    @property
    def translation_step(self) -> float:
        """y displacement quantum h c / (q B l).

        Magnetic y translations are single-valued operators only for
        integer multiples of this step; it also equals the spacing of
        adjacent mode centers.
        """
        return self.flux_quantum / (self.B * self.l)

    def flux_phase(self, phi: float) -> float:
        """Phase q phi / (hbar c) acquired per full loop around the cylinder."""
        return self.q * phi / (self.hbar * self.c)

    @classmethod
    def reference(cls, phi0: float = 0.0) -> "PhysicsConfig":
        """Reference geometry: hbar = q = m = c = B = 1 and l = 2 pi."""
        return cls(phi0=phi0)


@dataclass(frozen=True)
class CylinderGrid:
    """Uniform grid: periodic in x, truncated in y.

    Nx and Ny must be powers of two (everything downstream is FFT based).
    The y window must be wide enough that states of interest keep their
    probability away from its edges and its seam; see check_window.
    """

    Nx: int
    Ny: int
    y_min: float
    y_max: float
    l: float

    def __post_init__(self) -> None:
        for name in ("Nx", "Ny"):
            n = getattr(self, name)
            if not isinstance(n, (int, np.integer)) or n < 8 or (n & (n - 1)) != 0:
                raise ConfigError(f"{name} must be a power of two >= 8 (got {n})")
        for name in ("y_min", "y_max", "l"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite (got {value!r})")
        if not self.y_min < self.y_max:
            raise ConfigError(f"y_min must be below y_max (got {self.y_min}, {self.y_max})")
        # a width that overflows would make dy infinite
        if not math.isfinite(self.y_max - self.y_min):
            raise ConfigError(f"y_max - y_min must be finite (got {self.y_max - self.y_min!r})")
        if self.l <= 0:
            raise ConfigError(f"l must be positive (got {self.l})")

    @classmethod
    def for_config(
        cls,
        cfg: PhysicsConfig,
        Nx: int = 64,
        Ny: int = 512,
        y_min: float = -12.0,
        y_max: float = 12.0,
    ) -> "CylinderGrid":
        return cls(Nx=Nx, Ny=Ny, y_min=y_min, y_max=y_max, l=cfg.l)

    @property
    def dx(self) -> float:
        return self.l / self.Nx

    @property
    def dy(self) -> float:
        return (self.y_max - self.y_min) / self.Ny

    @cached_property
    def y(self) -> np.ndarray:
        return self.y_min + np.arange(self.Ny) * self.dy

    @cached_property
    def ky(self) -> np.ndarray:
        """Wavevectors conjugate to y, FFT ordering."""
        return 2.0 * np.pi * np.fft.fftfreq(self.Ny, d=self.dy)

    @cached_property
    def mode_numbers(self) -> np.ndarray:
        """Integer mode indices j in FFT ordering (0, 1, ..., -1)."""
        return np.rint(np.fft.fftfreq(self.Nx) * self.Nx).astype(int)

    def kappas(self, mode_offset: float) -> np.ndarray:
        """x wavevectors kappa_j = 2 pi (j + theta) / l, FFT ordering."""
        return 2.0 * np.pi * (self.mode_numbers + mode_offset) / self.l

    def mode_row(self, j: int) -> int:
        """Array row holding mode j; j must lie in the Nyquist range."""
        if not -self.Nx // 2 <= j < self.Nx // 2:
            raise ConfigError(f"mode index {j} outside Nyquist range of Nx={self.Nx}")
        return j % self.Nx


def _normalize_offset(theta: float) -> float:
    if not math.isfinite(theta):
        raise ConfigError(f"mode offset must be finite (got {theta})")
    theta = float(theta) % 1.0
    # offsets within rounding noise of an integer are exactly 0; callers
    # that add whole units must absorb them into the amplitudes first
    if 1.0 - theta < _OFFSET_SNAP or theta < _OFFSET_SNAP:
        return 0.0
    return theta


@dataclass(frozen=True, eq=False)
class ModeStack:
    """Per-mode axial profiles chi_j(y).

    Psi(x, y) = exp(2 pi i theta x / l) sum_j profiles[row(j)](y) e^{2 pi i j x / l} / sqrt(l)
              = sum_j chi_j(y) e^{i kappa_j x} / sqrt(l).

    Rows follow FFT ordering (grid.mode_numbers).  With this normalization
    sum_j \\int |chi_j|^2 dy equals the squared L2 norm of Psi.
    """

    grid: CylinderGrid
    profiles: np.ndarray
    mode_offset: float = 0.0

    def mode_norms_sq(self) -> np.ndarray:
        """Per-mode probability content, integral |chi_j|^2 dy."""
        return np.sum(np.abs(self.profiles) ** 2, axis=1) * self.grid.dy

    def occupied_rows(self, rel_threshold: float) -> np.ndarray:
        """Rows carrying more than rel_threshold of the total probability."""
        weights = self.mode_norms_sq()
        total = float(weights.sum())
        if total == 0.0:
            return np.array([], dtype=int)
        return np.nonzero(weights > rel_threshold * total)[0]


@dataclass(frozen=True, eq=False, init=False)
class Wavefunction:
    """State on the cylinder grid, stored as its mode stack: the (mode, y)
    profiles of ModeStack plus the mode offset.

    Wavefunction(grid, amplitudes, mode_offset) builds the state from
    reduced x-space amplitudes u(x, y) of shape (Nx, Ny) with one FFT
    along x; from_modes builds it from a stack with none.  `amplitudes`
    computes u back on every read.
    """

    grid: CylinderGrid
    profiles: np.ndarray
    mode_offset: float

    def __init__(self, grid: CylinderGrid, amplitudes: np.ndarray, mode_offset: float = 0.0):
        self._store(grid, np.fft.fft(amplitudes, axis=0) * (np.sqrt(grid.l) / grid.Nx), mode_offset)

    def _store(self, grid: CylinderGrid, profiles: np.ndarray, mode_offset: float) -> None:
        if profiles.shape != (grid.Nx, grid.Ny):
            raise ConfigError(
                f"state shape {profiles.shape} does not match grid ({grid.Nx}, {grid.Ny})"
            )
        # read-only: to_modes shares the array, so no reader may write into the state
        profiles = profiles.view()
        profiles.flags.writeable = False
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "profiles", profiles)
        object.__setattr__(self, "mode_offset", _normalize_offset(mode_offset))

    # -- construction and views ----------------------------------------

    @classmethod
    def from_modes(cls, stack: ModeStack) -> "Wavefunction":
        """The state of `stack`, sharing its array: no FFT."""
        psi = cls.__new__(cls)
        psi._store(stack.grid, stack.profiles, stack.mode_offset)
        return psi

    def to_modes(self) -> ModeStack:
        """The stored mode stack, sharing its array: no FFT."""
        return ModeStack(self.grid, self.profiles, self.mode_offset)

    @property
    def amplitudes(self) -> np.ndarray:
        """Reduced amplitudes u(x, y): one inverse FFT along x per read, not kept."""
        return np.fft.ifft(self.profiles, axis=0) * (self.grid.Nx / np.sqrt(self.grid.l))

    def _with_profiles(self, profiles: np.ndarray) -> "Wavefunction":
        return Wavefunction.from_modes(ModeStack(self.grid, profiles, self.mode_offset))

    # -- norms and arithmetic -----------------------------------------

    def norm_sq(self) -> float:
        return float(np.vdot(self.profiles, self.profiles).real * self.grid.dy)

    def norm(self) -> float:
        return float(np.sqrt(self.norm_sq()))

    def normalized(self) -> "Wavefunction":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero state")
        return self._with_profiles(self.profiles / n)

    def __mul__(self, scalar: complex) -> "Wavefunction":
        return self._with_profiles(self.profiles * scalar)

    __rmul__ = __mul__

    def __add__(self, other: "Wavefunction") -> "Wavefunction":
        _require_same_basis(self, other)
        return self._with_profiles(self.profiles + other.profiles)

    def __sub__(self, other: "Wavefunction") -> "Wavefunction":
        _require_same_basis(self, other)
        return self._with_profiles(self.profiles - other.profiles)

    # -- phases --------------------------------------------------------

    def multiply_phase_linear_x(self, alpha: float) -> "Wavefunction":
        """Multiply by exp(i alpha x), tracking the mode offset.

        The offset advances by alpha l / (2 pi) mod 1; the integer part m
        maps mode j to j + m, an exact roll of the rows.  When alpha l /
        (2 pi) is an integer (a quantized phase) the offset is returned
        exactly unchanged.
        """
        m, theta = split_linear_phase(self.mode_offset, alpha, self.grid.l)
        rolled = np.roll(self.profiles, m, axis=0)
        return Wavefunction.from_modes(ModeStack(self.grid, rolled, theta))


def _require_same_basis(a: Wavefunction, b: Wavefunction) -> None:
    if a.grid != b.grid:
        raise GridMismatchError("wavefunctions live on different grids")
    # offsets reached by different arithmetic routes to the same displacement
    # differ in the last ulps; only a material mismatch is a sector error
    d = abs(a.mode_offset - b.mode_offset)
    if min(d, 1.0 - d) > 1e-9:
        raise ModeOffsetMismatchError(
            f"mode offsets differ ({a.mode_offset} vs {b.mode_offset}); "
            "inner products are defined between states of equal offset"
        )


def inner_product(a: Wavefunction, b: Wavefunction) -> complex:
    """<a|b> with the physicist convention (antilinear in the first slot)."""
    _require_same_basis(a, b)
    return complex(np.vdot(a.profiles, b.profiles) * a.grid.dy)
