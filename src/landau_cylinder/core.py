"""Geometry, field configuration, and wavefunctions on the cylinder.

The configuration space is a cylinder of circumference ``l``: the x
coordinate is periodic, y runs along the axis and is truncated to a finite
window for numerics.  A uniform magnetic field B is normal to the surface
and a flux ``phi`` threads the hollow.  We work in the gauge

    A_x = -B y + phi(t) / l,      A_y = 0,

so the Hamiltonian is translation invariant in x at all times and the
x momentum quantum number is conserved.

States are stored as a periodic reduced function u(x, y) together with a
fractional mode offset theta in [0, 1).  The physical wave is

    Psi(x, y) = exp(2 pi i theta x / l) u(x, y),

single valued iff theta = 0.  Quasi-periodic intermediates (theta != 0)
appear when a linear-in-x phase with non-quantized slope is applied, e.g.
inside y translations that do not satisfy the flux quantization condition.
The plane-wave content of Psi lives at wavevectors kappa_j = 2 pi (j +
theta) / l with integer j in the grid's Nyquist range.
"""

from __future__ import annotations

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
    "edge_fraction",
]

BOUNDARY_CELLS = 4
TRUNCATION_THRESHOLD = 1e-10

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


def edge_fraction(density: np.ndarray) -> float:
    """Fraction of a density array (y along the last axis) within BOUNDARY_CELLS of the y edges."""
    edge = density[..., :BOUNDARY_CELLS].sum() + density[..., -BOUNDARY_CELLS:].sum()
    total = density.sum()
    return float(edge / total) if total > 0.0 else 0.0


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
    def magnetic_length(self) -> float:
        """sqrt(hbar c / (q B))."""
        return float(np.sqrt(self.hbar * self.c / (self.q * self.B)))

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
    probability mass away from the edges; see Wavefunction.boundary_mass.
    """

    Nx: int
    Ny: int
    y_min: float
    y_max: float
    l: float

    def __post_init__(self) -> None:
        for name in ("Nx", "Ny"):
            n = getattr(self, name)
            if n < 8 or (n & (n - 1)) != 0:
                raise ConfigError(f"{name} must be a power of two >= 8 (got {n})")
        if not self.y_min < self.y_max:
            raise ConfigError(f"y_min must be below y_max (got {self.y_min}, {self.y_max})")
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
    def x(self) -> np.ndarray:
        return np.arange(self.Nx) * self.dx

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

    def occupied_rows(self, rel_threshold: float = 1e-14) -> np.ndarray:
        """Rows carrying more than rel_threshold of the total probability."""
        weights = self.mode_norms_sq()
        total = float(weights.sum())
        if total == 0.0:
            return np.array([], dtype=int)
        return np.nonzero(weights > rel_threshold * total)[0]


@dataclass(frozen=True, eq=False)
class Wavefunction:
    """State on the cylinder grid: reduced amplitudes plus mode offset."""

    grid: CylinderGrid
    amplitudes: np.ndarray
    mode_offset: float = 0.0

    def __post_init__(self) -> None:
        if self.amplitudes.shape != (self.grid.Nx, self.grid.Ny):
            raise ConfigError(
                f"amplitude shape {self.amplitudes.shape} does not match grid "
                f"({self.grid.Nx}, {self.grid.Ny})"
            )
        object.__setattr__(self, "mode_offset", _normalize_offset(self.mode_offset))

    # -- construction -------------------------------------------------

    @classmethod
    def from_modes(cls, stack: ModeStack) -> "Wavefunction":
        u = np.fft.ifft(stack.profiles, axis=0) * (stack.grid.Nx / np.sqrt(stack.grid.l))
        return cls(stack.grid, u, stack.mode_offset)

    def to_modes(self) -> ModeStack:
        profiles = np.fft.fft(self.amplitudes, axis=0) * (np.sqrt(self.grid.l) / self.grid.Nx)
        return ModeStack(self.grid, profiles, self.mode_offset)

    def with_amplitudes(self, amplitudes: np.ndarray) -> "Wavefunction":
        return Wavefunction(self.grid, amplitudes, self.mode_offset)

    # -- norms and overlaps -------------------------------------------

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2) * self.grid.dx * self.grid.dy)

    def norm(self) -> float:
        return float(np.sqrt(self.norm_sq()))

    def normalized(self) -> "Wavefunction":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero state")
        return self.with_amplitudes(self.amplitudes / n)

    # -- diagnostics ---------------------------------------------------

    def probability_density(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def boundary_mass(self) -> float:
        """Fraction of probability within BOUNDARY_CELLS grid cells of the y edges."""
        return edge_fraction(self.probability_density())

    def check_truncation(self) -> None:
        mass = self.boundary_mass()
        if mass > TRUNCATION_THRESHOLD:
            raise TruncationError(
                f"boundary probability mass {mass:.3e} exceeds {TRUNCATION_THRESHOLD:.1e}; "
                "widen the y window or shorten the drive"
            )

    def expectation_y(self) -> float:
        rho = self.probability_density()
        return float(np.sum(rho.sum(axis=0) * self.grid.y) / rho.sum())

    def x_centroid_angle(self) -> float:
        """Circular mean angle 2 pi <x> / l of the density, in (-pi, pi]."""
        rho = self.probability_density().sum(axis=1)
        c = np.sum(rho * np.exp(2j * np.pi * self.grid.x / self.grid.l))
        return float(np.angle(c))

    # -- phases --------------------------------------------------------

    def multiply_phase_linear_x(self, alpha: float) -> "Wavefunction":
        """Multiply by exp(i alpha x), tracking the mode offset.

        The offset advances by alpha l / (2 pi) mod 1; the integer part is
        an exact mode-index shift absorbed into the reduced amplitudes.
        When alpha l / (2 pi) is an integer (a quantized phase) the offset
        is returned exactly unchanged.
        """
        shift = alpha * self.grid.l / (2.0 * np.pi)
        nearest = round(shift)
        if abs(shift - nearest) < _OFFSET_SNAP:
            m, theta = nearest, self.mode_offset
        else:
            s = self.mode_offset + shift
            # accumulated offsets can land a rounding error away from an
            # integer; the whole integer must go into the mode shift, or the
            # constructor's offset fold would silently change the state
            r = round(s)
            if abs(s - r) < _OFFSET_SNAP:
                m, theta = int(r), 0.0
            else:
                m = int(np.floor(s))
                theta = s - m
        if m == 0:
            u = self.amplitudes * 1.0
        else:
            # exp(2 pi i m x / l) at x_i = i l / Nx: exact roots of unity
            angles = (m * np.arange(self.grid.Nx)) % self.grid.Nx
            phase = np.exp(2j * np.pi * angles / self.grid.Nx)
            u = self.amplitudes * phase[:, None]
        return Wavefunction(self.grid, u, theta)

    def __mul__(self, scalar: complex) -> "Wavefunction":
        return self.with_amplitudes(self.amplitudes * scalar)

    __rmul__ = __mul__


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
    return complex(np.vdot(a.amplitudes, b.amplitudes) * a.grid.dx * a.grid.dy)
