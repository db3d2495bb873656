"""Drive protocols: in-surface electric fields and the drift they produce.

A protocol moves the guiding center along a polyline path in displacement
space, or holds it still.  The in-plane field follows from the drift,

    E_x = -(B/c) dR_y/dt,      E_y = (B/c) dR_x/dt,

and Faraday's law ties the threading flux to the axial drift,
phi(t) = phi(0) + l B R_y(t).  Each segment is traversed in time
proportional to its length with a sin^2 velocity turn-on/turn-off over a
fraction of the segment duration (default 0.1), so the velocity vanishes
at corners and the fields are continuous.  Drift, velocity, field and
drift action all have closed forms.  Sampling evaluates only the segments
that act on the asked times: a segment that has not started contributes an
exact zero, and one that has ended contributes its cached final progress,
which are the bits the full formulas give there, so every output is
bit-identical to summing all segments; that halves evolve_tdse's drive
sampling (six oracle-benchmark drives at dt = 5e-4, 2-core host:
0.07-0.09 s against 0.15-0.18 s).  _flux_and_ey samples flux and E_y at
one time in float arithmetic by the same formulas, for evolve_oracle's
right-hand side, which calls it thousands of times per drive;
tests/test_drive.py holds it to 2 ulp of the array formulas on random
drives.  Between consecutive breakpoints() (segment starts and ramp ends)
every field is smooth, so evolve_tdse and evolve_oracle never step across
one.  A protocol holds no time grid: its optional dt only splits
evolve_tdse's steps, which are exact at any length, so no experiment sets it.

The drift kinetic action

    (m / 2 hbar) integral |Rdot|^2 dtau

is the leading finite-duration phase bias of cyclic drives: the residual
evolution factor that adiabatic factorization leaves behind is a pure
displacement times exp(i times this action), so experiments subtract it
along with the eigenstate dynamical phase.  It scales like 1/T and is
bounded below by (m L^2 / 2 hbar T) for any drive covering length L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional

import numpy as np

from .core import ConfigError, PhysicsConfig
from .magtrans import Displacement, PathPolyline

__all__ = ["SegmentSchedule", "DriveProtocol", "drift_displacement"]

KINK_GAP = 1e-12  # times closer than KINK_GAP * T are one breakpoint; no slot is that short


def _ramp_progress_raw(tau: np.ndarray, Ts: float, Tr: float) -> np.ndarray:
    """Integral of the raw sin^2 ramp profile; total over [0, Ts] is Ts - Tr."""
    tau = np.clip(tau, 0.0, Ts)
    if Tr == 0.0:
        return tau
    head = np.minimum(tau, Tr)
    out = head / 2.0 - (Tr / (2.0 * np.pi)) * np.sin(np.pi * head / Tr)
    out = out + np.clip(tau - Tr, 0.0, Ts - 2.0 * Tr)
    tail = np.clip(tau - (Ts - Tr), 0.0, Tr)
    # symmetric tail: integral of sin^2(pi (Tr - s) / 2 Tr) from 0 to tail,
    # written via sin(pi - x) = sin(x) so it vanishes exactly at tail = 0
    out = out + tail / 2.0 + (Tr / (2.0 * np.pi)) * np.sin(np.pi * tail / Tr)
    return out


def _ramp_velocity_raw(tau: np.ndarray, Ts: float, Tr: float) -> np.ndarray:
    tau = np.asarray(tau, dtype=float)
    if Tr == 0.0:
        return np.where((tau >= 0.0) & (tau <= Ts), 1.0, 0.0)
    out = np.ones_like(tau)
    out = np.where(tau < Tr, np.sin(np.pi * np.clip(tau, 0, Tr) / (2.0 * Tr)) ** 2, out)
    out = np.where(
        tau > Ts - Tr, np.sin(np.pi * np.clip(Ts - tau, 0, Tr) / (2.0 * Tr)) ** 2, out
    )
    return np.where((tau < 0.0) | (tau > Ts), 0.0, out)


def _ramp_progress_float(tau: float, Ts: float, Tr: float) -> float:
    """_ramp_progress_raw at one tau in [0, Ts], in the same operations."""
    if Tr == 0.0:
        return tau
    head = min(tau, Tr)
    out = head / 2.0 - (Tr / (2.0 * math.pi)) * math.sin(math.pi * head / Tr)
    out = out + min(max(tau - Tr, 0.0), Ts - 2.0 * Tr)
    tail = min(max(tau - (Ts - Tr), 0.0), Tr)
    return out + tail / 2.0 + (Tr / (2.0 * math.pi)) * math.sin(math.pi * tail / Tr)


def _ramp_velocity_float(tau: float, Ts: float, Tr: float) -> float:
    """_ramp_velocity_raw at one tau in [0, Ts], in the same operations."""
    if Tr == 0.0:
        return 1.0
    if tau > Ts - Tr:
        s = math.sin(math.pi * min(max(Ts - tau, 0.0), Tr) / (2.0 * Tr))
    elif tau < Tr:
        s = math.sin(math.pi * min(max(tau, 0.0), Tr) / (2.0 * Tr))
    else:
        return 1.0
    return s * s


@dataclass(frozen=True)
class SegmentSchedule:
    """One polyline segment with its time slot and ramp."""

    t_start: float
    duration: float
    delta: Displacement
    ramp_time: float

    def progress(self, t: np.ndarray) -> np.ndarray:
        """Fraction of the segment covered by time t, in [0, 1]."""
        raw = _ramp_progress_raw(np.asarray(t, float) - self.t_start, self.duration, self.ramp_time)
        return raw / (self.duration - self.ramp_time)

    def speed_weight(self, t: np.ndarray) -> np.ndarray:
        """d(progress)/dt."""
        raw = _ramp_velocity_raw(np.asarray(t, float) - self.t_start, self.duration, self.ramp_time)
        return raw / (self.duration - self.ramp_time)

    @cached_property
    def done(self) -> np.float64:
        """progress(t) for every t past the segment's end (progress clips tau to duration)."""
        raw = _ramp_progress_raw(np.float64(self.duration), self.duration, self.ramp_time)
        return raw / (self.duration - self.ramp_time)

    @property
    def squared_weight_integral(self) -> float:
        """integral of speed_weight^2 over the slot: (Ts - 1.25 Tr) / (Ts - Tr)^2."""
        return (self.duration - 1.25 * self.ramp_time) / (self.duration - self.ramp_time) ** 2


@dataclass(frozen=True, eq=False)
class DriveProtocol:
    """A complete drive: a scheduled polyline path, or no drive at all.

    from_path builds every driven protocol; DriveProtocol(cfg=cfg, T=T)
    is no drive at all (path is None and segments is empty).  dt is the
    largest step evolve_tdse may take, or None for its own grid; any
    positive value is valid, and none changes a result beyond rounding.
    """

    cfg: PhysicsConfig
    T: float
    dt: Optional[float] = None
    path: Optional[PathPolyline] = None
    segments: tuple[SegmentSchedule, ...] = ()

    def __post_init__(self) -> None:
        if not (math.isfinite(self.T) and self.T > 0.0):
            raise ConfigError(f"protocol duration must be positive and finite (got {self.T})")
        if self.dt is not None and self.dt <= 0.0:
            raise ConfigError(f"dt must be positive (got {self.dt})")
        for i, seg in enumerate(self.segments):
            if not seg.duration > KINK_GAP * self.T:
                raise ConfigError(f"segment {i} ({seg.delta}) has a time slot of "
                                  f"{seg.duration!r}, not longer than {KINK_GAP:g} T")

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_path(
        cls,
        cfg: PhysicsConfig,
        path: PathPolyline,
        T: float,
        dt: Optional[float] = None,
        ramp_fraction: float = 0.1,
    ) -> "DriveProtocol":
        """Traverse `path` in total time T, slots proportional to length."""
        if not 0.0 <= ramp_fraction <= 0.5:
            raise ConfigError(f"ramp_fraction must be in [0, 0.5] (got {ramp_fraction})")
        total = path.total_length
        if total == 0.0:
            raise ConfigError("path has zero length")
        segments = []
        t0 = 0.0
        for seg in path.segments:
            duration = T * seg.length / total
            segments.append(
                SegmentSchedule(
                    t_start=t0,
                    duration=duration,
                    delta=seg,
                    ramp_time=ramp_fraction * duration,
                )
            )
            t0 += duration
        return cls(cfg=cfg, T=T, dt=dt, path=path, segments=tuple(segments))

    # -- kinematics -------------------------------------------------------

    def breakpoints(self) -> np.ndarray:
        """Times where the drive's second derivative may jump, sorted, from 0 to T.

        0, T, every segment start and every ramp end.  A point within
        KINK_GAP * T of the one before it, or of T, marks the same kink (a
        ramp end at ramp fraction 0 is its segment's start or end, and the
        last segment ends within rounding of T), so no interval is shorter
        than that; every segment is longer, so each starts a new interval.
        """
        times = [0.0, self.T]
        for seg in self.segments:
            times += [
                seg.t_start,
                seg.t_start + seg.ramp_time,
                seg.t_start + seg.duration - seg.ramp_time,
            ]
        times = np.sort(times)  # not np.unique, which loads numpy.ma; the gap test drops repeats
        gap = KINK_GAP * self.T
        inner = times[(times > gap) & (times < self.T - gap)]
        inner = inner[np.diff(inner, prepend=0.0) > gap]
        return np.concatenate(([0.0], inner, [self.T]))

    def _acting(self, t: np.ndarray) -> Iterator[tuple[SegmentSchedule, bool]]:
        """Segments started by max(t), each flagged if min(t) is past its end.

        The comparisons are strict: at tau = 0 and tau = duration the formulas
        still give their own bits (a ramp-free velocity is 1 there).
        """
        if t.size == 0:
            return
        lo, hi = t.min(), t.max()
        for seg in self.segments:
            if hi < seg.t_start:  # segments are in time order; the rest give exact zeros
                return
            yield seg, lo - seg.t_start > seg.duration

    def displacement(self, t) -> tuple[np.ndarray, np.ndarray]:
        """Guiding-center drift (R_x, R_y) at time(s) t."""
        t = np.asarray(t, dtype=float)
        rx = np.zeros_like(t)
        ry = np.zeros_like(t)
        for seg, ended in self._acting(t):
            f = seg.done if ended else seg.progress(t)
            rx = rx + seg.delta.rx * f
            ry = ry + seg.delta.ry * f
        return rx, ry

    def velocity(self, t) -> tuple[np.ndarray, np.ndarray]:
        t = np.asarray(t, dtype=float)
        vx = np.zeros_like(t)
        vy = np.zeros_like(t)
        for seg, ended in self._acting(t):
            if ended:  # the weight is exactly 0 past the end
                continue
            w = seg.speed_weight(t)
            vx = vx + seg.delta.rx * w
            vy = vy + seg.delta.ry * w
        return vx, vy

    def _flux_and_ey(self, t: float) -> tuple[float, float]:
        """(flux(t), efield(t)[1]) at one float time, in float arithmetic.

        The segments are visited as in _acting and summed in the same order
        with the same formulas, so E_y keeps its bits and the flux moves by
        at most an ulp where math.sin and np.sin round apart.
        """
        ry = vx = 0.0
        for seg in self.segments:
            if t < seg.t_start:
                break
            tau = t - seg.t_start
            Ts, Tr = seg.duration, seg.ramp_time
            if tau > Ts:
                ry = ry + seg.delta.ry * float(seg.done)
                continue
            ry = ry + seg.delta.ry * (_ramp_progress_float(tau, Ts, Tr) / (Ts - Tr))
            vx = vx + seg.delta.rx * (_ramp_velocity_float(tau, Ts, Tr) / (Ts - Tr))
        cfg = self.cfg
        return cfg.phi0 + cfg.l * cfg.B * ry, cfg.B / cfg.c * vx

    def efield(self, t) -> tuple[np.ndarray, np.ndarray]:
        """(E_x, E_y) at time(s) t."""
        vx, vy = self.velocity(t)
        scale = self.cfg.B / self.cfg.c
        return -scale * vy, scale * vx

    def flux(self, t) -> np.ndarray:
        """Threading flux phi(t) = phi0 + l B R_y(t); phi(0) = phi0 exactly."""
        _, ry = self.displacement(t)
        return self.cfg.phi0 + self.cfg.l * self.cfg.B * ry

    def drift_action(self) -> float:
        """(m / 2 hbar) integral |Rdot|^2 dt, the drift kinetic action (closed form)."""
        pref = self.cfg.m / (2.0 * self.cfg.hbar)
        return pref * sum(
            seg.delta.length**2 * seg.squared_weight_integral for seg in self.segments
        )


def drift_displacement(protocol: DriveProtocol, t: float) -> Displacement:
    """Drift displacement at time t by direct quadrature of the fields.

    Independent of the closed forms inside DriveProtocol (those are cross
    checked against this in the test suite).  Relative accuracy ~1e-10.
    """
    from scipy import integrate  # imported here so the package starts on numpy alone

    if not 0.0 <= t <= protocol.T * (1.0 + 1e-12):
        raise ConfigError(f"t = {t} outside the protocol window [0, {protocol.T}]")
    scale = protocol.cfg.c / protocol.cfg.B

    def ey(tau):
        return protocol.efield(tau)[1]

    def ex(tau):
        return protocol.efield(tau)[0]

    breaks = [s.t_start for s in protocol.segments if 0.0 < s.t_start < t] or None
    rx, _ = integrate.quad(ey, 0.0, t, epsabs=1e-13, epsrel=1e-11, limit=400, points=breaks)
    ry, _ = integrate.quad(ex, 0.0, t, epsabs=1e-13, epsrel=1e-11, limit=400, points=breaks)
    return Displacement(scale * rx, -scale * ry)
