"""Drive protocols: in-surface electric fields and the drift they produce.

A protocol moves the guiding center along a polyline path in displacement
space, or holds it still.  The in-plane field follows from the drift,

    E_x = -(B/c) dR_y/dt,      E_y = (B/c) dR_x/dt,

and Faraday's law ties the threading flux to the axial drift,
phi(t) = phi(0) + l B R_y(t).  Each segment is traversed in time
proportional to its length with a sin^2 velocity turn-on/turn-off over a
fraction of the segment duration (default 0.1), so the velocity vanishes
at corners and the fields are continuous.  Drift, velocity, field and
drift action all have closed forms.

The drift kinetic action

    (m / 2 hbar) integral |Rdot|^2 dtau

is the leading finite-duration phase bias of cyclic drives: the residual
evolution factor that adiabatic factorization leaves behind is a pure
displacement times exp(i times this action), so experiments subtract it
along with the eigenstate dynamical phase.  It scales like 1/T and is
bounded below by (m L^2 / 2 hbar T) for any drive covering length L.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import integrate

from .core import ConfigError, PhysicsConfig
from .magtrans import Displacement, PathPolyline

__all__ = ["SegmentSchedule", "DriveProtocol", "drift_displacement"]

# Largest step, in units of 1/omega.  The exact-oscillator step has no
# splitting bias, so dt only samples the drive.  Across dt in [0.01, 0.2]/omega
# (README, "Time step"), slow-loop phases move by < 3e-7 rad (ab loop,
# T = 200) and < 2e-5 rad (fig1 pair, T = 2000); 0.1 keeps a factor of 2
# below the largest step measured.
MAX_DT_PER_CYCLOTRON = 0.1

# The default step also resolves the shortest ramp in this many steps, so
# fast drives (ramps of a few hundredths) keep oracle-level accuracy.
STEPS_PER_RAMP = 100


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

    @property
    def squared_weight_integral(self) -> float:
        """integral of speed_weight^2 over the slot: (Ts - 1.25 Tr) / (Ts - Tr)^2."""
        return (self.duration - 1.25 * self.ramp_time) / (self.duration - self.ramp_time) ** 2


@dataclass(frozen=True, eq=False)
class DriveProtocol:
    """A complete drive: a scheduled polyline path, or no drive at all.

    Use the constructors: from_path (every loop and test drive) or hold
    (no drive; path is None and segments is empty).  Time stepping metadata
    lives here too: dt is snapped so that T is an integer number of steps
    (n_steps * dt = T is checked), and is capped at MAX_DT_PER_CYCLOTRON /
    omega.  When dt is not given it also resolves the shortest ramp in
    STEPS_PER_RAMP steps.
    """

    cfg: PhysicsConfig
    T: float
    dt: float
    n_steps: int
    ramp_fraction: float = 0.1
    path: Optional[PathPolyline] = None
    segments: tuple[SegmentSchedule, ...] = ()

    def __post_init__(self) -> None:
        if self.T <= 0.0:
            raise ConfigError(f"protocol duration must be positive (got {self.T})")
        limit = MAX_DT_PER_CYCLOTRON / self.cfg.omega
        if self.dt > limit * (1.0 + 1e-9):
            raise ConfigError(
                f"dt = {self.dt:.3e} exceeds the integrator resolution limit "
                f"{limit:.3e} = {MAX_DT_PER_CYCLOTRON:g}/omega"
            )
        if self.n_steps < 1 or abs(self.n_steps * self.dt - self.T) > 1e-9 * self.T:
            raise ConfigError(
                f"n_steps * dt = {self.n_steps} * {self.dt:.6e} does not cover T = {self.T}"
            )
        if not 0.0 <= self.ramp_fraction <= 0.5:
            raise ConfigError(f"ramp_fraction must be in [0, 0.5] (got {self.ramp_fraction})")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def _steps_for(
        cfg: PhysicsConfig,
        T: float,
        dt: Optional[float],
        segments: tuple[SegmentSchedule, ...] = (),
    ) -> tuple[float, int]:
        limit = MAX_DT_PER_CYCLOTRON / cfg.omega
        if dt is not None and dt <= 0.0:
            raise ConfigError(f"dt must be positive (got {dt})")
        if dt is None:
            ramps = [s.ramp_time / STEPS_PER_RAMP for s in segments if s.ramp_time > 0.0]
            target = min([limit] + ramps)
        else:
            target = min(dt, limit)
        n = max(1, int(np.ceil(T / target - 1e-12)))
        return T / n, n

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
        segments = tuple(segments)
        step, n = cls._steps_for(cfg, T, dt, segments)
        return cls(
            cfg=cfg, T=T, dt=step, n_steps=n, ramp_fraction=ramp_fraction,
            path=path, segments=segments,
        )

    @classmethod
    def hold(cls, cfg: PhysicsConfig, T: float, dt: Optional[float] = None) -> "DriveProtocol":
        """No drive: constant flux, stationary Hamiltonian."""
        step, n = cls._steps_for(cfg, T, dt)
        return cls(cfg=cfg, T=T, dt=step, n_steps=n)

    # -- kinematics -------------------------------------------------------

    def displacement(self, t) -> tuple[np.ndarray, np.ndarray]:
        """Guiding-center drift (R_x, R_y) at time(s) t."""
        t = np.asarray(t, dtype=float)
        rx = np.zeros_like(t)
        ry = np.zeros_like(t)
        for seg in self.segments:
            f = seg.progress(t)
            rx = rx + seg.delta.rx * f
            ry = ry + seg.delta.ry * f
        return rx, ry

    def velocity(self, t) -> tuple[np.ndarray, np.ndarray]:
        t = np.asarray(t, dtype=float)
        vx = np.zeros_like(t)
        vy = np.zeros_like(t)
        for seg in self.segments:
            w = seg.speed_weight(t)
            vx = vx + seg.delta.rx * w
            vy = vy + seg.delta.ry * w
        return vx, vy

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
