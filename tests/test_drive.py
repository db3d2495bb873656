import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from landau_cylinder import ConfigError, DriveProtocol, PathPolyline, drift_displacement


def ab_path(cfg):
    return PathPolyline(((0.0, 0.0), (cfg.l, 0.0)))


# --- schedules ----------------------------------------------------------


def test_progress_endpoints(cfg):
    proto = DriveProtocol.from_path(cfg, ab_path(cfg), T=100.0)
    (seg,) = proto.segments
    assert seg.progress(0.0) == 0.0
    assert seg.progress(100.0) == pytest.approx(1.0, abs=1e-14)
    assert seg.speed_weight(0.0) == 0.0
    assert seg.speed_weight(100.0) == pytest.approx(0.0, abs=1e-14)


def test_progress_plateau_linear(cfg):
    proto = DriveProtocol.from_path(cfg, ab_path(cfg), T=100.0, ramp_fraction=0.1)
    (seg,) = proto.segments
    # inside the plateau the rate is constant 1/(Ts - Tr)
    mid = np.array([30.0, 50.0, 70.0])
    np.testing.assert_allclose(seg.speed_weight(mid), 1.0 / 90.0, rtol=1e-13)


def test_squared_weight_integral_frozen(cfg):
    # (Ts - 1.25 Tr) / (Ts - Tr)^2 at Ts=200, Tr=20: 175/32400
    proto = DriveProtocol.from_path(cfg, ab_path(cfg), T=200.0, ramp_fraction=0.1)
    (seg,) = proto.segments
    assert seg.squared_weight_integral == pytest.approx(175.0 / 32400.0, rel=1e-14)


def test_squared_weight_integral_matches_quadrature(cfg):
    from scipy.integrate import quad

    proto = DriveProtocol.from_path(cfg, ab_path(cfg), T=80.0, ramp_fraction=0.25)
    (seg,) = proto.segments
    val, _ = quad(lambda t: seg.speed_weight(t) ** 2, 0.0, 80.0, limit=200)
    assert seg.squared_weight_integral == pytest.approx(val, rel=1e-9)


# --- protocol kinematics -------------------------------------------------


def test_displacement_endpoints(cfg):
    path = PathPolyline(((0.0, 0.0), (1.0, 0.5), (2.0, -0.25)))
    proto = DriveProtocol.from_path(cfg, path, T=60.0)
    rx0, ry0 = proto.displacement(0.0)
    assert rx0 == 0.0 and ry0 == 0.0
    rxT, ryT = proto.displacement(60.0)
    assert float(rxT) == pytest.approx(2.0, abs=1e-12)
    assert float(ryT) == pytest.approx(-0.25, abs=1e-12)


def test_flux_tracks_axial_drift(cfg):
    path = PathPolyline(((0.0, 0.0), (0.0, 0.8)))
    proto = DriveProtocol.from_path(cfg, path, T=40.0)
    t = 23.0
    _, ry = proto.displacement(t)
    assert proto.flux(t) == pytest.approx(cfg.phi0 + cfg.l * cfg.B * float(ry), rel=1e-13)


def test_efield_from_velocity(cfg):
    # E_x = -(B/c) dRy/dt, E_y = +(B/c) dRx/dt; check against finite differences
    path = PathPolyline(((0.0, 0.0), (1.2, -0.7)))
    proto = DriveProtocol.from_path(cfg, path, T=30.0)
    t, h = 11.0, 1e-6
    rxp, ryp = proto.displacement(t + h)
    rxm, rym = proto.displacement(t - h)
    ex, ey = proto.efield(t)
    assert float(ex) == pytest.approx(-cfg.B / cfg.c * float(ryp - rym) / (2 * h), abs=1e-7)
    assert float(ey) == pytest.approx(cfg.B / cfg.c * float(rxp - rxm) / (2 * h), abs=1e-7)


def test_displacement_vs_quadrature(cfg):
    path = PathPolyline(((0.0, 0.0), (0.6, 0.3), (0.0, 0.9), (0.0, 0.0)))
    proto = DriveProtocol.from_path(cfg, path, T=12.0)
    for t in (2.3, 6.0, 11.1):
        rx, ry = proto.displacement(t)
        d = drift_displacement(proto, t)
        assert float(rx) == pytest.approx(d.rx, abs=1e-9)
        assert float(ry) == pytest.approx(d.ry, abs=1e-9)


def test_drift_displacement_rejects_outside_window(cfg):
    proto = DriveProtocol.from_path(cfg, ab_path(cfg), T=10.0)
    with pytest.raises(ConfigError):
        drift_displacement(proto, 10.5)


def test_drift_action_frozen(cfg):
    # (m / 2 hbar) l^2 (Ts - 1.25 Tr)/(Ts - Tr)^2 at T=200: frozen
    proto = DriveProtocol.from_path(cfg, ab_path(cfg), T=200.0)
    assert proto.drift_action() == pytest.approx(0.10661609692534801, rel=1e-12)


def test_drift_action_matches_quadrature(cfg):
    from scipy.integrate import quad

    path = PathPolyline(((0.0, 0.0), (0.5, 0.5), (1.5, 0.0)))
    proto = DriveProtocol.from_path(cfg, path, T=50.0)

    def speed_sq(t):
        vx, vy = proto.velocity(t)
        return float(vx) ** 2 + float(vy) ** 2

    pieces = [s.t_start for s in proto.segments if 0.0 < s.t_start < 50.0]
    val = 0.0
    edges = [0.0] + pieces + [50.0]
    for a, b in zip(edges[:-1], edges[1:]):
        v, _ = quad(speed_sq, a, b, limit=200)
        val += v
    assert proto.drift_action() == pytest.approx(cfg.m / (2 * cfg.hbar) * val, rel=1e-8)


def test_multi_segment_time_allocation(cfg):
    # slots are proportional to segment length
    path = PathPolyline(((0.0, 0.0), (3.0, 0.0), (3.0, 1.0)))
    proto = DriveProtocol.from_path(cfg, path, T=40.0)
    durations = [s.duration for s in proto.segments]
    assert durations[0] == pytest.approx(30.0)
    assert durations[1] == pytest.approx(10.0)
    assert proto.segments[1].t_start == pytest.approx(30.0)


# --- validation and stepping -----------------------------------------------


def test_requested_dt_is_kept(cfg):
    # a protocol holds the largest step asked for, unchanged; evolve_tdse's
    # own grid (tested in test_propagator) decides the steps
    path = PathPolyline(((0.0, 0.0), (3.0, 0.0), (3.0, 1.0)))
    assert DriveProtocol.from_path(cfg, path, T=6.0).dt is None
    assert DriveProtocol(cfg=cfg, T=6.0).dt is None
    for dt in (0.003, 0.5, 50.0):
        assert DriveProtocol.from_path(cfg, path, T=6.0, dt=dt).dt == dt
        assert DriveProtocol(cfg=cfg, T=6.0, dt=dt).dt == dt
    for dt in (0.0, -0.1):
        with pytest.raises(ConfigError, match="dt must be positive"):
            DriveProtocol(cfg=cfg, T=10.0, dt=dt)


def test_invalid_inputs_raise(cfg):
    with pytest.raises(ConfigError):
        DriveProtocol.from_path(cfg, ab_path(cfg), T=10.0, dt=-0.1)
    with pytest.raises(ConfigError):
        DriveProtocol.from_path(cfg, ab_path(cfg), T=-5.0)
    with pytest.raises(ConfigError):
        DriveProtocol.from_path(cfg, ab_path(cfg), T=10.0, ramp_fraction=0.7)
    for T in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="positive and finite"):
            DriveProtocol(cfg=cfg, T=T)
        with pytest.raises(ConfigError, match="positive and finite"):
            DriveProtocol.from_path(cfg, ab_path(cfg), T=T)
    # slots that round to zero (5e-324: NaN fields), whose square underflows
    # (1e-300: a zero division in drift_action), or that breakpoints() merges
    # into a neighbour (1e-13 at T = 0.1)
    for short in (5e-324, 1e-300, 1e-13):
        path = PathPolyline(((0.0, 0.0), (short, 0.0), (1.0, 0.0)))
        with pytest.raises(ConfigError, match="segment 0"):
            DriveProtocol.from_path(cfg, path, T=0.1)


def test_hold_protocol(cfg):
    proto = DriveProtocol(cfg=cfg, T=5.0)
    rx, ry = proto.displacement(3.0)
    assert float(rx) == 0.0 and float(ry) == 0.0
    ex, ey = proto.efield(np.array([1.0, 2.0]))
    np.testing.assert_array_equal(ex, 0.0)
    np.testing.assert_array_equal(ey, 0.0)
    assert proto.drift_action() == 0.0
    assert proto.path is None
    assert proto.breakpoints().tolist() == [0.0, 5.0]


# --- breakpoints -------------------------------------------------------------


def test_breakpoints_are_segment_starts_and_ramp_ends(cfg):
    # slots of 30 and 10, ramps of 3 and 1
    path = PathPolyline(((0.0, 0.0), (3.0, 0.0), (3.0, 1.0)))
    proto = DriveProtocol.from_path(cfg, path, T=40.0)
    np.testing.assert_allclose(
        proto.breakpoints(), [0.0, 3.0, 27.0, 30.0, 31.0, 39.0, 40.0], rtol=1e-14
    )


@pytest.mark.parametrize("ramp_fraction", [0.0, 1e-14, 0.1, 0.5])
def test_breakpoints_have_no_near_duplicates(cfg, ramp_fraction):
    # at ramp fraction 0 every ramp end is a segment start or end, and the
    # last segment ends within rounding of T; at 0.5 the two ramps of a
    # segment meet in its middle
    path = PathPolyline(((0.0, 0.0), (0.3, 0.1), (0.2, -0.7), (-0.1, 0.3), (0.0, 0.0)))
    T = 7.3
    proto = DriveProtocol.from_path(cfg, path, T=T, ramp_fraction=ramp_fraction)
    times = proto.breakpoints()
    assert times[0] == 0.0 and times[-1] == T
    assert np.all(np.diff(times) > 1e-12 * T)
    # every kink is within that distance of a breakpoint
    for seg in proto.segments:
        for t in (seg.t_start, seg.t_start + seg.ramp_time,
                  seg.t_start + seg.duration - seg.ramp_time):
            assert np.min(np.abs(times - t)) <= 1e-12 * T
    n_kinks = {0.0: 1, 1e-14: 1, 0.1: 3, 0.5: 2}[ramp_fraction]
    assert times.size == n_kinks * len(proto.segments) + 1


# --- segment-local sampling ------------------------------------------------


def all_segments_kinematics(proto, t):
    """Plain reference: every segment's progress and weight summed at every t."""
    t = np.asarray(t, dtype=float)
    rx, ry, vx, vy = (np.zeros_like(t) for _ in range(4))
    for seg in proto.segments:
        f = seg.progress(t)
        w = seg.speed_weight(t)
        rx = rx + seg.delta.rx * f
        ry = ry + seg.delta.ry * f
        vx = vx + seg.delta.rx * w
        vy = vy + seg.delta.ry * w
    scale = proto.cfg.B / proto.cfg.c
    return {
        "displacement": (rx, ry),
        "velocity": (vx, vy),
        "efield": (-scale * vy, scale * vx),
        "flux": (proto.cfg.phi0 + proto.cfg.l * proto.cfg.B * ry,),
    }


def sampled_kinematics(proto, t):
    return {
        "displacement": proto.displacement(t),
        "velocity": proto.velocity(t),
        "efield": proto.efield(t),
        "flux": (proto.flux(t),),
    }


@pytest.mark.parametrize("ramp_fraction", [0.0, 0.1, 0.5])
@pytest.mark.parametrize("n_segments", [1, 4])
def test_segment_local_sampling_is_bitwise(cfg, ramp_fraction, n_segments):
    # byte equality, so the sign of a zero counts too
    if n_segments == 1:
        path = ab_path(cfg)
    else:
        path = PathPolyline(((0.0, 0.0), (1.5, 0.5), (0.5, 1.5), (-0.5, 0.25), (0.0, 0.0)))
    T = 12.0
    proto = DriveProtocol.from_path(cfg, path, T=T, ramp_fraction=ramp_fraction)
    assert len(proto.segments) == n_segments
    rng = np.random.default_rng(20261019)

    edges = [0.0, T]
    for seg in proto.segments:
        edges += [seg.t_start, seg.t_start + seg.duration]
    scalars = list(edges) + [np.nextafter(e, d) for e in edges for d in (-np.inf, np.inf)]
    scalars += list(rng.uniform(-1.0, T + 1.0, 100))
    t_mid = (np.arange(2000) + 0.5) * (T / 2000)
    k = 2000 // 3
    # evolve_tdse samples a (step, node) array
    windows = [t_mid, t_mid.reshape(-1, 8), t_mid[k:k + 7], np.array([]), np.array([T + 0.5])]
    windows += [np.sort(rng.uniform(e - 0.05, e + 0.05, 5)) for e in edges]

    for t in scalars + windows:
        want = all_segments_kinematics(proto, t)
        got = sampled_kinematics(proto, t)
        for name, arrays in want.items():
            for a, b in zip(arrays, got[name]):
                b = np.asarray(b)
                assert b.dtype == a.dtype and b.shape == a.shape, (name, t)
                assert a.tobytes() == b.tobytes(), (name, t)


_steps = st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))


@given(
    steps=st.lists(_steps, min_size=1, max_size=5),
    ramp_fraction=st.sampled_from([0.0, 0.1, 0.5]),
    T=st.floats(0.1, 1000.0),
    phi0=st.floats(-5.0, 5.0),
    fractions=st.lists(st.floats(-0.1, 1.2), max_size=20),
)
@settings(max_examples=200, deadline=None)
def test_float_sampler_matches_array_formulas(cfg, steps, ramp_fraction, T, phi0, fractions):
    # evolve_oracle samples the drive through _flux_and_ey; it must give
    # flux and E_y as the array formulas do, to 2 ulp of max(1, |value|)
    pts = [(0.0, 0.0)]
    for dx, dy in steps:
        pts.append((pts[-1][0] + dx, pts[-1][1] + dy))
    # a segment too short for its slot to be resolved in T has no drive
    assume(all(math.dist(a, b) > 1e-3 for a, b in zip(pts, pts[1:])))
    proto = DriveProtocol.from_path(
        replace(cfg, phi0=phi0), PathPolyline(tuple(pts)), T=T, ramp_fraction=ramp_fraction
    )
    times = [f * T for f in fractions] + proto.breakpoints().tolist() + [0.0, T, 1.5 * T]
    for t in times:
        flux, ey = proto._flux_and_ey(t)
        for got, want in ((flux, float(proto.flux(t))), (ey, float(proto.efield(t)[1]))):
            assert abs(got - want) <= 2 * math.ulp(max(1.0, abs(want))), (t, got, want)
