import re

import numpy as np
import pytest

from landau_cylinder import ConfigError, DriveProtocol, PathPolyline, drift_displacement
from landau_cylinder.drive import MAX_DT_PER_CYCLOTRON, STEPS_PER_RAMP


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


def test_dt_snapped_to_divide_duration(cfg):
    proto = DriveProtocol.from_path(cfg, ab_path(cfg), T=10.0, dt=0.003)
    assert proto.n_steps * proto.dt == pytest.approx(10.0, rel=1e-15)
    assert proto.dt <= 0.003 * (1 + 1e-12)


def test_dt_capped_at_cyclotron_resolution(cfg):
    proto = DriveProtocol.from_path(cfg, ab_path(cfg), T=10.0, dt=0.5)
    assert proto.dt <= MAX_DT_PER_CYCLOTRON / cfg.omega * (1 + 1e-9)


def test_default_dt_resolves_shortest_ramp(cfg):
    cap = MAX_DT_PER_CYCLOTRON / cfg.omega
    # slow loop: ramps of 20 leave the cap in charge
    assert DriveProtocol.from_path(cfg, ab_path(cfg), T=200.0).dt == cap
    # fast drive: the short segment's ramp of 0.1 * 1.5 sets the step
    path = PathPolyline(((0.0, 0.0), (3.0, 0.0), (3.0, 1.0)))
    proto = DriveProtocol.from_path(cfg, path, T=6.0)
    assert proto.dt == pytest.approx(0.15 / STEPS_PER_RAMP, rel=1e-12)
    assert proto.n_steps * proto.dt == pytest.approx(6.0, rel=1e-15)
    # no ramps to resolve: the cap again
    assert DriveProtocol.from_path(cfg, path, T=6.0, ramp_fraction=0.0).dt == cap
    assert DriveProtocol.hold(cfg, T=6.0).dt == cap
    # an explicit dt is kept as given
    assert DriveProtocol.from_path(cfg, path, T=6.0, dt=0.01).dt == pytest.approx(0.01)


def test_dt_limit_message_names_the_cap(cfg):
    limit = MAX_DT_PER_CYCLOTRON / cfg.omega
    with pytest.raises(ConfigError, match=re.escape(f"= {MAX_DT_PER_CYCLOTRON:g}/omega")):
        DriveProtocol(cfg=cfg, T=1.0, dt=2.0 * limit, n_steps=1)


def test_steps_must_cover_duration(cfg):
    assert DriveProtocol(cfg=cfg, T=10.0, dt=0.05, n_steps=200).n_steps == 200
    for n in (3, 0):
        with pytest.raises(ConfigError, match="does not cover T"):
            DriveProtocol(cfg=cfg, T=10.0, dt=0.05, n_steps=n)


def test_invalid_inputs_raise(cfg):
    with pytest.raises(ConfigError):
        DriveProtocol.from_path(cfg, ab_path(cfg), T=10.0, dt=-0.1)
    with pytest.raises(ConfigError):
        DriveProtocol.from_path(cfg, ab_path(cfg), T=-5.0)
    with pytest.raises(ConfigError):
        DriveProtocol.from_path(cfg, ab_path(cfg), T=10.0, ramp_fraction=0.7)


def test_hold_protocol(cfg):
    proto = DriveProtocol.hold(cfg, T=5.0)
    rx, ry = proto.displacement(3.0)
    assert float(rx) == 0.0 and float(ry) == 0.0
    ex, ey = proto.efield(np.array([1.0, 2.0]))
    np.testing.assert_array_equal(ex, 0.0)
    np.testing.assert_array_equal(ey, 0.0)
    assert proto.drift_action() == 0.0
    assert proto.path is None
