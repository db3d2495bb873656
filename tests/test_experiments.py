from dataclasses import replace

import numpy as np
import pytest

from landau_cylinder import (
    NonCyclicEvolutionError,
    PathPolyline,
    berry_phase,
    experiments,
    landau_eigenstate,
    landau_energy,
    wrap_angle,
)
from landau_cylinder.experiments import (
    ExperimentResult,
    ab_loop_spec,
    adiabatic_study,
    fig1_loop_spec,
    flux_sweep,
    rectangle_loop_spec,
    run_loop,
)


# --- berry_phase readout -----------------------------------------------


def test_berry_phase_recovers_injected_phase(cfg, grid):
    psi0 = landau_eigenstate(cfg, grid, 0, 0)
    gamma, E, T = 0.7, landau_energy(cfg, 0), 3.0
    psi_T = psi0 * np.exp(1j * (gamma - E * T / cfg.hbar))
    phase, fidelity = berry_phase(psi0, psi_T, E, T, cfg)
    assert phase == pytest.approx(gamma, abs=1e-13)
    assert fidelity == pytest.approx(1.0, abs=1e-13)


def test_berry_phase_gate(cfg, grid):
    psi0 = landau_eigenstate(cfg, grid, 0, 0)
    other = landau_eigenstate(cfg, grid, 0, 1)  # near-orthogonal return state
    with pytest.raises(NonCyclicEvolutionError):
        berry_phase(psi0, other, 0.5, 1.0, cfg)
    # bypassed gate must not raise, and reports the fidelity it let through
    assert berry_phase(psi0, other, 0.5, 1.0, cfg, min_fidelity=0.0)[1] < 0.99


# --- loop geometry builders ----------------------------------------------


def test_ab_loop_geometry(cfg):
    spec = ab_loop_spec(cfg, T=100.0, winding=2)
    assert spec.path.vertices == ((0.0, 0.0), (2 * cfg.l, 0.0))
    assert spec.path.swept_area() == 0.0


def test_rectangle_loop_geometry(cfg):
    spec = rectangle_loop_spec(cfg, height=0.5, T=100.0)
    assert spec.path.net_displacement.rx == pytest.approx(cfg.l)
    assert spec.path.net_displacement.ry == 0.0
    assert spec.path.swept_area() == pytest.approx(-np.pi, abs=1e-12)


def test_fig1_variants(cfg):
    blue = fig1_loop_spec(cfg, "blue", phi_B=np.pi / 2, T=10.0)
    green = fig1_loop_spec(cfg, "green", phi_B=np.pi / 2, T=10.0)
    # both wind once; excursion areas are opposite
    assert blue.path.net_displacement.rx == pytest.approx(cfg.l)
    assert green.path.net_displacement.rx == pytest.approx(cfg.l)
    assert blue.path.swept_area() == pytest.approx(np.pi / 2 / cfg.B, abs=1e-12)
    assert green.path.swept_area() == pytest.approx(-np.pi / 2 / cfg.B, abs=1e-12)
    with pytest.raises(ValueError):
        fig1_loop_spec(cfg, "purple", phi_B=1.0, T=10.0)
    with pytest.raises(ValueError):
        fig1_loop_spec(cfg, "blue", phi_B=-1.0, T=10.0)


def test_run_loop_rejects_open_path(cfg, grid):
    from landau_cylinder.experiments import LoopSpec

    open_spec = LoopSpec("bad", PathPolyline(((0.0, 0.0), (1.0, 1.0))), T=10.0)
    with pytest.raises(ValueError):
        run_loop(cfg, grid, open_spec)


# --- quick transport runs --------------------------------------------------


def run_ab_quick(cfg, grid):
    return run_loop(replace(cfg, phi0=np.pi / 2), grid, ab_loop_spec(cfg, T=50.0))


def test_ab_loop_quick(cfg, grid):
    res = run_ab_quick(cfg, grid)
    assert res.gamma_predicted == pytest.approx(np.pi / 2, abs=1e-14)
    assert abs(wrap_angle(res.gamma_measured - res.gamma_predicted)) < 5e-3
    assert res.fidelity > 0.998
    assert res.norm_drift < 1e-11
    # bookkeeping identities
    assert res.gamma_measured == pytest.approx(
        wrap_angle(res.gamma_raw - res.drift_action), abs=1e-14
    )
    assert res.dynamical_phase == pytest.approx(
        landau_energy(cfg, 0) * 50.0 / cfg.hbar, rel=1e-14
    )
    assert res.phi_B == 0.0
    assert res.enclosed_flux_total == pytest.approx(np.pi / 2)
    assert res.kind == "ab_loop"


def test_drift_action_subtraction_improves_readout(cfg, grid):
    res = run_ab_quick(cfg, grid)
    raw_err = abs(wrap_angle(res.gamma_raw - res.gamma_predicted))
    corrected_err = abs(wrap_angle(res.gamma_measured - res.gamma_predicted))
    assert raw_err > 0.3  # the finite-duration bias is not small
    assert corrected_err < raw_err / 50


def mirrored(spec):
    return replace(spec, path=PathPolyline(tuple((-x, -y) for x, y in spec.path.vertices)))


@pytest.mark.parametrize(
    "loop", ["winding_25", "winding_200", "rectangle", "fig1_blue", "fig1_green"]
)
@pytest.mark.parametrize("phi", [np.pi / 2, 1.0])
def test_mirrored_loop_isolates_winding_phase(cfg, grid, loop, phi):
    # every phase but the winding Aharonov-Bohm one is even in the drive R,
    # so a loop and its mirror -R differ by exactly 2 q w phi / hbar c, at
    # any speed; this judges the integrator without a reference solution
    cfg = replace(cfg, phi0=phi)
    spec = {
        "winding_25": lambda: ab_loop_spec(cfg, T=25.0),
        "winding_200": lambda: ab_loop_spec(cfg, T=200.0),
        "rectangle": lambda: rectangle_loop_spec(cfg, 0.5, T=200.0),
        "fig1_blue": lambda: fig1_loop_spec(cfg, "blue", np.pi / 2, T=200.0),
        "fig1_green": lambda: fig1_loop_spec(cfg, "green", 1.0, T=50.0),
    }[loop]()
    winding = round(spec.path.net_displacement.rx / cfg.l)
    there, back = (
        run_loop(cfg, grid, s, min_fidelity=0.0).gamma_raw for s in (spec, mirrored(spec))
    )
    odd = wrap_angle(there - back - 2.0 * cfg.q * winding * phi / (cfg.hbar * cfg.c))
    assert abs(odd) <= 1e-12


def test_csv_row_order():
    res = ExperimentResult(
        kind="ab_loop", phi=1.0, phi_B=2.0, n=0, j=0, T=3.0,
        gamma_measured=4.0, gamma_predicted=5.0, gamma_raw=6.0,
        dynamical_phase=7.0, drift_action=8.0, fidelity=9.0,
        enclosed_flux_total=10.0, norm_drift=11.0,
    )
    assert ExperimentResult.CSV_COLUMNS == (
        "phi", "phi_B", "gamma_measured", "gamma_predicted", "fidelity", "T", "n", "kind",
    )
    assert res.csv_row() == (1.0, 2.0, 4.0, 5.0, 9.0, 3.0, 0, "ab_loop")


# --- sweeps and studies -------------------------------------------------------


def test_flux_sweep_slope(cfg, grid):
    phis = np.linspace(0.0, 2 * np.pi, 5)
    sw = flux_sweep(cfg, grid, ab_loop_spec(cfg, T=25.0), phis, min_fidelity=0.0)
    assert [r.phi for r in sw.rows] == list(phis)
    assert sw.slope == pytest.approx(1.0, abs=1e-6)
    assert all(r.gamma_unwrapped is not None for r in sw.rows)


def test_flux_sweep_records_row_failures(cfg, grid):
    phis = [0.0, np.pi]
    # the gate cannot pass
    sw = flux_sweep(cfg, grid, ab_loop_spec(cfg, T=25.0), phis, min_fidelity=1.0)
    assert all(r.error is not None for r in sw.rows)
    assert np.isnan(sw.slope)


def test_flux_sweep_propagates_unexpected_errors(cfg, grid, monkeypatch):
    def broken(*args, **kwargs):
        raise ZeroDivisionError("bug in the stepper")

    monkeypatch.setattr(experiments, "evolve_tdse", broken)
    with pytest.raises(ZeroDivisionError):
        flux_sweep(cfg, grid, ab_loop_spec(cfg, T=25.0), [0.0, np.pi])


def test_adiabatic_study_quick(cfg, grid):
    rows = adiabatic_study(cfg, grid, ab_loop_spec(cfg, T=25.0), [25.0, 50.0])
    assert rows[1].gamma_error < rows[0].gamma_error
    assert rows[1].infidelity < rows[0].infidelity
    assert rows[1].discrepancy_norm < rows[0].discrepancy_norm
    # raw readout is dominated by the drift action, corrected one is not
    for row in rows:
        assert row.gamma_raw_error > 10 * row.gamma_error
