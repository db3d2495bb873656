import inspect
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from landau_cylinder import CylinderGrid, DriveProtocol, LoopSpec
from landau_cylinder.cli import (
    _BOUNDS,
    DEFAULT_CONFIG,
    build_grid,
    build_physics,
    main,
    resolve_config,
)
from landau_cylinder.core import ConfigError
from landau_cylinder.experiments import DEFAULT_FIDELITY_GATE
from landau_cylinder import verify
from landau_cylinder.verify import CHECKS, Check


QUICK = {
    "experiment": {"T": 25.0, "min_fidelity": 0.0},
    "sweep": {"phi_min": 0.0, "phi_max": 3.141592653589793, "num": 3},
    "study": {"T_values": [25.0]},
    "eigen": {"n_max": 1, "j_max": 1},
}


def write_config(tmp_path, payload):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(payload))
    return p


def test_oracle_and_drift_checks_run_without_scipy():
    # scipy is a test dependency only: with it unimportable, the CLI starts
    # and the two rows that integrate the drive outside evolve_tdse pass
    src = str(Path(__file__).resolve().parents[1] / "src")
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "import landau_cylinder.cli\n"
        "from landau_cylinder.verify import CHECKS\n"
        "for c in CHECKS:\n"
        "    if c.name in ('oracle_equivalence', 'drift_quadrature'):\n"
        "        print(c.name, *c.run(c.full if c.quick is None else c.quick, c.seed))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    rows = out.stdout.splitlines()
    assert [row.split()[:2] for row in rows] == [
        ["oracle_equivalence", "True"], ["drift_quadrature", "True"]
    ], rows


# --- config resolution -------------------------------------------------


def test_defaults_resolve():
    conf = resolve_config({})
    assert conf["physics"]["B"] == 1.0
    assert conf["experiment"]["kind"] == "ab_loop"


def test_default_config_is_self_consistent():
    resolve_config(json.loads(json.dumps(DEFAULT_CONFIG)))


def test_cli_defaults_are_the_library_defaults():
    # verify, the acceptance gate and the benchmark build their grid with
    # CylinderGrid.for_config(cfg) and their loops with LoopSpec's and
    # from_path's defaults; the CLI's defaults must stand for the same numbers
    conf = resolve_config({})
    cfg = build_physics(conf)
    assert build_grid(conf, cfg) == CylinderGrid.for_config(cfg)
    e = conf["experiment"]
    assert e["min_fidelity"] == DEFAULT_FIDELITY_GATE
    spec = {f.name: f.default for f in fields(LoopSpec) if f.name in ("n", "j", "ramp_fraction")}
    assert {k: e[k] for k in spec} == spec
    ramp = inspect.signature(DriveProtocol.from_path).parameters["ramp_fraction"].default
    assert e["ramp_fraction"] == ramp


def test_missing_physics_key_is_named():
    phys = {k: v for k, v in DEFAULT_CONFIG["physics"].items() if k != "B"}
    with pytest.raises(ConfigError, match=r"physics\.B"):
        resolve_config({"physics": phys})


def test_unknown_keys_are_named():
    with pytest.raises(ConfigError, match=r"physics\.zeta"):
        resolve_config({"physics": {**DEFAULT_CONFIG["physics"], "zeta": 1.0}})
    with pytest.raises(ConfigError, match="unknown section"):
        resolve_config({"physic": {}})


def test_type_and_range_diagnostics():
    with pytest.raises(ConfigError, match=r"experiment\.T"):
        resolve_config({"experiment": {"T": -3.0}})
    with pytest.raises(ConfigError, match=r"experiment\.kind"):
        resolve_config({"experiment": {"kind": "mystery"}})
    with pytest.raises(ConfigError, match=r"grid\.Nx"):
        resolve_config({"grid": {**DEFAULT_CONFIG["grid"], "Nx": 64.5}})
    with pytest.raises(ConfigError, match=r"study\.T_values\[1\]"):
        resolve_config({"study": {"T_values": [10.0, -1.0]}})
    with pytest.raises(ConfigError, match=r"sweep\.num"):
        resolve_config({"sweep": {"num": 1}})
    with pytest.raises(ConfigError, match=r"eigen\.j_max"):
        resolve_config({"eigen": {"j_max": -1}})


_PHYS, _GRID = DEFAULT_CONFIG["physics"], DEFAULT_CONFIG["grid"]
_KINDS = "('ab_loop', 'general_loop', 'fig1')"

# one bad value per checked key, with the full message it must raise; each
# row names its own test id, so adding or removing a row renames no other
CONFIG_MESSAGES = [
    ("config root", [], "config root: expected an object, got list"),
    ("physic", {"physic": {}}, "physic: unknown section"),
    ("experiment", {"experiment": []}, "experiment: expected an object, got list"),
    ("experiment.zeta", {"experiment": {"zeta": 1.0}}, "experiment.zeta: unknown key"),
    ("physics.q0", {"physics": {"hbar": 1.0}}, "physics.q: required key missing"),
    ("grid.y_max0", {"grid": {"Nx": 64, "Ny": 512, "y_min": -12.0}},
     "grid.y_max: required key missing"),
    ("physics.hbar", {"physics": {**_PHYS, "hbar": "1"}},
     "physics.hbar: expected a number, got str"),
    ("physics.q1", {"physics": {**_PHYS, "q": float("inf")}}, "physics.q: must be finite"),
    ("physics.m", {"physics": {**_PHYS, "m": True}}, "physics.m: expected a number, got bool"),
    ("physics.c", {"physics": {**_PHYS, "c": None}}, "physics.c: required key missing or null"),
    ("physics.B", {"physics": {**_PHYS, "B": [1.0]}}, "physics.B: expected a number, got list"),
    ("physics.phi0", {"physics": {**_PHYS, "phi0": float("nan")}}, "physics.phi0: must be finite"),
    ("physics.l", {"physics": {**_PHYS, "l": {}}}, "physics.l: expected a number, got dict"),
    ("grid.Nx", {"grid": {**_GRID, "Nx": 64.5}}, "grid.Nx: expected an integer, got 64.5"),
    ("grid.Ny", {"grid": {**_GRID, "Ny": "512"}}, "grid.Ny: expected a number, got str"),
    ("grid.y_min0", {"grid": {**_GRID, "y_min": None}}, "grid.y_min: required key missing or null"),
    ("grid.y_max1", {"grid": {**_GRID, "y_max": float("-inf")}}, "grid.y_max: must be finite"),
    ("grid.y_min1", {"grid": {**_GRID, "y_min": 12.0}},
     "grid.y_min: must be strictly below grid.y_max"),
    ("experiment.kind0", {"experiment": {"kind": "mystery"}},
     f"experiment.kind: must be one of {_KINDS}"),
    ("experiment.kind1", {"experiment": {"kind": None}},
     f"experiment.kind: must be one of {_KINDS}"),
    ("experiment.kind2", {"experiment": {"kind": ["fig1"]}},
     f"experiment.kind: must be one of {_KINDS}"),
    ("experiment.T0", {"experiment": {"T": None}}, "experiment.T: required key missing or null"),
    ("experiment.T1", {"experiment": {"T": 0.0}}, "experiment.T: must be positive"),
    # a JSON integer of 401 digits, which no float can hold
    ("experiment.T2", {"experiment": {"T": 10**400}}, "experiment.T: must be finite"),
    ("experiment.dt", {"experiment": {"dt": 0.1}}, "experiment.dt: unknown key"),
    ("experiment.n", {"experiment": {"n": -1}}, "experiment.n: must be non-negative"),
    ("experiment.j", {"experiment": {"j": 0.5}}, "experiment.j: expected an integer, got 0.5"),
    ("experiment.ramp_fraction", {"experiment": {"ramp_fraction": 0.6}},
     "experiment.ramp_fraction: must lie in [0, 0.5]"),
    ("experiment.min_fidelity", {"experiment": {"min_fidelity": 1.5}},
     "experiment.min_fidelity: must lie in [0, 1]"),
    ("experiment.winding", {"experiment": {"winding": 0}},
     "experiment.winding: must be a nonzero integer"),
    ("experiment.height", {"experiment": {"height": [0.5]}},
     "experiment.height: expected a number, got list"),
    ("experiment.phi_B", {"experiment": {"phi_B": -0.1}}, "experiment.phi_B: must be non-negative"),
    ("sweep.phi_min0", {"sweep": {"phi_min": "0"}}, "sweep.phi_min: expected a number, got str"),
    ("sweep.phi_max", {"sweep": {"phi_max": None}}, "sweep.phi_max: required key missing or null"),
    ("sweep.num0", {"sweep": {"num": 2.5}}, "sweep.num: expected an integer, got 2.5"),
    ("sweep.num1", {"sweep": {"num": 1}}, "sweep.num: need at least two flux points"),
    ("sweep.phi_min1", {"sweep": {"phi_min": 1.0, "phi_max": 1.0}},
     "sweep.phi_min: must be strictly below sweep.phi_max"),
    ("study.T_values0", {"study": {"T_values": []}},
     "study.T_values: expected a non-empty list of durations"),
    ("study.T_values1", {"study": {"T_values": 100.0}},
     "study.T_values: expected a non-empty list of durations"),
    ("study.T_values2", {"study": {"T_values": None}},
     "study.T_values: expected a non-empty list of durations"),
    ("study.T_values[1]0", {"study": {"T_values": [10.0, "a"]}},
     "study.T_values[1]: expected a number, got str"),
    ("study.T_values[1]1", {"study": {"T_values": [10.0, 0.0]}},
     "study.T_values[1]: must be positive"),
    ("eigen.n_max", {"eigen": {"n_max": -1}}, "eigen.n_max: must be non-negative"),
    ("eigen.j_max", {"eigen": {"j_max": 1.5}}, "eigen.j_max: expected an integer, got 1.5"),
]


@pytest.mark.parametrize("raw, message", [row[1:] for row in CONFIG_MESSAGES],
                         ids=[row[0] for row in CONFIG_MESSAGES])
def test_config_error_messages(raw, message):
    with pytest.raises(ConfigError) as info:
        resolve_config(raw)
    assert str(info.value) == message


def test_every_bound_names_a_default_key():
    # a misspelt key would otherwise leave its value unbounded without notice
    for path in _BOUNDS:
        section, key = path.split(".")
        assert key in DEFAULT_CONFIG[section], path


def test_nonpositive_field_rejected_with_section():
    bad = {**DEFAULT_CONFIG["physics"], "B": -2.0}
    conf = resolve_config({"physics": bad})
    from landau_cylinder.cli import build_physics

    with pytest.raises(ConfigError, match="physics"):
        build_physics(conf)


# --- main() ----------------------------------------------------------------


def test_print_default_config(capsys):
    assert main(["--print-default-config"]) == 0
    out = capsys.readouterr().out
    assert resolve_config(json.loads(out))["physics"]["l"] == DEFAULT_CONFIG["physics"]["l"]


def test_no_command_shows_help(capsys):
    assert main([]) == 2


def test_missing_config_file(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "absent.json"), "eigen"]) == 2


def test_invalid_json_config(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["--config", str(p), "eigen"]) == 2


def test_resolve_error_exits_2_before_making_out(tmp_path, capsys):
    cfgfile = write_config(tmp_path, {"experiment": {"zeta": 1.0}})
    out = tmp_path / "out"
    assert main(["--config", str(cfgfile), "--out", str(out), "run"]) == 2
    assert capsys.readouterr().err == "error: experiment.zeta: unknown key\n"
    assert not out.exists()


def test_out_naming_a_file_exits_2(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    assert main(["--out", str(out), "eigen"]) == 2
    assert capsys.readouterr().err == f"error: --out: cannot create directory {out}: File exists\n"
    assert out.read_text() == "not a directory\n"
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]


def test_grid_build_error_exits_2(tmp_path, capsys):
    # the resolved config is well formed; CylinderGrid refuses it
    grid = {**DEFAULT_CONFIG["grid"], "Nx": 48}
    cfgfile = write_config(tmp_path, {"grid": grid})
    assert main(["--config", str(cfgfile), "--out", str(tmp_path / "out"), "run"]) == 2
    assert capsys.readouterr().err == "error: grid: Nx must be a power of two >= 8 (got 48)\n"


def test_eigen_output(tmp_path, capsys):
    cfgfile = write_config(tmp_path, QUICK)
    assert main(["--config", str(cfgfile), "--out", str(tmp_path), "eigen"]) == 0
    lines = (tmp_path / "eigen.csv").read_text().splitlines()
    assert lines[0].startswith("# config: ")
    embedded = json.loads(lines[0][len("# config: "):])
    assert embedded["physics"]["B"] == 1.0
    assert lines[1] == "n,j,kappa,y_center,energy,residual"
    rows = [line.split(",") for line in lines[2:]]
    # (n_max+1)(2 j_max+1) rows, ordered by (n, j), at E_n = hbar omega (n + 1/2)
    assert [(int(r[0]), int(r[1])) for r in rows] == [(n, j) for n in (0, 1) for j in (-1, 0, 1)]
    assert [float(r[4]) for r in rows] == [0.5] * 3 + [1.5] * 3


def test_run_deterministic(tmp_path, capsys):
    cfgfile = write_config(tmp_path, QUICK)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["--config", str(cfgfile), "--out", str(a), "run"]) == 0
    assert main(["--config", str(cfgfile), "--out", str(b), "run"]) == 0
    assert (a / "run.csv").read_bytes() == (b / "run.csv").read_bytes()
    assert (a / "run.json").read_bytes() == (b / "run.json").read_bytes()
    payload = json.loads((a / "run.json").read_text())
    assert payload["config"]["experiment"]["T"] == 25.0
    (result,) = payload["results"]
    assert result["kind"] == "ab_loop"
    assert abs(result["gamma_measured"] - result["gamma_predicted"]) < 0.1


def test_sweep_deterministic(tmp_path, capsys):
    cfgfile = write_config(tmp_path, QUICK)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["--config", str(cfgfile), "--out", str(a), "sweep"]) == 0
    assert main(["--config", str(cfgfile), "--out", str(b), "sweep"]) == 0
    assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()
    assert (a / "sweep.json").read_bytes() == (b / "sweep.json").read_bytes()


@pytest.mark.parametrize("experiment, error", [
    ({"T": 5.0, "min_fidelity": 0.9999}, "NonCyclicEvolutionError"),
    ({"kind": "general_loop", "height": 11.0, "T": 5.0}, "TruncationError"),
], ids=["noncyclic", "truncation"])
def test_run_physics_failure_exits_1(tmp_path, capsys, experiment, error):
    cfgfile = write_config(tmp_path, {"experiment": experiment})
    assert main(["--config", str(cfgfile), "--out", str(tmp_path), "run"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {error}: ")


def test_run_csv_column_order(tmp_path, capsys):
    cfgfile = write_config(tmp_path, QUICK)
    assert main(["--config", str(cfgfile), "--out", str(tmp_path), "run"]) == 0
    lines = (tmp_path / "run.csv").read_text().splitlines()
    assert lines[1] == "phi,phi_B,gamma_measured,gamma_predicted,fidelity,T,n,kind"
    cells = lines[2].split(",")
    assert cells[-1] == "ab_loop"
    # floats carry 17 significant digits and round-trip exactly
    assert float(cells[0]) == DEFAULT_CONFIG["physics"]["phi0"]


def test_sweep_output(tmp_path, capsys):
    cfgfile = write_config(tmp_path, QUICK)
    assert main(["--config", str(cfgfile), "--out", str(tmp_path), "sweep"]) == 0
    payload = json.loads((tmp_path / "sweep.json").read_text())
    assert abs(payload["slope"] - 1.0) < 1e-5
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(lines) == 2 + 3


def test_study_output(tmp_path, capsys):
    cfgfile = write_config(tmp_path, QUICK)
    assert main(["--config", str(cfgfile), "--out", str(tmp_path), "adiabatic-study"]) == 0
    lines = (tmp_path / "study.csv").read_text().splitlines()
    assert lines[1] == "T,gamma_error,infidelity,gamma_raw_error,discrepancy_norm"
    assert len(lines) == 3


def test_fig1_run_emits_both_rows(tmp_path, capsys):
    payload = dict(QUICK)
    payload["experiment"] = {"kind": "fig1", "T": 25.0, "phi_B": 0.5, "min_fidelity": 0.0}
    cfgfile = write_config(tmp_path, payload)
    assert main(["--config", str(cfgfile), "--out", str(tmp_path), "run"]) == 0
    results = json.loads((tmp_path / "run.json").read_text())["results"]
    assert [r["kind"] for r in results] == ["fig1_blue", "fig1_green"]
    assert results[0]["phi_B"] == pytest.approx(0.5)
    assert results[1]["phi_B"] == pytest.approx(-0.5)


def test_fig1_run_uses_ramp_fraction(tmp_path, capsys):
    actions = []
    for ramp in (0.1, 0.2):
        payload = dict(QUICK)
        payload["experiment"] = {"kind": "fig1", "T": 25.0, "phi_B": 0.5,
                                 "ramp_fraction": ramp, "min_fidelity": 0.0}
        out = tmp_path / str(ramp)
        out.mkdir()
        cfgfile = write_config(out, payload)
        assert main(["--config", str(cfgfile), "--out", str(out), "run"]) == 0
        results = json.loads((out / "run.json").read_text())["results"]
        actions.append([r["drift_action"] for r in results])
    # a longer ramp at the same T raises the drift action
    assert all(b > a for a, b in zip(*actions))


def test_sweep_uses_winding(tmp_path, capsys):
    payload = dict(QUICK)
    payload["experiment"] = {"T": 25.0, "winding": 2, "min_fidelity": 0.0}
    # flux step pi/4: the phase steps by pi/2, so it unwraps unambiguously
    payload["sweep"] = {"phi_min": 0.0, "phi_max": 3.141592653589793, "num": 5}
    cfgfile = write_config(tmp_path, payload)
    assert main(["--config", str(cfgfile), "--out", str(tmp_path), "sweep"]) == 0
    assert "(ideal 2.000000000)" in capsys.readouterr().out
    sweep = json.loads((tmp_path / "sweep.json").read_text())
    assert abs(sweep["slope"] - 2.0) < 1e-5
    assert all(r["enclosed_flux_total"] == pytest.approx(2 * r["phi"]) for r in sweep["rows"])
    # the study runs the same loop
    assert main(["--config", str(cfgfile), "--out", str(tmp_path), "adiabatic-study"]) == 0
    study = json.loads((tmp_path / "study.json").read_text())
    phi = study["config"]["physics"]["phi0"]
    assert all(r["result"]["enclosed_flux_total"] == pytest.approx(2 * phi) for r in study["rows"])


def test_run_all_checks_reports_a_raising_row_as_failed(monkeypatch):
    def broken(cfg, grid, rng):
        raise RuntimeError("broken row")

    def fine(cfg, grid, rng):
        return True, "fine"

    rows = (Check("broken", broken, full={}), Check("fine", fine, full={}))
    monkeypatch.setattr(verify, "CHECKS", rows)
    assert verify.run_all_checks(seed=0) == [
        ("broken", False, "RuntimeError: broken row"),
        ("fine", True, "fine"),
    ]


def test_verify_runs_every_quick_row(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["--out", str(a), "verify"]) == 0
    assert main(["--out", str(b), "--seed", "0", "verify"]) == 0
    checks = json.loads((a / "verify.json").read_text())["checks"]
    assert [c["name"] for c in checks] == [c.name for c in CHECKS]
    assert all(c["passed"] for c in checks)
    assert (a / "verify.json").read_bytes() == (b / "verify.json").read_bytes()
