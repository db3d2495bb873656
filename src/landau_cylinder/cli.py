"""Command-line front end; `_COMMANDS` lists the subcommands.

All outputs are deterministic for a fixed config and seed: files embed the
resolved config (never wall-clock data), floats are written with 17
significant digits.

Exit status: 0 on success; 1 on a physics failure (truncation or a
non-cyclic return), a failed sweep row or a failed check; 2 on a usage or
config error.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .core import (
    ConfigError,
    CylinderGrid,
    NonCyclicEvolutionError,
    PhysicsConfig,
    TruncationError,
    wrap_angle,
)
from .eigenstates import landau_eigenstate, landau_energy, mode_center
from .experiments import (
    ExperimentResult,
    LoopSpec,
    ab_loop_spec,
    adiabatic_study,
    flux_sweep,
    rectangle_loop_spec,
    run_fig1_comparison,
    run_loop,
)
from .propagator import apply_hamiltonian
from .verify import run_all_checks

__all__ = ["main", "DEFAULT_CONFIG", "resolve_config"]

DEFAULT_CONFIG = {
    "physics": {
        "hbar": 1.0,
        "q": 1.0,
        "m": 1.0,
        "c": 1.0,
        "B": 1.0,
        "phi0": math.pi / 2,
        "l": 2 * math.pi,
    },
    # CylinderGrid.for_config's defaults, so the CLI and the library share one grid
    "grid": {name: p.default
             for name, p in inspect.signature(CylinderGrid.for_config).parameters.items()
             if p.default is not p.empty},
    "experiment": {
        "kind": "ab_loop",
        "T": 200.0,
        "n": 0,
        "j": 0,
        "ramp_fraction": 0.1,
        "min_fidelity": 0.99,
        "winding": 1,
        "height": 0.5,
        "phi_B": math.pi / 2,
    },
    "sweep": {"phi_min": 0.0, "phi_max": 4 * math.pi, "num": 17},
    "study": {"T_values": [25.0, 50.0, 100.0, 200.0]},
    "eigen": {"n_max": 2, "j_max": 2},
}


def _schedule(conf: dict) -> dict:
    """The LoopSpec fields, beyond geometry and T, shared by every experiment kind."""
    e = conf["experiment"]
    return dict(n=e["n"], j=e["j"], ramp_fraction=e["ramp_fraction"])


def _ab_spec(conf: dict, cfg: PhysicsConfig) -> LoopSpec:
    e = conf["experiment"]
    return replace(ab_loop_spec(cfg, e["T"], winding=e["winding"]), **_schedule(conf))


def _run_ab(conf: dict, cfg: PhysicsConfig, grid: CylinderGrid):
    return [run_loop(cfg, grid, _ab_spec(conf, cfg), conf["experiment"]["min_fidelity"])]


def _run_rectangle(conf: dict, cfg: PhysicsConfig, grid: CylinderGrid):
    e = conf["experiment"]
    spec = replace(rectangle_loop_spec(cfg, e["height"], e["T"]), **_schedule(conf))
    return [run_loop(cfg, grid, spec, e["min_fidelity"])]


def _run_fig1(conf: dict, cfg: PhysicsConfig, grid: CylinderGrid):
    e = conf["experiment"]
    return run_fig1_comparison(cfg, grid, e["phi_B"], e["T"], min_fidelity=e["min_fidelity"],
                               **_schedule(conf))


# experiment.kind -> the results `run` writes
_EXPERIMENTS = {"ab_loop": _run_ab, "general_loop": _run_rectangle, "fig1": _run_fig1}

_POSITIVE = (lambda v: v > 0, "must be positive")
_NON_NEGATIVE = (lambda v: v >= 0, "must be non-negative")

# "section.key" -> (test, message); each key's type is that of its default.
# The kind is looked up in a tuple, so a list value is refused, not unhashable.
_BOUNDS = {
    "experiment.kind": (lambda v: v in tuple(_EXPERIMENTS), f"must be one of {tuple(_EXPERIMENTS)}"),
    "experiment.T": _POSITIVE,
    "experiment.n": _NON_NEGATIVE,
    "experiment.ramp_fraction": (lambda v: 0.0 <= v <= 0.5, "must lie in [0, 0.5]"),
    "experiment.min_fidelity": (lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]"),
    "experiment.winding": (lambda v: v != 0, "must be a nonzero integer"),
    "experiment.phi_B": _NON_NEGATIVE,
    "sweep.num": (lambda v: v >= 2, "need at least two flux points"),
    "study.T_values": _POSITIVE,
    "eigen.n_max": _NON_NEGATIVE,
    "eigen.j_max": _NON_NEGATIVE,
}
# (lower, upper) keys that must be strictly ordered, checked after their section
_ORDERED = {"grid": ("y_min", "y_max"), "sweep": ("phi_min", "phi_max")}


def _fail(path: str, msg: str) -> ConfigError:
    return ConfigError(f"{path}: {msg}")


def _as_number(path: str, value, *, integer=False):
    if value is None:
        raise _fail(path, "required key missing or null")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(path, f"expected a number, got {type(value).__name__}")
    if integer and isinstance(value, float) and not value.is_integer():
        raise _fail(path, f"expected an integer, got {value!r}")
    try:
        v = float(value)
    except OverflowError:  # an integer too large for any float
        v = math.inf
    if not math.isfinite(v):
        raise _fail(path, "must be finite")
    return int(value) if integer else v


def _check(path: str, value, default, bound):
    """Convert one config value to its default's type, then apply its bound."""
    if isinstance(default, list):
        if not isinstance(value, (list, tuple)) or not value:
            raise _fail(path, "expected a non-empty list of durations")
        # every element's type is checked before any element's bound
        values = [_as_number(f"{path}[{i}]", v) for i, v in enumerate(value)]
        return [_check(f"{path}[{i}]", v, default[0], bound) for i, v in enumerate(values)]
    if not isinstance(default, str):
        value = _as_number(path, value, integer=isinstance(default, int))
    if bound is not None and not bound[0](value):
        raise _fail(path, bound[1])
    return value


def _section(raw: dict, name: str, default: dict, required_keys) -> dict:
    sect = {} if raw.get(name) is None else raw[name]
    if not isinstance(sect, dict):
        raise _fail(name, f"expected an object, got {type(sect).__name__}")
    for key in sect:
        if key not in default:
            raise _fail(f"{name}.{key}", "unknown key")
    for key in required_keys:
        if key not in sect:
            raise _fail(f"{name}.{key}", "required key missing")
    return {**default, **sect}


def resolve_config(raw: dict) -> dict:
    """Validate a raw config dict and fill optional sections with defaults.

    The physics and grid sections, when a config is supplied, must be
    complete: silent defaults for the fields that define the problem are a
    recipe for comparing incomparable runs.  Experiment, sweep, study, and
    eigen sections merge with the defaults key by key.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"config root: expected an object, got {type(raw).__name__}")
    for key in raw:
        if key not in DEFAULT_CONFIG:
            raise _fail(key, "unknown section")

    conf = {}
    for name, default in DEFAULT_CONFIG.items():
        required = tuple(default) if name in ("physics", "grid") and name in raw else ()
        sect = conf[name] = _section(raw, name, default, required)
        for key in default:
            path = f"{name}.{key}"
            sect[key] = _check(path, sect[key], default[key], _BOUNDS.get(path))
        if name in _ORDERED:
            lower, upper = _ORDERED[name]
            if sect[lower] >= sect[upper]:
                raise _fail(f"{name}.{lower}", f"must be strictly below {name}.{upper}")
    return conf


def build_physics(conf: dict) -> PhysicsConfig:
    try:
        return PhysicsConfig(**conf["physics"])
    except ConfigError as exc:
        raise ConfigError(f"physics: {exc}") from None


def build_grid(conf: dict, cfg: PhysicsConfig) -> CylinderGrid:
    try:
        return CylinderGrid.for_config(cfg, **conf["grid"])
    except ConfigError as exc:
        raise ConfigError(f"grid: {exc}") from None


def _config_line(conf: dict) -> str:
    return json.dumps(conf, sort_keys=True, separators=(",", ":"))


def _fmt_cell(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.17g" % float(value)
    return str(value)


def write_csv(path: Path, columns, rows, conf: dict) -> None:
    lines = [f"# config: {_config_line(conf)}", ",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt_cell(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def write_json(path: Path, payload: dict, conf: dict) -> None:
    payload = dict(payload)
    payload["config"] = conf
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _result_report(tag: str, res: ExperimentResult) -> str:
    err = abs(wrap_angle(res.gamma_measured - res.gamma_predicted))
    return (
        f"{tag}: gamma = {res.gamma_measured:+.6f}  predicted {res.gamma_predicted:+.6f}  "
        f"|diff| = {err:.2e}  fidelity = {res.fidelity:.6f}"
    )


def cmd_eigen(conf: dict, out: Path, args) -> int:
    cfg = build_physics(conf)
    grid = build_grid(conf, cfg)
    j_max = conf["eigen"]["j_max"]
    rows = []
    for n in range(conf["eigen"]["n_max"] + 1):
        energy = landau_energy(cfg, n)
        for j in range(-j_max, j_max + 1):
            psi = landau_eigenstate(cfg, grid, n, j)
            resid = (apply_hamiltonian(psi, cfg) - psi * energy).norm()
            rows.append((n, j, 2.0 * np.pi * j / cfg.l, mode_center(cfg, j), energy, resid))
    write_csv(out / "eigen.csv", ("n", "j", "kappa", "y_center", "energy", "residual"), rows, conf)
    print(f"wrote {out / 'eigen.csv'} ({len(rows)} states)")
    worst = np.max([r[-1] for r in rows])
    print(f"worst eigen-residual: {worst:.3e}")
    return 0


def cmd_run(conf: dict, out: Path, args) -> int:
    cfg = build_physics(conf)
    grid = build_grid(conf, cfg)
    results = _EXPERIMENTS[conf["experiment"]["kind"]](conf, cfg, grid)
    write_csv(out / "run.csv", ExperimentResult.CSV_COLUMNS,
              [r.csv_row() for r in results], conf)
    write_json(out / "run.json", {"results": [r.to_dict() for r in results]}, conf)
    for r in results:
        print(_result_report(r.kind, r))
    print(f"wrote {out / 'run.csv'}, {out / 'run.json'}")
    return 0


def cmd_sweep(conf: dict, out: Path, args) -> int:
    cfg = build_physics(conf)
    grid = build_grid(conf, cfg)
    e, s = conf["experiment"], conf["sweep"]
    phis = np.linspace(s["phi_min"], s["phi_max"], s["num"])
    sweep = flux_sweep(cfg, grid, _ab_spec(conf, cfg), phis, e["min_fidelity"])
    write_csv(out / "sweep.csv", ExperimentResult.CSV_COLUMNS,
              [r.csv_row() for r in sweep.rows], conf)
    write_json(out / "sweep.json", {
        "slope": sweep.slope,
        "intercept": sweep.intercept,
        "rows": [r.to_dict() for r in sweep.rows],
    }, conf)
    failures = [r for r in sweep.rows if r.error is not None]
    print(f"sweep over {len(sweep.rows)} flux points: slope = {sweep.slope:.9f} "
          f"(ideal {e['winding'] * cfg.q / (cfg.hbar * cfg.c):.9f}), {len(failures)} failed rows")
    print(f"wrote {out / 'sweep.csv'}, {out / 'sweep.json'}")
    return 0 if not failures else 1


def cmd_study(conf: dict, out: Path, args) -> int:
    cfg = build_physics(conf)
    grid = build_grid(conf, cfg)
    study = adiabatic_study(cfg, grid, _ab_spec(conf, cfg), conf["study"]["T_values"])
    columns = ("T", "gamma_error", "infidelity", "gamma_raw_error", "discrepancy_norm")
    rows = [tuple(getattr(r, c) for c in columns) for r in study]
    write_csv(out / "study.csv", columns, rows, conf)
    write_json(out / "study.json", {
        "rows": [{**dict(zip(columns, row)), "result": r.result.to_dict()}
                 for r, row in zip(study, rows)],
    }, conf)
    for r in study:
        print(f"T = {r.T:9.2f}: gamma_error = {r.gamma_error:.3e}  "
              f"infidelity = {r.infidelity:.3e}  "
              f"raw_error = {r.gamma_raw_error:.3e}  "
              f"factorization gap = {r.discrepancy_norm:.3e}")
    print(f"wrote {out / 'study.csv'}, {out / 'study.json'}")
    return 0


def cmd_verify(conf: dict, out: Path, args) -> int:
    results = run_all_checks(seed=args.seed)
    # a fixed width, that of the longest name, so a new row re-pads no old line
    for name, ok, detail in results:
        print(f"{name:<30}  {'PASS' if ok else 'FAIL'}  {detail}")
    write_json(out / "verify.json", {
        "seed": args.seed,
        "checks": [
            {"name": name, "passed": ok, "detail": detail}
            for name, ok, detail in results
        ],
    }, conf)
    failed = [name for name, ok, _ in results if not ok]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 0 if not failed else 1


# subcommand -> (function, help); the parser is built from this table
_COMMANDS = {
    "eigen": (cmd_eigen, "tabulate Landau levels (CSV)"),
    "run": (cmd_run, "run one transport experiment"),
    "sweep": (cmd_sweep, "Berry phase vs threading flux"),
    "adiabatic-study": (cmd_study, "convergence with drive duration"),
    "verify": (cmd_verify, "self-checks, on quick inputs where a check has them"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="landau-cylinder",
        description="Driven Landau states on a flux-threaded cylinder.",
    )
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON config file (defaults are used when omitted)")
    parser.add_argument("--out", type=Path, default=Path("."),
                        help="output directory (created if missing)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the randomized verification checks")
    parser.add_argument("--print-default-config", action="store_true",
                        help="print the default config as JSON and exit")
    sub = parser.add_subparsers(dest="command")
    for name, (_, help_text) in _COMMANDS.items():
        sub.add_parser(name, help=help_text)
    return parser


def _read_config(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None


def _make_out(out: Path) -> None:
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out: cannot create directory {out}: {exc.strerror}") from None


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.print_default_config:
        print(json.dumps(DEFAULT_CONFIG, indent=2, sort_keys=True))
        return 0
    if args.command is None:
        parser.print_help()
        return 2

    try:
        conf = resolve_config({} if args.config is None else _read_config(args.config))
        _make_out(args.out)
        return _COMMANDS[args.command][0](conf, args.out, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NonCyclicEvolutionError, TruncationError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
