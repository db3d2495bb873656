#!/usr/bin/env python3
"""Benchmark of the landau_cylinder package, measured from outside it.

Workloads (README.md in this directory says why each exists):

  sweep   `landau-cylinder sweep` through cli.main: 7 ab loops at T=200
          over 4 pi of flux from a seeded offset
  fig1    `landau-cylinder run` with kind=fig1, T=2000, phi = phi_B seeded
  oracle  12 seeded drives: evolve_tdse at dt=5e-4 against evolve_oracle,
          plus sequential_translation against path_ordered_translation

Run from the repository root:

  python3 benchmarks/run.py --workload sweep --seed 1 --seconds 50 --trace 0
  python3 benchmarks/run.py --workload all --trace 0   # every workload

A run cycles through the workload's passes (one CLI call for sweep and
fig1, one drive for oracle) until --seconds is spent, running each at least
once, and checks every pass against the acceptance tolerances and against
the other passes of the same input byte for byte.  A fixed numpy reference
kernel runs after every pass, and experiment_cost is the untraced pass time
per unit in multiples of the run's mean kernel time.  With --trace 1 each
input runs untraced and then traced, and the run reports per-layer numbers
instead.  The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 only if every unit of
work passed its gate.
"""

from __future__ import annotations

import os

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:  # before numpy loads a BLAS
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from tracer import Tracer  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 5
SWEEP_POINTS = 7  # 2 pi / 3 apart: below pi, so the sweep's slope fit can unwrap the phases
SWEEP_T = 200.0
FIG1_T = 2000.0
ORACLE_DT = 5e-4
ORACLE_DRIVES = 12  # levels n = 0, 1, 2 four times each
ORACLE_SEGMENTS = 3  # every drive does the same amount of work
ORACLE_T = 4.0  # in criterion 7's T range; keeps a pass near 12 s, so a run has several
ORACLE_OFFSET = 0.8  # |(d0, p0)| of the start off the well centre; its direction is seeded
PATH_REFINE = 16

# acceptance tolerances of tests/test_acceptance.py; never loosen them
SWEEP_PHASE_TOL = 1e-3  # criterion 3
SWEEP_SLOPE_TOL = 1e-3  # criterion 6
FIG1_PHASE_TOL = 1e-2  # criterion 5
FLUX_IDENTITY_TOL = 1e-12  # criterion 5
ORACLE_TOL = 1e-6  # criterion 7, phase gap and infidelity
PRODUCT_TOL = 1e-9  # criterion 4

LAYERS = ("cli", "experiments", "propagator", "drive", "eigenstates", "magtrans", "core")

END_TO_END = {  # the gated metrics; README.md says why the others are only printed
    "setup_s": "s",
    "experiment_cost": "ref",
    "phase_err": "rad",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{f"{layer}.{kind}": unit for layer in LAYERS
       for kind, unit in (("self_s", "s"), ("calls", "count"))},
    "propagator.tdse.self_s": "s",
    "propagator.tdse.calls": "count",
    "propagator.tdse.steps": "count",
    "propagator.tdse.row_steps": "count",
    "propagator.tdse.us_per_row_step": "us",
    "propagator.tdse.fft_rows": "count",
    "propagator.tdse.bytes_computed": "B",
    "propagator.tdse.flops_computed": "flop",
    "propagator.tdse.norm_drift_max": "ratio",
    "propagator.oracle.self_s": "s",
    "propagator.oracle.drive_calls": "count",
    "drive.samples": "count",
    "bench.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.accounted_frac": "ratio",
}


def wrap_angle(x: float) -> float:
    return (x + math.pi) % (2.0 * math.pi) - math.pi


HARNESS_ERROR = 2  # exit code when no result can be measured at all


def fail_harness(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(HARNESS_ERROR)


# -- package under test -----------------------------------------------------

def load_package():
    """Import landau_cylinder from ./src of the current checkout, nowhere else."""
    if not (SRC / "landau_cylinder" / "__init__.py").is_file():
        fail_harness(f"{SRC / 'landau_cylinder'} not found; run from the repository root")
    sys.path.insert(0, str(SRC))
    lc = importlib.import_module("landau_cylinder")
    importlib.import_module("landau_cylinder.cli")
    if not Path(lc.__file__).resolve().is_relative_to(SRC.resolve()):
        fail_harness(f"landau_cylinder imported from {lc.__file__}, not from {SRC}")
    return lc


def package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "landau_cylinder" or name.startswith("landau_cylinder.")]


def source_digest() -> str:
    """Hash of the package and benchmark sources, to key stored output digests."""
    h = hashlib.sha256()
    for path in sorted((SRC / "landau_cylinder").glob("*.py")) + [Path(__file__)]:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


SETUP_SNIPPET = """
import sys
sys.path.insert(0, "src")
from landau_cylinder import cli
conf = cli.resolve_config({})
grid = cli.build_grid(conf, cli.build_physics(conf))
grid.y, grid.ky
"""


def measure_setup(repeats: int) -> list:
    """Wall time of fresh interpreters that import, resolve the config and build the grid."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return times


# -- reference kernel -------------------------------------------------------

REF_STEPS = 1500
REF_SHARE = 0.1  # kernel time after each untraced pass, as a share of the pass time
_REF_Y = np.linspace(-12.0, 12.0, 512)
_REF_KIN = np.exp(-0.5j * 0.01 * (2.0 * np.pi * np.fft.fftfreq(512, d=24.0 / 512)) ** 2)


def reference_kernel() -> float:
    """Seconds for a fixed numpy imitation of split-operator steps on one row.

    It uses no package code, so it only tracks how fast this machine runs at
    the moment; experiment_cost divides pass times by it.
    """
    t0 = time.perf_counter()
    f = np.fft.fft(np.exp(-0.5 * _REF_Y**2) + 0j)
    for s in range(REF_STEPS):
        psi = np.fft.ifft(f * _REF_KIN)
        v = 0.5 * (_REF_Y - 1e-4 * s) ** 2 - 1e-3 * _REF_Y
        f = np.fft.fft(psi * np.exp(-0.01j * v))
    return time.perf_counter() - t0


def reference_block(pass_wall: float) -> list:
    """Kernel times after one pass: at least one, and REF_SHARE of its time.

    The kernels sample the machine as densely as the passes occupy it, so
    their mean over a run sees the same speed phases as the passes.
    """
    times = [reference_kernel()]
    while sum(times) < REF_SHARE * pass_wall:
        times.append(reference_kernel())
    return times


# -- passes -----------------------------------------------------------------

@dataclass
class Pass:
    """One pass of a workload: its wall time, its units and their verdicts."""

    wall: float
    units: int
    failed: int
    digest: str
    phase_errs: list = field(default_factory=list)
    infidelity: float = math.nan
    norm_drift: float = math.nan
    problems: list = field(default_factory=list)
    traced: bool = False
    index: int = 0  # which of the workload's pass inputs it ran


def cli_pass(lc, command: str, config: dict, out: Path, files):
    """Run one CLI command in-process.

    Returns (wall, parsed JSON or None, output digest, problems).
    """
    out.mkdir(parents=True)
    config_path = out / "config.json"
    config_path.write_text(json.dumps(config))
    log = io.StringIO()
    problems = []
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            rc = lc.cli.main(["--config", str(config_path), "--out", str(out), command])
    except Exception:  # a failed pass is recorded, the run goes on
        rc = None
        problems.append(traceback.format_exc(limit=3))
    wall = time.perf_counter() - t0
    if rc != 0:
        problems.append(f"{command} exited with {rc}: {log.getvalue()[-500:]}")
    h = hashlib.sha256()
    payload = None
    if all((out / name).is_file() for name in files):
        for name in files:
            h.update((out / name).read_bytes())
        payload = json.loads((out / files[-1]).read_text())
    return wall, payload, h.hexdigest(), problems


def sweep_inputs(lc, seed: int) -> list:
    offset = float(np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi))
    return [{
        "experiment": {"kind": "ab_loop", "T": SWEEP_T},
        "sweep": {"phi_min": offset, "phi_max": offset + 4.0 * math.pi, "num": SWEEP_POINTS},
    }]


def sweep_pass(lc, config: dict, out: Path) -> Pass:
    wall, payload, digest, problems = cli_pass(
        lc, "sweep", config, out, ("sweep.csv", "sweep.json"))
    if payload is None:
        return Pass(wall, SWEEP_POINTS, SWEEP_POINTS, digest, problems=problems)
    phys = payload["config"]["physics"]
    coupling = phys["q"] / (phys["hbar"] * phys["c"])
    rows = payload["rows"]
    good = [r for r in rows if r["error"] is None]
    errs = [abs(wrap_angle(r["gamma_measured"] - coupling * r["phi"])) for r in good]
    failed = len(rows) - len(good) + sum(1 for e in errs if not e < SWEEP_PHASE_TOL)
    slope_err = abs(payload["slope"] - coupling)
    if not slope_err < SWEEP_SLOPE_TOL:
        problems.append(f"slope error {slope_err:.3e} not below {SWEEP_SLOPE_TOL}")
    if failed:
        problems.append(f"{failed} flux points missed phase tolerance {SWEEP_PHASE_TOL}")
    if problems or len(rows) != SWEEP_POINTS:
        failed = SWEEP_POINTS
    return Pass(
        wall, SWEEP_POINTS, failed, digest,
        phase_errs=errs,
        infidelity=max((1.0 - r["fidelity"] for r in good), default=math.nan),
        norm_drift=max((r["norm_drift"] for r in good), default=math.nan),
        problems=problems,
    )


def fig1_inputs(lc, seed: int) -> list:
    phi_b = float(np.random.default_rng(seed).uniform(math.pi / 4, 3 * math.pi / 4))
    physics = dict(lc.cli.DEFAULT_CONFIG["physics"], phi0=phi_b)
    return [{
        "physics": physics,
        "experiment": {"kind": "fig1", "T": FIG1_T, "phi_B": phi_b},
    }]


def fig1_pass(lc, config: dict, out: Path) -> Pass:
    wall, payload, digest, problems = cli_pass(
        lc, "run", config, out, ("run.csv", "run.json"))
    if payload is None:
        return Pass(wall, 2, 2, digest, problems=problems)
    phys = payload["config"]["physics"]
    coupling = phys["q"] / (phys["hbar"] * phys["c"])
    phi, phi_b = phys["phi0"], config["experiment"]["phi_B"]
    # (flux entering the phase, total enclosed flux) for each loop
    expected = {"fig1_blue": (phi - phi_b, phi + phi_b), "fig1_green": (phi + phi_b, phi - phi_b)}
    results = payload["results"]
    errs, failed = [], 0
    for r in results:
        phase_flux, enclosed = expected[r["kind"]]
        err = abs(wrap_angle(r["gamma_measured"] - coupling * phase_flux))
        flux_dev = abs(r["enclosed_flux_total"] - enclosed)
        errs.append(err)
        if not (err < FIG1_PHASE_TOL and flux_dev < FLUX_IDENTITY_TOL):
            failed += 1
            problems.append(f"{r['kind']}: phase error {err:.3e}, enclosed-flux dev {flux_dev:.3e}")
    if sorted(expected) != sorted(r["kind"] for r in results) or (problems and not failed):
        failed = 2
    return Pass(
        wall, 2, failed, digest,
        phase_errs=errs,
        infidelity=max(1.0 - r["fidelity"] for r in results),
        norm_drift=max(r["norm_drift"] for r in results),
        problems=problems,
    )


def oracle_inputs(lc, seed: int) -> list:
    """Drives in the style of acceptance criterion 7, every level equally often.

    Each pass runs one drive: short passes let the reference kernels between
    them follow the machine's speed closely.  The benchmark calls the
    package once per drive, so batching cannot act across passes.
    """
    rng = np.random.default_rng(seed)
    drives = []
    for k in range(ORACLE_DRIVES):
        pts = [(0.0, 0.0)]
        for _ in range(ORACLE_SEGMENTS):
            pts.append((pts[-1][0] + float(rng.uniform(-0.7, 0.7)),
                        pts[-1][1] + float(rng.uniform(-0.7, 0.7))))
        angle = float(rng.uniform(0.0, 2.0 * math.pi))
        drives.append({
            "n": k % 3, "T": ORACLE_T, "j": int(rng.integers(-1, 2)),
            "d0": ORACLE_OFFSET * math.cos(angle), "p0": ORACLE_OFFSET * math.sin(angle),
            "path": tuple(pts),
            "modes": [(int(rng.integers(0, 3)), int(rng.integers(-2, 3)),
                       complex(rng.normal(), rng.normal())) for _ in range(3)],
        })
    return [[d] for d in drives]


def oracle_drive(lc, cfg, grid, d: dict):
    """One judged drive; returns (oracle overlap, norm drift, product deviation, states)."""
    psi0 = lc.displaced_gaussian(cfg, grid, j=d["j"], center=lc.mode_center(cfg, d["j"]) + d["d0"],
                                 momentum=d["p0"], n=d["n"])
    path = lc.PathPolyline(d["path"])
    protocol = lc.DriveProtocol.from_path(cfg, path, T=d["T"], dt=ORACLE_DT)
    record = lc.evolve_tdse(psi0, protocol)
    exact = lc.evolve_oracle(psi0, protocol)
    overlap = lc.inner_product(record.final_state, exact.final_state)

    amps = sum(c * lc.landau_eigenstate(cfg, grid, n, j).amplitudes for n, j, c in d["modes"])
    state = lc.Wavefunction(grid, amps, 0.0).normalized()
    seq_state, seq_phase = lc.sequential_translation(state, path.refined(PATH_REFINE), cfg)
    tele = lc.path_ordered_translation(state, path, cfg)
    product_dev = max(
        float(np.max(np.abs(seq_state.amplitudes
                            - tele.state.amplitudes * np.exp(1j * tele.accumulated_phase)))),
        abs(wrap_angle(seq_phase - tele.accumulated_phase)),
    )
    return overlap, record.norm_drift, product_dev, (record.final_state, exact.final_state, seq_state)


def oracle_pass(lc, drives: list, out: Path) -> Pass:
    start = time.perf_counter()
    cfg = lc.PhysicsConfig.reference()
    grid = lc.CylinderGrid.for_config(cfg)
    h = hashlib.sha256()
    gaps, infs, drifts, problems, failed = [], [], [], [], 0
    for k, d in enumerate(drives):
        try:
            overlap, drift, product_dev, states = oracle_drive(lc, cfg, grid, d)
        except Exception:  # a failed drive is recorded, the run goes on
            failed += 1
            problems.append(f"drive {k}: {traceback.format_exc(limit=3)}")
            continue
        gap, inf = abs(float(np.angle(overlap))), abs(1.0 - abs(overlap))
        gaps.append(gap)
        infs.append(inf)
        drifts.append(drift)
        for s in states:
            h.update(s.amplitudes.tobytes())
        if not (gap < ORACLE_TOL and inf < ORACLE_TOL and product_dev < PRODUCT_TOL):
            failed += 1
            problems.append(f"drive {k}: gap {gap:.3e}, infidelity {inf:.3e}, "
                            f"product dev {product_dev:.3e}")
    wall = time.perf_counter() - start
    return Pass(wall, len(drives), failed, h.hexdigest(),
                phase_errs=gaps, infidelity=max(infs, default=math.nan),
                norm_drift=max(drifts, default=math.nan), problems=problems)


# -- tracing ----------------------------------------------------------------

def tdse_counter(lc):
    """Hook that computes the Strang-step work of each evolve_tdse call from its input.

    The rows are the ones the propagator evolves, chosen by the package's own
    occupied_rows and threshold.  to_modes is taken before the tracer wraps
    it, so the hook opens no spans.
    """
    to_modes = lc.Wavefunction.to_modes
    threshold = lc.propagator.OCCUPATION_THRESHOLD

    def count(tracer, args, kwargs, record):
        psi0 = args[0] if args else kwargs["psi0"]
        rows = to_modes(psi0).occupied_rows(threshold).size
        ny = psi0.grid.Ny
        fft_rows = 2 * rows * record.n_steps  # one forward and one inverse FFT per row per step
        tracer.count("propagator.tdse.steps", record.n_steps)
        tracer.count("propagator.tdse.row_steps", rows * record.n_steps)
        tracer.count("propagator.tdse.fft_rows", fft_rows)
        tracer.count("propagator.tdse.bytes_computed", fft_rows * 2 * 16 * ny)  # read + write complex128
        tracer.count("propagator.tdse.flops_computed", fft_rows * 5 * ny * math.log2(ny))
        tracer.counts["propagator.tdse.norm_drift_max"] = max(
            tracer.counts["propagator.tdse.norm_drift_max"], record.norm_drift)

    return count


def count_drive(tracer, args, kwargs, result):
    """Time samples asked of the drive layer by callers outside it."""
    caller = tracer.current()
    if caller is not None and caller.startswith("drive."):
        return
    t = args[1] if len(args) > 1 else kwargs["t"]
    tracer.count("drive.samples", np.size(t))
    if tracer.is_open("propagator.evolve_oracle"):
        tracer.count("propagator.oracle.drive_calls")


def trace_targets(lc) -> list:
    """(span name, owner, attribute, hook) for every traced public entry point."""
    protocol, wavefunction = lc.DriveProtocol, lc.Wavefunction
    return [
        ("cli.main", lc.cli, "main", None),
        ("cli.resolve_config", lc.cli, "resolve_config", None),
        ("cli.write_csv", lc.cli, "write_csv", None),
        ("cli.write_json", lc.cli, "write_json", None),
        ("experiments.run_loop", lc.experiments, "run_loop", None),
        ("experiments.run_fig1_comparison", lc.experiments, "run_fig1_comparison", None),
        ("experiments.flux_sweep", lc.experiments, "flux_sweep", None),
        ("experiments.berry_phase", lc.experiments, "berry_phase", None),
        ("propagator.evolve_tdse", lc.propagator, "evolve_tdse", tdse_counter(lc)),
        ("propagator.evolve_oracle", lc.propagator, "evolve_oracle", None),
        ("drive.from_path", protocol, "from_path", None),
        ("drive.flux", protocol, "flux", count_drive),
        ("drive.efield", protocol, "efield", count_drive),
        ("drive.displacement", protocol, "displacement", count_drive),
        ("drive.drift_action", protocol, "drift_action", None),
        ("eigenstates.landau_eigenstate", lc.eigenstates, "landau_eigenstate", None),
        ("eigenstates.displaced_gaussian", lc.eigenstates, "displaced_gaussian", None),
        ("magtrans.path_ordered_translation", lc.magtrans, "path_ordered_translation", None),
        ("magtrans.sequential_translation", lc.magtrans, "sequential_translation", None),
        ("magtrans.apply_displacement", lc.magtrans, "apply_displacement", None),
        ("core.inner_product", lc.core, "inner_product", None),
        ("core.to_modes", wavefunction, "to_modes", None),
        ("core.from_modes", wavefunction, "from_modes", None),
    ]


COMMON_SPANS = (
    "propagator.evolve_tdse", "drive.from_path", "drive.flux", "drive.efield",
    "drive.displacement", "core.inner_product", "core.to_modes", "core.from_modes",
)
CLI_SPANS = ("cli.main", "cli.resolve_config", "cli.write_csv", "cli.write_json",
             "experiments.berry_phase", "drive.drift_action", "eigenstates.landau_eigenstate")


@dataclass(frozen=True)
class Workload:
    inputs: object
    run_pass: object
    spans: tuple
    unit: str


WORKLOADS = {
    "sweep": Workload(sweep_inputs, sweep_pass,
                      COMMON_SPANS + CLI_SPANS + ("experiments.flux_sweep",), "flux point"),
    "fig1": Workload(fig1_inputs, fig1_pass,
                     COMMON_SPANS + CLI_SPANS + ("experiments.run_fig1_comparison",
                                                 "experiments.run_loop"), "loop"),
    "oracle": Workload(oracle_inputs, oracle_pass,
                       COMMON_SPANS + ("propagator.evolve_oracle", "eigenstates.displaced_gaussian",
                                       "eigenstates.landau_eigenstate",
                                       "magtrans.sequential_translation",
                                       "magtrans.path_ordered_translation",
                                       "magtrans.apply_displacement"), "drive"),
}


def layer_metrics(tracers: list, traced_walls: list, untraced_walls: list) -> dict:
    """Per-layer numbers per traced pass, averaged over the traced passes."""
    k = len(tracers)

    def total(attr, name):
        return sum(getattr(t, attr)[name] for t in tracers)

    def layer_total(attr, layer):
        return sum(v for t in tracers for n, v in getattr(t, attr).items()
                   if n.startswith(layer + "."))

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_total("self_s", layer) / k
        m[f"{layer}.calls"] = layer_total("calls", layer) / k
    tdse, oracle = "propagator.evolve_tdse", "propagator.evolve_oracle"
    m["propagator.tdse.self_s"] = total("self_s", tdse) / k
    m["propagator.tdse.calls"] = total("calls", tdse) / k
    for name in ("steps", "row_steps", "fft_rows", "bytes_computed", "flops_computed"):
        m[f"propagator.tdse.{name}"] = total("counts", f"propagator.tdse.{name}") / k
    row_steps = total("counts", "propagator.tdse.row_steps")
    m["propagator.tdse.us_per_row_step"] = 1e6 * total("self_s", tdse) / row_steps
    m["propagator.tdse.norm_drift_max"] = max(
        t.counts["propagator.tdse.norm_drift_max"] for t in tracers)
    m["propagator.oracle.self_s"] = total("self_s", oracle) / k
    m["propagator.oracle.drive_calls"] = total("counts", "propagator.oracle.drive_calls") / k
    m["drive.samples"] = total("counts", "drive.samples") / k
    traced = statistics.mean(traced_walls)
    accounted = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    m["bench.self_s"] = traced - accounted
    m["trace.wall_s"] = traced
    m["trace.overhead_frac"] = traced / statistics.mean(untraced_walls) - 1.0
    m["trace.accounted_frac"] = accounted / traced
    return m


# -- one run ----------------------------------------------------------------

def check_digests(workload: str, seed: int, passes: list):
    """Byte-identity of outputs across passes of the same input and earlier runs of the same code.

    Returns (problems, the run's digest over its inputs in order).
    """
    by_input, firsts = {}, {}
    for p in passes:
        by_input.setdefault(p.index, set()).add(p.digest)
        firsts.setdefault(p.index, p.digest)
    problems = [f"passes of input {i} disagree: output digests {sorted(d)}"
                for i, d in sorted(by_input.items()) if len(d) > 1]
    digest = hashlib.sha256("".join(d for _, d in sorted(firsts.items())).encode()).hexdigest()
    store_path = WORK / "digests.json"
    store = json.loads(store_path.read_text()) if store_path.is_file() else {}
    key = f"{workload}/{seed}/{source_digest()[:16]}/numpy {np.__version__}/scipy {scipy.__version__}"
    if store.get(key, digest) != digest:
        problems.append(f"output digest {digest} differs from an earlier run's {store[key]}")
    store[key] = digest
    tmp = store_path.with_name(f"{store_path.name}.{os.getpid()}")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, store_path)  # concurrent runs never see a half-written store
    return problems, digest


def machine_facts() -> str:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return (f"nproc {os.cpu_count()} (usable {len(os.sched_getaffinity(0))}), cpu {cpu}, "
            f"python {platform.python_version()}, numpy {np.__version__}, "
            f"scipy {scipy.__version__}, {'/'.join(THREAD_VARS)} = 1")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    lc = load_package()
    spec = WORKLOADS[name]
    WORK.mkdir(exist_ok=True)
    print(f"machine: {machine_facts()}")
    setup = [] if trace else measure_setup(SETUP_REPEATS)
    inputs = spec.inputs(lc, seed)

    run_dir = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    passes, tracers, refs = [], [], []
    # passes cycle through the inputs; with --trace 1 each input runs untraced, then traced
    cycle = len(inputs) * (2 if trace else 1)
    start = time.perf_counter()
    try:
        while True:
            k = len(passes)
            index = (k // 2 if trace else k) % len(inputs)
            out = run_dir / f"pass{k}"
            if trace and k % 2 == 1:
                tracer = Tracer()
                with tracer.installed(trace_targets(lc), package_modules()):
                    p = spec.run_pass(lc, inputs[index], out)
                missing = tracer.missing(spec.spans)
                if missing:
                    fail_harness(f"expected spans never fired on {name}: {missing}")
                p.traced = True
                tracers.append(tracer)
            else:
                p = spec.run_pass(lc, inputs[index], out)
            p.index = index
            note = "traced" if p.traced else "untraced"
            if not trace:
                block = reference_block(p.wall)
                refs += block
                note = f"{len(block)} reference kernels after it, median {statistics.median(block):.4f} s"
            print(f"  pass {k} (input {index}): {p.wall:.3f} s, {note}", flush=True)
            passes.append(p)
            elapsed = time.perf_counter() - start
            if len(passes) >= cycle and \
                    elapsed + statistics.median(q.wall for q in passes) > seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    measured = time.perf_counter() - start
    problems, digest = check_digests(name, seed, passes)

    untraced = [p for p in passes if not p.traced]
    attempted = sum(p.units for p in passes)
    failed = sum(p.failed for p in passes)
    if problems:  # a determinism miss fails every unit of the run
        failed = attempted
    for p in passes:
        problems.extend(p.problems)
    firsts = {}  # the first pass of every input: the accuracy figures come from these
    for p in passes:
        firsts.setdefault(p.index, p)
    errs = [e for p in firsts.values() for e in p.phase_errs]

    def worst(values):
        return max((v for v in values if not math.isnan(v)), default=math.nan)

    print(f"workload {name}, seed {seed}: {len(passes)} passes ({len(tracers)} traced), "
          f"{attempted} {spec.unit}s in {measured:.1f} s, output digest {digest}")
    for msg in problems:
        print(f"FAIL: {msg}")
    walls = [p.wall for p in untraced]
    units = sum(p.units for p in untraced)
    unit_s = sum(walls) / units
    # a mean, like the pass time: in a run that spans a fast and a slow phase, a
    # median would pick one phase while the pass time blends both
    ref_s = statistics.fmean(refs) if refs else math.nan
    report = {  # name: (value, unit, how it was taken)
        "setup_s": (statistics.median(setup) if setup else math.nan, "s",
                    f"median of {len(setup)} fresh interpreters"),
        "experiment_cost": (unit_s / ref_s, "ref", "experiment_s / reference_s"),
        "experiment_s": (unit_s, "s", f"untraced pass time per {spec.unit}, "
                         f"{units} {spec.unit}s in {len(walls)} passes"),
        "reference_s": (ref_s, "s", f"mean of {len(refs)} reference kernels run between passes"),
        "wall_s": (statistics.median(walls), "s", f"median of {len(walls)} untraced passes"),
        "experiments_per_s": (units / sum(walls), "1/s",
                              f"{spec.unit}s per second of untraced passes"),
        "phase_err": (statistics.fmean(errs) if errs else math.nan, "rad",
                      f"mean over {len(errs)} {spec.unit}s, every input once"),
        "phase_err_max": (worst(errs), "rad", "worst over every input once"),
        "infidelity_max": (worst(p.infidelity for p in firsts.values()), "ratio",
                           "worst over every input once"),
        "norm_drift_max": (worst(p.norm_drift for p in firsts.values()), "ratio",
                           "worst over every input once"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
                        "this process"),
        "failed_frac": (failed / attempted, "ratio", f"{failed} of {attempted} {spec.unit}s"),
    }
    for key, (value, unit, how) in report.items():
        if not math.isnan(value):
            print(f"  {key:<20} {value:>14.6g} {unit:<6} {how}")
    e2e = {key: report[key][0] for key in END_TO_END}

    metrics = e2e
    if trace:
        metrics = layer_metrics(tracers, [p.wall for p in passes if p.traced],
                                [p.wall for p in untraced])
        print("  per layer, per traced pass (wait time is zero: the package has no queues):")
        for key, value in metrics.items():
            print(f"  {key:<34} {value:>14.6g} {PER_LAYER[key]}")
    correct = failed == 0 and not problems
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v) if math.isfinite(v) else None,
                        "unit": (PER_LAYER if trace else END_TO_END)[k]}
                    for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process, so each reports its own peak memory."""
    results, worst = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.stderr:
            print(proc.stderr, file=sys.stderr, end="")
        worst = max(worst, proc.returncode)
        if proc.returncode == HARNESS_ERROR:
            return HARNESS_ERROR
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="measure for this long (at least one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: alternate untraced and traced passes, report per-layer metrics")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
