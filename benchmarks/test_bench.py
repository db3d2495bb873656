"""Checks of the benchmark's own arithmetic, metric names and input generation.

Run from the repository root:  python3 -m pytest benchmarks
"""

import json
import re
import types
from pathlib import Path

import pytest

import run
from tracer import Tracer

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_only_direct_children():
    t = Tracer(clock=clock(0.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0))
    t.enter("a.outer")
    t.enter("b.child")  # 2 .. 5, encloses 3 .. 4
    t.enter("c.grandchild")
    t.exit()
    t.exit()
    t.enter("b.child")  # 6 .. 8
    t.exit()
    t.exit()  # outer 0 .. 10
    assert t.self_s == {"a.outer": 5.0, "b.child": 4.0, "c.grandchild": 1.0}
    assert t.calls == {"a.outer": 1, "b.child": 2, "c.grandchild": 1}
    assert sum(t.self_s.values()) == 10.0
    assert t.current() is None


def test_span_closes_when_the_call_raises():
    t = Tracer(clock=clock(0.0, 1.0))

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        t.wrap("a.boom", boom)()
    assert t.calls["a.boom"] == 1 and t.current() is None


def test_install_patches_every_copy_and_restores():
    home, user = types.ModuleType("home"), types.ModuleType("user")

    def f(x):
        return x + 1

    home.f = user.f = f

    class C:
        def method(self, t):
            return t

        @classmethod
        def build(cls):
            return cls()

    originals = dict(vars(C))
    seen = []

    def hook(tracer, args, kwargs, result):
        seen.append((tracer.current(), result))

    t = Tracer()
    targets = [("a.f", home, "f", hook), ("b.method", C, "method", None), ("b.build", C, "build", None)]
    with t.installed(targets, [home, user]):
        t.enter("z.caller")
        assert user.f(1) == 2
        t.exit()
        assert isinstance(C.build(), C) and C().method(3) == 3
    assert user.f is f and home.f is f
    assert all(vars(C)[k] is originals[k] for k in ("method", "build"))
    assert t.calls == {"a.f": 1, "z.caller": 1, "b.build": 1, "b.method": 1}
    assert seen == [("z.caller", 2)]  # the hook runs after its span closed


def test_missing_spans_are_named():
    t = Tracer(clock=clock(0.0, 1.0))
    t.enter("a.fired")
    t.exit()
    assert t.missing(["a.fired", "a.renamed"]) == ["a.renamed"]


def test_layer_metrics_account_for_the_traced_wall():
    t = Tracer(clock=clock(0.0, 1.0, 9.0, 10.0))
    t.enter("cli.main")
    t.enter("propagator.evolve_tdse")
    t.exit()
    t.exit()
    t.count("propagator.tdse.row_steps", 4e6)
    m = run.layer_metrics([t], traced_walls=[12.0], untraced_walls=[10.0])
    assert set(m) == set(run.PER_LAYER)
    assert m["propagator.self_s"] == 8.0 and m["cli.self_s"] == 2.0
    assert m["propagator.tdse.us_per_row_step"] == pytest.approx(2.0)
    assert m["bench.self_s"] == pytest.approx(2.0)
    assert m["trace.overhead_frac"] == pytest.approx(0.2)
    assert m["trace.accounted_frac"] == pytest.approx(10.0 / 12.0)


def test_benchmark_json_matches_the_metrics_reported():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    for m in BENCHMARK["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_digests_compare_passes_of_the_same_input_and_earlier_runs(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)

    def passes(*digests):
        return [run.Pass(1.0, 1, 0, d, index=i % 2) for i, d in enumerate(digests)]

    problems, first = run.check_digests("w", 1, passes("a", "b", "a", "b"))
    assert problems == []
    problems, again = run.check_digests("w", 1, passes("a", "b"))
    assert problems == [] and again == first
    problems, _ = run.check_digests("w", 1, passes("a", "c", "a", "b"))
    assert len(problems) == 2  # input 1 disagrees within the run and with the earlier run


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_inputs_depend_only_on_the_seed(name):
    make = run.WORKLOADS[name].inputs
    lc = types.SimpleNamespace(cli=types.SimpleNamespace(DEFAULT_CONFIG={"physics": {}}))
    assert make(lc, 7) == make(lc, 7) != make(lc, 8)


def test_expected_spans_are_traced_targets():
    if not (run.SRC / "landau_cylinder").is_dir():
        pytest.skip("run from the repository root")
    targets = {name for name, *_ in run.trace_targets(run.load_package())}
    for workload in run.WORKLOADS.values():
        assert set(workload.spans) <= targets
