"""The one judge of the self-check table: strict gates, and NaN fails."""

from dataclasses import replace

import numpy as np
import pytest

from landau_cylinder import Wavefunction, verify
from landau_cylinder.verify import CHECKS, _verdict


def _quick(name):
    check = next(c for c in CHECKS if c.name == name)
    return check.run(check.quick, check.seed)


def test_verdict_gates_are_strict_and_print_their_tolerance():
    assert _verdict("", ("dev", [0.0, 1e-12], 1e-12)) == (False, "dev 1e-12 (tol 1e-12)")
    ok, detail = _verdict("3 states", ("dev", [0.0, 5e-13], 1e-12), ("failed rows", 0, 1))
    assert ok
    assert detail == "3 states; dev 5e-13 (tol 1e-12), failed rows 0 (tol 1)"


def test_verdict_fails_a_nan_and_raises_on_an_empty_gate():
    ok, detail = _verdict("", ("dev", [0.0, np.nan, 0.0], 1e-12), ("other", 0.0, 1.0))
    assert not ok
    assert detail.startswith("dev nan (tol 1e-12)")
    with pytest.raises(ValueError):
        _verdict("", ("dev", [], 1e-12))


def test_nan_translation_fails_criterion_1(monkeypatch):
    real = verify.translate_x

    def nan_translate(psi, shift, cfg):
        out = real(psi, shift, cfg)
        amps = out.amplitudes
        amps[0, 0] = np.nan
        return Wavefunction(out.grid, amps, out.mode_offset)

    assert _quick("topological_operator_phase")[0]
    monkeypatch.setattr(verify, "translate_x", nan_translate)
    ok, detail = _quick("topological_operator_phase")
    assert not ok
    assert "worst deviation nan" in detail


def test_nan_oracle_fails_criterion_7(monkeypatch):
    real = verify.evolve_oracle

    def nan_oracle(psi0, proto):
        out = real(psi0, proto)
        return replace(out, final_state=out.final_state * np.nan)

    monkeypatch.setattr(verify, "evolve_oracle", nan_oracle)
    ok, detail = _quick("oracle_equivalence")
    assert not ok
    assert "worst state gap nan" in detail
