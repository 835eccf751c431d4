"""Quick self-tests of the benchmark (about a minute).

Run with ``python3 -m pytest perfbench/selftest.py -q``.  The file is not
named ``test_*.py``, so the repository's own ``pytest`` run does not collect
it.

* the column-wise reference against a hand-computed two-array, two-split
  layer, with and without partial-sum quantization, and its im2col against
  a loop;
* every workload run to completion at a tiny size (one set-up, a few
  operations), untraced and traced, checking the result line's shape;
* the command exits non-zero, printing no result, in a directory that holds
  only ``BENCHMARK.json`` and the benchmark.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import colref  # noqa: E402
import common  # noqa: E402
import run  # noqa: E402


def two_array_layer(psum_quant: bool):
    """A linear CIM layer: 3 inputs on two arrays (rows 0-1, row 2), two
    1-bit splits (shift factors 1 and 2), one output column."""
    splits = np.zeros((2, 2, 2, 1))
    splits[0, 0, :, 0] = [1, 0]      # LSB split, array 0
    splits[0, 1, :, 0] = [1, 0]      # LSB split, array 1 (row 1 is padding)
    splits[1, 0, :, 0] = [1, 1]      # MSB split, array 0
    tiles = [types.SimpleNamespace(row_start=0, row_stop=2),
             types.SimpleNamespace(row_start=2, row_stop=3)]
    return types.SimpleNamespace(
        layer_type="linear", splits=splits,
        s_w=np.array([[[0.25]], [[0.5]]]), shift_factors=np.array([1.0, 2.0]),
        act_scale=np.array([0.5]), act_qmin=0.0, act_qmax=7.0,
        psum_quant_enabled=psum_quant, s_p=np.full((2, 2, 1), 1.6),
        psum_qmin=-2.0, psum_qmax=1.0, bias=np.array([0.1]),
        mapping=types.SimpleNamespace(tiles=tiles), requant=None)


def test_colref_hand_computed_with_adc():
    # codes a = x / 0.5 = [1, 2, 3]
    # psums: (s0,a0) = 1, (s0,a1) = 3, (s1,a0) = 3, (s1,a1) = 0
    # ADC:  round(p / 1.6) clipped to [-2, 1] -> 1, 1, 1, 0
    # out = 0.5 * (1*1.6*1*0.25 + 1*1.6*1*0.5 + 1*1.6*2*0.25) + 0.1 = 1.1
    out = colref.reference_output(two_array_layer(True),
                                  np.array([[0.5, 1.0, 1.5]]))
    assert out.shape == (1, 1)
    assert out[0, 0] == pytest.approx(1.1, abs=1e-12)


def test_colref_hand_computed_without_adc():
    # out = 0.5 * (1*1*0.25 + 3*1*0.5 + 3*2*0.25 + 0) + 0.1 = 1.725
    out = colref.reference_output(two_array_layer(False),
                                  np.array([[0.5, 1.0, 1.5]]))
    assert out[0, 0] == pytest.approx(1.725, abs=1e-12)


def test_colref_tolerances():
    layer = two_array_layer(True)
    x = np.array([[0.5, 1.0, 1.5]])
    assert colref.adc_step(layer) == pytest.approx(0.5 * 1.6 * 0.25)
    ok, err, _ = colref.check_layer(layer, x, np.array([[1.1]]), "float")
    assert ok and err < 1e-12
    ok, _, _ = colref.check_layer(layer, x, np.array([[1.1 + 0.2]]), "float")
    assert not ok


def test_im2col_matches_loop():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 3, 5, 6))
    kh, kw, s, p = 3, 2, 2, 1
    cols = colref.im2col(x, (kh, kw), (s, s), (p, p))
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    oh = (5 + 2 * p - kh) // s + 1
    ow = (6 + 2 * p - kw) // s + 1
    expected = []
    for n in range(2):
        for i in range(oh):
            for j in range(ow):
                expected.append(xp[n, :, i * s:i * s + kh,
                                   j * s:j * s + kw].reshape(-1))
    np.testing.assert_array_equal(cols, np.array(expected))


def test_quiet_half_keeps_least_steal_rounds_in_order():
    rounds = [(0.2, "a"), (0.0, "b"), (None, "c"), (0.1, "d"), (0.0, "e")]
    assert common.quiet_half(rounds) == (["b", "c", "e"], 0.0)
    rounds[1] = (0.15, "b")
    assert common.quiet_half(rounds) == (["c", "d", "e"], 0.1)


def test_degenerate_detection():
    assert common.degenerate_reason(np.ones((8, 10))) is not None
    rng = np.random.default_rng(1)
    assert common.degenerate_reason(rng.normal(size=(32, 10))) is None
    one_dead = rng.normal(size=(32, 10))
    one_dead[:, 3] = 0.5
    assert common.degenerate_reason(one_dead) is not None
    assert common.degenerate_reason(one_dead, every_logit=False) is None


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to one set-up and a few operations."""
    import wl_batch
    import wl_http
    import wl_qat
    for module in (wl_batch, wl_http, wl_qat):
        monkeypatch.setattr(module, "SETUP_REPEATS", 1)
    monkeypatch.setattr(common, "COLD_LOADS", 1)
    monkeypatch.setattr(wl_batch, "MIN_OPS", 1)
    monkeypatch.setattr(wl_http, "MIN_REQUESTS", 1)
    monkeypatch.setattr(wl_http, "WARMUP_ROUNDS", 0)
    monkeypatch.setattr(wl_qat, "MIN_STEPS", 2)
    monkeypatch.setattr(wl_qat, "ROUND_STEPS", 2)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_runs_tiny(tiny, capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "0",
                     "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    names = run.LAYER_UNITS if trace else run.E2E_UNITS
    assert sorted(result["metrics"]) == sorted(names)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(os.path.join(common.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "http_r8",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
