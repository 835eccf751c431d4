"""Shared pieces of the benchmark: paths, models, inputs, statistics, host.

The models are built through the public QAT surface (``repro.models``,
``repro.cim``) and calibrated by :func:`calibrate`; the input streams are
synthetic CIFAR-10 images drawn from the run's ``--seed``.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import subprocess
import sys
import time
from typing import Dict, List, Optional

import numpy as np

import colref

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SERVE_PY = os.path.join(ROOT, "tools", "serve.py")

#: Paper Table II, CIFAR-10: W3/A3/P1, 1 bit per cell, 128x128 arrays.
PAPER = dict(weight_bits=3, act_bits=3, psum_bits=1, cell_bits=1, array=128)
#: Fixed seed of every model's weights and calibration batch; ``--seed``
#: only draws the input streams, so every run measures the same models.
MODEL_SEED = 0
#: Images in the calibration batch (one train-mode forward, BN momentum 1).
CALIB_IMAGES = 16
#: Degeneracy floor: the smallest per-logit std across a stream.
STD_FLOOR = 1e-3
#: Fresh processes timing artifact load -> first prediction, one load each.
COLD_LOADS = 21
#: CPU-steal share above which a run's report warns that even the quiet
#: half of its rounds was slowed by the host.
STEAL_WARN = 0.05


class ProgramMissing(RuntimeError):
    """The checkout holds no program to benchmark."""


def use_program() -> None:
    """Put the checkout's ``src`` on the import path, or raise."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")) \
            or not os.path.isfile(SERVE_PY):
        raise ProgramMissing(f"no program under {ROOT}: expected "
                             "src/repro and tools/serve.py")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


# --------------------------------------------------------------------------- #
# models and inputs
# --------------------------------------------------------------------------- #
def paper_scheme():
    """Scheme and crossbar of the paper's CIFAR-10 setting."""
    from repro.cim import CIMConfig, QuantScheme
    scheme = QuantScheme(name="paper-cifar10",
                         weight_bits=PAPER["weight_bits"],
                         act_bits=PAPER["act_bits"],
                         psum_bits=PAPER["psum_bits"],
                         weight_granularity="column",
                         psum_granularity="column")
    cim = CIMConfig(array_rows=PAPER["array"], array_cols=PAPER["array"],
                    cell_bits=PAPER["cell_bits"], adc_bits=PAPER["psum_bits"],
                    dac_bits=PAPER["act_bits"])
    return scheme, cim


def build_model(depth: int, width: float = 1.0):
    """ResNet-20 (``depth=20``) or ResNet-8 at the paper setting, untrained."""
    from repro.models import resnet8, resnet20
    scheme, cim = paper_scheme()
    factory = {20: resnet20, 8: resnet8}[depth]
    return factory(num_classes=10, scheme=scheme, cim_config=cim,
                   width_multiplier=width, seed=MODEL_SEED)


def stream_seed(seed: int) -> int:
    """Dataset seed of a run's input stream (kept apart from MODEL_SEED)."""
    return 1000 + int(seed)


def images(count: int, seed: int, size: int = 32) -> np.ndarray:
    """``count`` synthetic CIFAR-10 images ``(count, 3, size, size)``."""
    from repro.data import synthetic_cifar10
    data = synthetic_cifar10(image_size=size, train_samples=0,
                             test_samples=count, seed=seed)
    return np.ascontiguousarray(data.test_images)


def labelled(count: int, seed: int, size: int = 32):
    """``count`` training images with labels."""
    from repro.data import synthetic_cifar10
    data = synthetic_cifar10(image_size=size, train_samples=count,
                             test_samples=0, seed=seed)
    return np.ascontiguousarray(data.train_images), data.train_labels


def calibrate(model, size: int = 32):
    """One no-grad train-mode forward with BatchNorm momentum 1.

    The forward initialises the lazy LSQ scales from train-mode activations;
    momentum 1 makes the running BatchNorm statistics equal that batch's
    statistics, so the eval-mode network sees the activations its scales
    were set for.  With the default momentum (0.1) one forward leaves the
    running statistics near their init, and the paper-setting network maps
    every input to the same logits (see README).
    """
    from repro.nn import Tensor
    from repro.nn.norm import BatchNorm2d
    from repro.nn.tensor import no_grad
    calib, _ = labelled(CALIB_IMAGES, MODEL_SEED, size)
    norms = [m for m in model.modules() if isinstance(m, BatchNorm2d)]
    saved = [m.momentum for m in norms]
    for m in norms:
        m.momentum = 1.0
    model.train()
    with no_grad():
        model(Tensor(calib))
    for m, momentum in zip(norms, saved):
        m.momentum = momentum
    model.eval()
    return model


def degenerate_reason(logits: np.ndarray,
                      every_logit: bool = True) -> Optional[str]:
    """Why ``logits`` (one row per input) look input-independent, or None.

    The inputs must reach at least two predicted classes, and the std of
    each logit across the inputs must clear :data:`STD_FLOOR` on every
    logit, or with ``every_logit=False`` on the median logit.
    """
    logits = np.asarray(logits)
    classes = len(set(np.argmax(logits, axis=1).tolist()))
    stds = np.std(logits, axis=0)
    std = float(np.min(stds) if every_logit else np.median(stds))
    if classes < 2 or std <= STD_FLOOR:
        return (f"degenerate model: {classes} distinct predicted class(es), "
                f"{'min' if every_logit else 'median'} per-logit std "
                f"{std:.3g} (floor {STD_FLOOR})")
    return None


def capture_layers(model_plan, batch):
    """Run ``batch`` through the uncompiled plan, recording every CIM layer
    call ``(plan, input, output)`` via the public ``execute`` methods."""
    from repro.engine import ConvPlan, LinearPlan
    calls = []
    originals = {cls: cls.__dict__["execute"]
                 for cls in (ConvPlan, LinearPlan)}

    def recorder(original):
        def execute(self, x, variation=None):
            out = original(self, x, variation)
            calls.append((self, np.array(x), np.array(out)))
            return out
        return execute

    try:
        for cls, original in originals.items():
            cls.execute = recorder(original)
        logits = np.array(model_plan.execute(batch))
    finally:
        for cls, original in originals.items():
            cls.execute = original
    return logits, calls


def check_layers(model_plan, batch, expected, route: str):
    """Replay ``batch`` through the uncompiled plan and check every CIM layer
    against the column-wise reference.

    Returns ``(ok, checks, layer_errors)``: ``ok`` is false when the replay's
    logits differ from ``expected`` (the measured route's output for the
    same batch) or any layer misses its tolerance.
    """
    replay, calls = capture_layers(model_plan, batch)
    names = [n.name for n in model_plan.nodes if n.op == "cim"]
    ok = np.array_equal(replay, expected) and len(calls) == len(names)
    errors = []
    for (layer, x, y), name in zip(calls, names):
        good, err, allowed = colref.check_layer(layer, x, y, route)
        errors.append({"layer": name, "max_abs_err": err,
                       "allowed": allowed, "ok": good})
        ok = ok and good
    checks = {"replay_bit_exact": bool(np.array_equal(replay, expected)),
              "colref_layers": len(names),
              "colref_layers_ok": sum(e["ok"] for e in errors),
              "colref_worst_share_of_allowed": max(
                  (e["max_abs_err"] / e["allowed"] for e in errors),
                  default=0.0)}
    return ok, checks, errors


def cold_loads(path: str, mode: str, image_size: int) -> dict:
    """Artifact load -> first prediction, timed in :data:`COLD_LOADS` fresh
    processes (``coldload.py``), in CPU time.  Returns per-process
    ``first_ms`` / ``load_ms`` / ``compile_ms`` lists."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "coldload.py"),
         "--artifact", path, "--mode", mode, "--image-size", str(image_size),
         "--count", str(COLD_LOADS)],
        check=True, capture_output=True, text=True, timeout=170)
    samples = {"first_ms": [], "load_ms": [], "compile_ms": []}
    for line in proc.stdout.strip().splitlines():
        for key, value in json.loads(line).items():
            samples[key].append(value)
    return samples


# --------------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------------- #
def quiet_half(rounds):
    """The rounds of a run that the host disturbed least.

    ``rounds`` is a list of ``(steal_share, round)`` pairs.  Returns the
    half of the rounds (rounded up) with the least CPU steal, in run order,
    and the largest steal share among them.  Time the hypervisor gives to
    other guests comes in bursts of seconds on a shared host; it is not the
    program's speed, and a run's figures taken over its quiet half repeat
    far better than over all its rounds.  When no round is quiet the steal
    share returned says so (see :data:`STEAL_WARN`).
    """
    order = sorted(range(len(rounds)), key=lambda i: (rounds[i][0] or 0.0, i))
    keep = order[:(len(rounds) + 1) // 2]
    worst = max((rounds[i][0] or 0.0 for i in keep), default=0.0)
    return [rounds[i][1] for i in sorted(keep)], worst


def cpu_seconds() -> float:
    """CPU time of this process, all threads, in seconds.

    The clock of the compute-bound operations (inference batches, training
    steps, cold loads).  BLAS runs one thread (``run.py``), so the process
    computes on one CPU and its CPU time is the work done.  On the 2-vCPU
    shared host the wall clock also counts the time the hypervisor gives
    other guests (the CPU steal in ``/proc/stat``, which the kernel keeps
    out of a task's CPU time) and the time other processes hold the CPU;
    both come in bursts of seconds to minutes and moved wall-clock
    throughput by up to 29% between runs of the same code.
    """
    return time.process_time()


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile (an observed sample, not interpolated)."""
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    rank = int(np.ceil(pct / 100.0 * len(ordered))) - 1
    return float(ordered[min(max(rank, 0), len(ordered) - 1)])


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------- #
# host record
# --------------------------------------------------------------------------- #
def _cpu_times() -> Optional[List[int]]:
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    return [int(v) for v in fields[1:]] if fields and fields[0] == "cpu" \
        else None


class StealMeter:
    """CPU-steal share of all CPU time from construction to :meth:`share`."""

    def __init__(self):
        self.start = _cpu_times()

    def share(self) -> Optional[float]:
        end = _cpu_times()
        if self.start is None or end is None or len(end) < 8:
            return None
        delta = [b - a for a, b in zip(self.start, end)]
        total = sum(delta[:8])          # user..steal; guest is inside user
        return delta[7] / total if total > 0 else 0.0


def _blas_threads() -> str:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if os.environ.get(var):
            return f"{os.environ[var]} ({var})"
    return f"{os.cpu_count()} (library default: one per CPU)"


def host_record() -> Dict[str, object]:
    """nproc, Python, numpy and BLAS versions, BLAS thread count."""
    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError, ValueError):
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": _blas_threads(), "machine": platform.machine()}
