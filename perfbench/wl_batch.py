"""``batch_r20_float`` / ``batch_r20_int``: offline ResNet-20 inference.

Set-up (in ``prepare_r20.py``, its own process) builds, calibrates, freezes
and saves the paper-setting ResNet-20.  This process then loads the artifact
(``engine.load_plan`` + ``ModelPlan.compile()``) and feeds a seeded pool of
64 images through ``InferenceRunner`` in batches of 8, round after round,
for the run's length.  One operation is one batch; its time is CPU time
(``common.cpu_seconds``).

Checks, each counted against the operation whose output it covers:

* every batch after the first round is bit-identical to the same batch of
  the first round;
* the first measured batch is replayed through the uncompiled ``ModelPlan``
  with ``ConvPlan.execute`` / ``LinearPlan.execute`` wrapped: its logits
  equal the compiled route's bit for bit, and every CIM layer agrees with
  the column-wise reference (``colref``);
* float route: the first 16 images' logits are bit-exact with the unfrozen
  QAT model's eval forward;
* int route: batch size 1 gives the same bits as batch size 8.  Each
  image's distance from the float route is reported against
  ``int_drift_bound()`` but not counted: on a few inputs a sub-1e-6 drift
  flips an activation code at a rounding boundary and the logits move by
  whole units, which a seeded stream hits only on some seeds (README).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np

import common

BATCH = 8
POOL = 64
SUBSET = 16
MIN_OPS = 40           # p75 has ten batches beyond it
TAIL_PCT = 75
SETUP_REPEATS = 3


def run(route: str, seed: int, seconds: float, tracer, work: str) -> dict:
    from repro import engine
    from repro.engine.runner import PlanExecutor
    from repro.engine.compiler import CompiledPlan
    from repro.nn import functional

    # ---- set-up: its own process, repeated; setup_s is the median ----- #
    prepare = os.path.join(common.HERE, "prepare_r20.py")
    subprocess.run([sys.executable, prepare, "--out", work,
                    "--seed", str(seed), "--repeats", str(SETUP_REPEATS)],
                   check=True, timeout=170)
    with open(os.path.join(work, "prepare.json"), encoding="utf-8") as handle:
        prepared = json.load(handle)
    path = os.path.join(work, "r20.npz")
    qat_logits = np.load(os.path.join(work, "qat_logits.npy"))
    pool = common.images(POOL, common.stream_seed(seed))
    batches = [pool[i:i + BATCH] for i in range(0, POOL, BATCH)]

    model_plan = engine.load_plan(path)
    compiled = model_plan.compile()
    runner = engine.InferenceRunner(compiled, batch_size=BATCH, mode=route,
                                    collect_timings=tracer.enabled)
    runner.predict(batches[-1])                     # warm-up, not counted

    tracer.wrap(PlanExecutor, "execute_batch", "runner.batch")
    tracer.wrap(CompiledPlan, "execute", "compiler.execute")
    tracer.wrap(functional, "unfold_array", "nn.unfold")
    runner.stats.reset()
    mark = tracer.mark()

    # ---- measured phase: CPU time per batch (see common.cpu_seconds) -- #
    latencies, first_round = [], []
    failed_ops = set()
    ops = 0
    round_rates = []
    start = time.perf_counter()
    round_cpu = common.cpu_seconds()
    while True:
        index = ops % len(batches)
        t0 = common.cpu_seconds()
        out = runner.predict(batches[index])
        latencies.append(common.cpu_seconds() - t0)
        if ops < len(batches):
            first_round.append(out)
        elif not np.array_equal(out, first_round[index]):
            failed_ops.add(ops)
        ops += 1
        if ops % len(batches) == 0:
            round_rates.append(POOL / (common.cpu_seconds() - round_cpu))
            if ops >= MIN_OPS and time.perf_counter() - start >= seconds:
                break
            round_cpu = common.cpu_seconds()
    peak_rss = common.peak_rss_mb()
    window = tracer.summary(mark)
    tracer.unwrap()
    step_seconds = dict(runner.stats.layer_seconds)
    arena_bytes = runner.stats.arena_bytes

    # ---- checks -------------------------------------------------------- #
    outputs = np.concatenate(first_round)
    reason = common.degenerate_reason(outputs)
    if reason:
        raise RuntimeError(f"{route} route: {reason}")
    layers_ok, checks, layer_errors = common.check_layers(
        model_plan, batches[0], first_round[0], route)
    if not layers_ok:
        failed_ops.add(0)
    cim_nodes = [n.name for n in model_plan.nodes if n.op == "cim"]
    if route == "float":
        for b in range(SUBSET // BATCH):
            if not np.array_equal(first_round[b],
                                  qat_logits[b * BATCH:(b + 1) * BATCH]):
                failed_ops.add(b)
        checks["qat_subset_bit_exact"] = not failed_ops & set(
            range(SUBSET // BATCH))
    else:
        reference = engine.load_plan(path).compile()   # a float-route copy
        drift = np.max(np.abs(outputs - np.concatenate(
            [reference.execute(batch) for batch in batches])), axis=1)
        bound = compiled.int_drift_bound()
        checks["int_drift_worst"], checks["int_drift_bound"] = \
            float(np.max(drift)), bound
        checks["int_drift_images_beyond_bound"] = np.flatnonzero(
            drift > bound).tolist()
        single = engine.InferenceRunner(compiled, batch_size=1)
        same = np.array_equal(single.predict(batches[0]), first_round[0])
        checks["batch1_bit_identical"] = bool(same)
        if not same:
            failed_ops.add(0)

    # ---- artifact load -> first prediction, in fresh processes -------- #
    cold = common.cold_loads(path, route, 32)

    e2e = {
        "setup_s": common.median(prepared["setup_s"]),
        "img_per_s": common.median(round_rates),
        "latency_p50_ms": common.median(latencies) * 1e3,
        "latency_tail_ms": common.percentile(latencies, TAIL_PCT) * 1e3,
        "first_result_ms": common.median(cold["first_ms"]),
        "artifact_bytes": float(os.path.getsize(path)),
        "peak_rss_mb": peak_rss,
    }
    layers = {}
    if tracer.enabled:
        per_op = 1e3 / ops
        cim = {name: 0.0 for name in cim_nodes}
        for step, secs in step_seconds.items():
            head = step.split("+")[0]
            if head in cim:
                cim[head] += secs
        total_cim = sum(cim.values())
        layers.update({
            "model_plan.load_ms": common.median(cold["load_ms"]),
            "model_plan.save_ms": common.median(prepared["save_ms"]),
            "compiler.compile_ms": common.median(cold["compile_ms"]),
            "compiler.arena_bytes": float(arena_bytes),
            "compiler.glue_ms": (window["compiler.execute"]["total_s"]
                                 - total_cim) * per_op,
            "plan.cim_ms": total_cim * per_op,
            "nn.unfold_ms": window.get("nn.unfold", {}).get("total_s", 0.0)
            * per_op,
            "runner.batch_ms": window["runner.batch"]["total_s"] * per_op,
        })
        for name, secs in cim.items():
            layers[f"plan.{name}_ms"] = secs * per_op
    return {
        "attempted": ops, "failed": len(failed_ops), "e2e": e2e,
        "layers": layers,
        "report": {"operations": {"batches": ops,
                                  "failed_batches": sorted(failed_ops)},
                   "tail_percentile": TAIL_PCT, "checks": checks,
                   "cold_first_ms": cold["first_ms"],
                   "round_rates": round_rates,
                   "colref": layer_errors,
                   "setup_repeats_s": prepared["setup_s"]},
    }
