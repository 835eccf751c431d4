"""``qat_r20``: one-stage QAT steps at the paper setting, then export.

Set-up builds the paper-setting ResNet-20, calibrates it and creates the SGD
optimizer and the cross-entropy loss (repeated; ``setup_s`` is the median).
The measured phase runs training steps of one image each (forward, loss,
backward, SGD step) over a seeded pool of 64 labelled images, timed in CPU
time (``common.cpu_seconds``); one operation is one step.  The learning
rate is 1e-4: the run measures step cost, and at 1e-2 forty steps already
drive the 1-bit classifier ADC to a constant output (see README).  After
the measured phase one more operation exports the trained model: freeze,
capture, save, and reload the artifact.

Checks: every step's loss is finite; the trained artifact's float route is
bit-exact with the QAT model's eval forward on 16 images; every CIM layer of
the artifact agrees with the column-wise reference; the artifact's outputs
depend on the input.
"""

from __future__ import annotations

import os
import time

import numpy as np

import common

POOL = 64
STEP_BATCH = 1
LR = 1e-4
MIN_STEPS = 40         # enough steps for p75 to have ten samples beyond it
ROUND_STEPS = 8
TAIL_PCT = 75
SETUP_REPEATS = 3
CHECK_IMAGES = 32
SUBSET = 16


def set_up():
    from repro.nn.losses import CrossEntropyLoss
    from repro.nn.optim import SGD
    model = common.calibrate(common.build_model(20))
    model.train()
    return model, SGD(model.parameters(), lr=LR, momentum=0.9), \
        CrossEntropyLoss()


def run(seed: int, seconds: float, tracer, work: str) -> dict:
    from repro import engine
    from repro.core.pipeline import CIMLayerBase
    from repro.nn import Tensor, functional
    from repro.nn.tensor import no_grad
    from repro.quant.lsq import LSQQuantizer

    setup_s = []
    for _ in range(SETUP_REPEATS):
        model = None                    # free the previous repeat's model
        t0 = time.perf_counter()
        model, optimizer, loss_fn = set_up()
        setup_s.append(time.perf_counter() - t0)
    train_x, train_y = common.labelled(POOL, common.stream_seed(seed))
    check_x = common.images(CHECK_IMAGES, common.stream_seed(seed))

    tracer.wrap(CIMLayerBase, "forward", "core.cim_forward")
    tracer.wrap(LSQQuantizer, "forward", "quant.lsq")
    tracer.wrap(LSQQuantizer, "quantize_int", "quant.lsq")
    tracer.wrap(functional, "unfold", "nn.unfold")
    tracer.wrap(functional, "unfold_array", "nn.unfold")
    mark = tracer.mark()

    # ---- measured phase: training steps ------------------------------ #
    latencies, losses = [], []
    failed = 0
    steps = 0
    round_rates = []                 # images/s of each round of steps
    start = time.perf_counter()
    round_cpu = common.cpu_seconds()
    while True:
        first = (steps * STEP_BATCH) % POOL
        x = Tensor(train_x[first:first + STEP_BATCH])
        y = train_y[first:first + STEP_BATCH]
        t0 = common.cpu_seconds()
        with tracer.span("nn.forward"):
            loss = loss_fn(model(x), y)
        with tracer.span("nn.backward"):
            loss.backward()
        with tracer.span("nn.optim"):
            optimizer.step()
            optimizer.zero_grad()
        latencies.append(common.cpu_seconds() - t0)
        value = float(loss.data)
        losses.append(value)
        if not np.isfinite(value):
            failed += 1
        steps += 1
        if steps % ROUND_STEPS == 0:
            now = common.cpu_seconds()
            round_rates.append(ROUND_STEPS * STEP_BATCH / (now - round_cpu))
            round_cpu = now
            if (steps >= MIN_STEPS
                    and time.perf_counter() - start >= seconds):
                break
    peak_rss = common.peak_rss_mb()
    window = tracer.summary(mark)
    tracer.unwrap()

    # ---- export: freeze -> capture -> save -> reload, then check ------ #
    model.eval()
    with no_grad():
        qat_logits = np.array(model(Tensor(check_x[:SUBSET])).data)
    engine.freeze(model)
    plan = engine.compile_model_plan(model, name="resnet20-qat")
    path = os.path.join(work, "r20_trained.npz")
    with tracer.span("model_plan.save"):
        plan.save(path)
    cold = common.cold_loads(path, "float", 32)
    loaded = engine.load_plan(path)
    compiled = loaded.compile()
    outputs = engine.InferenceRunner(compiled, batch_size=8).predict(check_x)
    # Training can leave a classifier logit constant (its 1-bit ADC codes
    # all round alike; seen on some seeds, README), so the trained model
    # needs the median logit, not every logit, to clear the floor.
    reason = common.degenerate_reason(outputs, every_logit=False)
    if reason:
        raise RuntimeError(f"trained model: {reason}")
    layers_ok, checks, layer_errors = common.check_layers(
        loaded, check_x[:8], outputs[:8], "float")
    checks["constant_logits"] = int(np.sum(
        np.std(outputs, axis=0) <= common.STD_FLOOR))
    checks["qat_subset_bit_exact"] = bool(
        np.array_equal(outputs[:SUBSET], qat_logits))
    export_ok = layers_ok and checks["qat_subset_bit_exact"]
    failed += 0 if export_ok else 1

    e2e = {
        "setup_s": common.median(setup_s),
        "img_per_s": common.median(round_rates),
        "latency_p50_ms": common.median(latencies) * 1e3,
        "latency_tail_ms": common.percentile(latencies, TAIL_PCT) * 1e3,
        "first_result_ms": common.median(cold["first_ms"]),
        "artifact_bytes": float(os.path.getsize(path)),
        "peak_rss_mb": peak_rss,
    }
    layers = {}
    if tracer.enabled:
        def per_step(name):
            return window.get(name, {}).get("total_s", 0.0) * 1e3 / steps

        saves = tracer.summary().get("model_plan.save", {})["durations"]
        layers.update({
            "model_plan.load_ms": common.median(cold["load_ms"]),
            "model_plan.save_ms": common.median(saves) * 1e3,
            "compiler.compile_ms": common.median(cold["compile_ms"]),
            "nn.forward_ms": per_step("nn.forward"),
            "nn.backward_ms": per_step("nn.backward"),
            "nn.optim_ms": per_step("nn.optim"),
            "nn.unfold_ms": per_step("nn.unfold"),
            "core.cim_forward_ms": per_step("core.cim_forward"),
            "quant.lsq_ms": per_step("quant.lsq"),
        })
    return {
        "attempted": steps + 1, "failed": failed, "e2e": e2e,
        "layers": layers,
        "report": {"operations": {"train_steps": steps, "exports": 1,
                                  "nonfinite_losses": sum(
                                      1 for v in losses if not np.isfinite(v)),
                                  "export_ok": export_ok},
                   "loss_first_last": [losses[0], losses[-1]],
                   "tail_percentile": TAIL_PCT, "checks": checks,
                   "cold_first_ms": cold["first_ms"],
                   "colref": layer_errors, "setup_repeats_s": setup_s},
    }
