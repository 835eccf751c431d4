"""Set-up of the ``batch_r20_*`` workloads, run in its own process.

Usage::

    python3 perfbench/prepare_r20.py --out DIR --seed N --repeats K

Builds the paper-setting ResNet-20, calibrates it (see
:func:`common.calibrate`), computes the unfrozen QAT model's eval-mode logits
on the reference subset of the run's input stream (``wl_batch.SUBSET`` of
its ``wl_batch.POOL`` images), freezes it, captures the
model plan and saves the artifact to ``DIR/r20.npz``.  The whole set-up runs
``K`` times; ``DIR/prepare.json`` gets each repeat's seconds and the save
times.  A separate process keeps the QAT model out of the measuring
process, whose peak RSS is a metric.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402

import common  # noqa: E402
import wl_batch  # noqa: E402
from spans import Tracer  # noqa: E402


def set_up(out_dir: str, subset: np.ndarray, tracer: Tracer) -> np.ndarray:
    """One full set-up; returns the QAT reference logits of ``subset``."""
    from repro import engine
    from repro.nn import Tensor
    from repro.nn.tensor import no_grad
    model = common.calibrate(common.build_model(20))
    with no_grad():
        reference = np.array(model(Tensor(subset)).data)
    engine.freeze(model)
    plan = engine.compile_model_plan(model, name="resnet20-paper")
    with tracer.span("model_plan.save"):
        plan.save(os.path.join(out_dir, "r20.npz"))
    return reference


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--repeats", type=int, required=True)
    args = parser.parse_args(argv)
    common.use_program()
    stream = common.images(wl_batch.POOL, common.stream_seed(args.seed))
    subset = stream[:wl_batch.SUBSET]
    tracer = Tracer(enabled=True)      # save spans only; cheap either way
    seconds = []
    for _ in range(args.repeats):
        start = time.perf_counter()
        reference = set_up(args.out, subset, tracer)
        seconds.append(time.perf_counter() - start)
    np.save(os.path.join(args.out, "qat_logits.npy"), reference)
    saves = tracer.summary().get("model_plan.save", {}).get("durations", [])
    with open(os.path.join(args.out, "prepare.json"), "w",
              encoding="utf-8") as handle:
        json.dump({"setup_s": seconds, "save_ms": [s * 1e3 for s in saves]},
                  handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
