"""Run ``tools/serve.py`` with optional spans, and report its peak memory.

Usage::

    python3 perfbench/serve_launcher.py --report OUT.json [--trace 1] \
        -- <tools/serve.py arguments>

The launcher loads ``tools/serve.py`` from the checkout, wraps the public
functions whose time the benchmark attributes to a layer (``--trace 1``),
then calls the script's ``main``.  When ``main`` returns (SIGTERM drains the
server) it writes ``OUT.json``: the process's peak RSS and, when traced, the
span summary and counters.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
from spans import Tracer  # noqa: E402


def install_spans(tracer: Tracer) -> None:
    """Wrap the serving path's public functions with spans."""
    if not tracer.enabled:
        return
    from repro.engine import model_plan, plan, runner, wire
    from repro.nn import functional

    def batch_size(tr, args, kwargs, result):
        tr.count("scheduler.batches")
        tr.count("scheduler.samples", float(args[1].shape[0]))

    names = {}

    def remember_layers(tr, args, kwargs, result):
        graph = getattr(result, "plan", result)    # a CompiledPlan wraps one
        for node in graph.nodes:
            if node.op == "cim":
                names[id(graph.layer_plans[node.plan_index])] = node.name

    def layer_name(args):
        return "plan." + names.get(id(args[0]), "unknown")

    tracer.wrap(wire, "decode_predict_request", "wire.decode")
    tracer.wrap(wire, "encode_predict_response", "wire.encode")
    tracer.wrap(runner.PlanExecutor, "execute_batch", "runner.batch",
                on_call=batch_size)
    tracer.wrap(model_plan, "load_model_plan", "model_plan.load",
                on_call=remember_layers)
    tracer.wrap(functional, "unfold_array", "nn.unfold")
    tracer.wrap(plan.ConvPlan, "execute", layer_name)
    tracer.wrap(plan.LinearPlan, "execute", layer_name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args[1:] if args.serve_args[:1] == ["--"] \
        else args.serve_args
    common.use_program()
    spec = importlib.util.spec_from_file_location("serve", common.SERVE_PY)
    serve = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(serve)
    tracer = Tracer(enabled=bool(args.trace))
    install_spans(tracer)
    try:
        code = serve.main(serve_args)
    finally:
        report = {"peak_rss_mb": common.peak_rss_mb(),
                  "spans": tracer.totals(),
                  "load_ms": [d * 1e3 for d in tracer.summary()
                              .get("model_plan.load", {})
                              .get("durations", [])],
                  "counts": tracer.counts}
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(report, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
