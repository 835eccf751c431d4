"""The repository benchmark: one command, four workloads, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload batch_r20_float --seed 1 \
        --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload with spans around the program's public functions and prints the
per-layer metrics instead.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the per-run report
(operations, checks, host record, CPU steal) goes to standard error and to
``perfbench/.out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

# One BLAS thread for this process and every process it starts (set before
# numpy is imported): the host has two shared vCPUs, and a second BLAS
# thread there measures the scheduler and makes process CPU time, the clock
# of the compute-bound workloads, count its spin-waits (README).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
from spans import Tracer  # noqa: E402

with open(os.path.join(common.ROOT, "BENCHMARK.json"),
          encoding="utf-8") as _spec:
    SPEC = json.load(_spec)
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def run_workload(name: str, seed: int, seconds: float, tracer: Tracer,
                 work: str) -> dict:
    if name in ("batch_r20_float", "batch_r20_int"):
        import wl_batch
        return wl_batch.run(name.rsplit("_", 1)[1], seed, seconds, tracer,
                            work)
    if name == "http_r8":
        import wl_http
        return wl_http.run(seed, seconds, tracer, work)
    import wl_qat
    return wl_qat.run(seed, seconds, tracer, work)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        common.use_program()
    except common.ProgramMissing as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    steal = common.StealMeter()
    out_dir = os.path.join(common.HERE, ".out")
    os.makedirs(out_dir, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=out_dir)
    tracer = Tracer(enabled=bool(args.trace))
    started = time.time()
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              tracer, work)
    finally:
        tracer.unwrap()
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        values = {name: result["layers"].get(name, 0.0)
                  for name in LAYER_UNITS}
        values["trace.img_per_s"] = result["e2e"]["img_per_s"]
        metrics = {name: {"value": float(values[name]),
                          "unit": LAYER_UNITS[name]} for name in LAYER_UNITS}
    else:
        metrics = {name: {"value": float(result["e2e"][name]),
                          "unit": unit} for name, unit in E2E_UNITS.items()}
    report = dict(result["report"])
    report.update({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "attempted": result["attempted"], "failed": result["failed"],
        "unix_time": started, "host": common.host_record(),
        "cpu_steal_share": steal.share(),
        "end_to_end": result["e2e"], "per_layer": result["layers"],
    })
    # Only wall-clock figures (http_r8) are slowed by steal.
    steal_kept = report.get("quiet_half_max_steal")
    report["host_disturbed"] = bool(steal_kept
                                    and steal_kept > common.STEAL_WARN)
    if report["host_disturbed"]:
        print(f"perfbench: warning: the measured rounds had up to "
              f"{steal_kept:.0%} CPU steal; throughput and latency are "
              "slowed by the host, not the program", file=sys.stderr)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        report["spans"] = tracer.totals()
        tracer.dump(os.path.join(out_dir, f"spans-{stem}.json"))
    report_path = os.path.join(out_dir, f"report-{stem}.json")
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
    details = ("colref", "per_layer", "spans", "server_spans")
    print(json.dumps({k: v for k, v in report.items() if k not in details},
                     sort_keys=True), file=sys.stderr)
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
