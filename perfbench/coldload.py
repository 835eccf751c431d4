"""Artifact load -> first prediction, timed in fresh processes.

Usage::

    python3 perfbench/coldload.py --artifact PATH --mode float|int \
        --image-size 32 --count N

Imports the program, then forks ``N`` children one at a time.  Each child
times one load, the first its process makes: ``engine.load_plan`` ->
``ModelPlan.compile()`` -> one prediction on a one-image batch.  This
process has loaded no artifact and run no prediction, so each child pays
what a freshly started server pays after its imports: the lazy
process-wide caches (im2col indices) are filled and BLAS runs its first
call.  The times are the child's CPU time (``common.cpu_seconds``).
Prints one JSON object per child with ``first_ms``, ``load_ms`` and
``compile_ms``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402

import common  # noqa: E402


def first_load(engine, args, image) -> dict:
    t0 = common.cpu_seconds()
    loaded = engine.load_plan(args.artifact, mode=args.mode)
    t1 = common.cpu_seconds()
    compiled = loaded.compile()
    t2 = common.cpu_seconds()
    compiled.execute(image)
    t3 = common.cpu_seconds()
    return {"first_ms": (t3 - t0) * 1e3, "load_ms": (t1 - t0) * 1e3,
            "compile_ms": (t2 - t1) * 1e3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--artifact", required=True)
    parser.add_argument("--mode", required=True)
    parser.add_argument("--image-size", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    args = parser.parse_args(argv)
    common.use_program()
    from repro import engine
    image = np.random.default_rng(0).normal(
        size=(1, 3, args.image_size, args.image_size))
    gc.freeze()        # the children's collector leaves our objects alone
    for _ in range(args.count):
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:                          # child: one load, then exit
            code = 1
            try:
                os.close(read_fd)
                os.write(write_fd,
                         json.dumps(first_load(engine, args, image)).encode())
                code = 0
            finally:
                os._exit(code)
        os.close(write_fd)
        with os.fdopen(read_fd, encoding="utf-8") as pipe:
            line = pipe.read()
        _, status = os.waitpid(pid, 0)
        if status != 0 or not line:
            raise RuntimeError(f"cold-load child failed (status {status})")
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
