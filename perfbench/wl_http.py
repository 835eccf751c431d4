"""``http_r8``: small requests over keep-alive HTTP, with rolling reloads.

A ResNet-8 at the paper setting (16x16 inputs, width 0.5) is calibrated,
frozen and saved; ``tools/serve.py`` serves it from a subprocess started
through ``serve_launcher.py``.  Two client threads, each on its own
keep-alive connection, send one-image predict requests in a closed loop.
One round is 100 requests; halfway through every round the artifact is
rewritten on disk and ``POST /v1/models/r8/reload``-ed while the clients
keep sending.  Two warm-up rounds run first, checked but not timed.
Operations are requests and reloads; latencies are wall-clock, as a client
sees them.

Checks: every response is 200; every response's outputs are bit-identical
to the same artifact run in this process (``engine.load_plan``, batch 1);
every reload answers 200 with the rewritten file's ``mtime_ns`` and size and
a reload count one higher than before.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np

import common

IMAGE = 16
WIDTH = 0.5
POOL = 64
CLIENTS = 2            # below saturation of a 2-vCPU host with the server
ROUND = 100            # requests per round; one reload per round
MIN_REQUESTS = 2000    # >= 20 rounds: the quiet half holds >= 10 rounds
TAIL_PCT = 90          # per round of 100 requests: ten samples beyond it
WARMUP_ROUNDS = 2      # checked but not timed: the server's first batches
SETUP_REPEATS = 3
SERVER_ARGS = ["--shards", "2", "--max-batch", "8", "--max-wait-ms", "2",
               "--queue-size", "256"]


class Server:
    """A ``tools/serve.py`` process started through the launcher."""

    def __init__(self, artifact: str, work: str, trace: bool, tag: str):
        self.report = os.path.join(work, f"server-{tag}.json")
        self.log = open(os.path.join(work, f"server-{tag}.log"), "w+",
                        encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(common.HERE, "serve_launcher.py"),
             "--report", self.report, "--trace", str(int(trace)), "--",
             "--model", f"r8={artifact}", "--port", "0"] + SERVER_ARGS,
            stdout=self.log, stderr=subprocess.STDOUT)
        self.port = self._wait_listening()

    def _wait_listening(self, timeout: float = 60.0) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            self.log.seek(0)
            for line in self.log.read().splitlines():
                if "listening on http://" in line:
                    return int(line.split("listening on http://", 1)[1]
                               .split()[0].rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        raise RuntimeError("server did not start: " + self._log_text())

    def _log_text(self) -> str:
        self.log.seek(0)
        return self.log.read()[-2000:]

    def stop(self) -> dict:
        """SIGTERM (graceful drain), wait, and return the launcher report."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        try:
            with open(self.report, encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return {}


def set_up(artifact: str, work: str, trace: bool, tag: str, tracer):
    """Build, calibrate, freeze, save, reference outputs, start the server."""
    from repro import engine
    model = common.calibrate(common.build_model(8, WIDTH), IMAGE)
    engine.freeze(model)
    plan = engine.compile_model_plan(model, name="resnet8-paper")
    with tracer.span("model_plan.save"):
        plan.save(artifact)
    return plan, Server(artifact, work, trace, tag)


def run(seed: int, seconds: float, tracer, work: str) -> dict:
    from repro import engine
    artifact = os.path.join(work, "r8.npz")
    pool = common.images(POOL, common.stream_seed(seed), IMAGE)
    bodies = [json.dumps({"inputs": [img.tolist()]}).encode() for img in pool]

    # ---- set-up, repeated; the last server is the measured one ------- #
    setup_s, server = [], None
    try:
        for k in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            t0 = time.perf_counter()
            plan, server = set_up(artifact, work, tracer.enabled, str(k),
                                  tracer)
            local = engine.load_plan(artifact)
            reference = np.concatenate([local.execute(img[None])
                                        for img in pool])
            setup_s.append(time.perf_counter() - t0)
        reason = common.degenerate_reason(reference)
        if reason:
            raise RuntimeError(f"http_r8 model: {reason}")
    except BaseException:
        if server is not None:
            server.stop()
        raise

    lock = threading.Lock()
    records = []                     # (ok, status, latency_s, queue, compute)
    bytes_io = [0, 0]
    state = {"done": 0}
    halfway = threading.Event()
    path = "/v1/models/r8/predict"

    def client(thread: int, first: int, count: int) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=60)
        try:
            for k in range(count):
                idx = (first + thread + k * CLIENTS) % POOL
                status, data, ok, queue, compute = 0, b"", False, 0.0, 0.0
                t0 = time.perf_counter()
                try:
                    conn.request("POST", path, body=bodies[idx],
                                 headers={"Content-Type": "application/json"})
                    resp = conn.getresponse()
                    status, data = resp.status, resp.read()
                except (OSError, http.client.HTTPException):
                    conn.close()             # reconnects on the next request
                latency = time.perf_counter() - t0
                if status == 200:
                    try:
                        doc = json.loads(data)
                        ok = np.array_equal(np.asarray(doc["outputs"]),
                                            reference[idx:idx + 1])
                        queue = float(doc["timing_ms"]["queue"])
                        compute = float(doc["timing_ms"]["compute"])
                    except Exception:        # a malformed body fails it
                        ok = False
                with lock:
                    records.append((ok, status, latency, queue, compute))
                    bytes_io[0] += len(bodies[idx])
                    bytes_io[1] += len(data)
                    state["done"] += 1
                    if state["done"] == ROUND // 2:
                        halfway.set()
        finally:
            conn.close()

    reloads = []                     # (ok, latency_s)
    reloads_seen = [0]               # the server's reload count so far
    control = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)

    def reload_once() -> None:
        before = reloads_seen[0]
        tmp = artifact + ".next.npz"
        with tracer.span("model_plan.save"):
            plan.save(tmp)
        os.replace(tmp, artifact)
        stat = os.stat(artifact)
        ok = False
        t0 = time.perf_counter()
        try:
            control.request("POST", "/v1/models/r8/reload", body=b"")
            resp = control.getresponse()
            status, data = resp.status, resp.read()
        except (OSError, http.client.HTTPException):
            control.close()                  # reconnects on the next reload
            status, data = 0, b""
        latency = time.perf_counter() - t0
        if status == 200:
            try:
                doc = json.loads(data)
                version = doc.get("artifact") or {}
                ok = (doc.get("reloads") == before + 1
                      and version.get("mtime_ns") == stat.st_mtime_ns
                      and version.get("size_bytes") == stat.st_size)
                reloads_seen[0] = doc.get("reloads", before)
            except Exception:                # a malformed body fails it
                ok = False
        reloads.append((ok, latency))

    def one_round() -> tuple:
        """ROUND requests with one reload halfway; (steal share, (requests/s,
        p50 ms, tail ms))."""
        meter = common.StealMeter()
        first_record = len(records)
        round_start = time.perf_counter()
        state["done"] = 0
        halfway.clear()
        per = ROUND // CLIENTS
        threads = [threading.Thread(target=client,
                                    args=(t, first_record, per))
                   for t in range(CLIENTS)]
        for thread in threads:
            thread.start()
        halfway.wait(timeout=60)
        reload_once()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - round_start
        done = records[first_record:]
        if len(done) != ROUND:
            raise RuntimeError(f"http_r8: a round recorded {len(done)} "
                               f"of {ROUND} requests (a client died)")
        latency = [r[2] * 1e3 for r in done]
        return meter.share(), (len(done) / elapsed, common.median(latency),
                               common.percentile(latency, TAIL_PCT))

    # ---- measured phase, after warm-up rounds ------------------------- #
    rounds = []              # (steal share, (requests/s, p50 ms, tail ms))
    try:
        for _ in range(WARMUP_ROUNDS):
            one_round()
        start = time.perf_counter()
        while (time.perf_counter() - start < seconds
               or len(rounds) * ROUND < MIN_REQUESTS):
            rounds.append(one_round())
    finally:
        control.close()
        served = server.stop()

    # ---- artifact load -> first prediction, in fresh processes -------- #
    cold = common.cold_loads(artifact, "float", IMAGE)

    requests = len(records)
    failed = sum(1 for r in records if not r[0]) \
        + sum(1 for ok, _ in reloads if not ok)
    # A round's figures are scaled to the CPU time the host gave the guest
    # (1 - steal share): the client and the server keep both CPUs busy, so
    # a round with steal share s ran on 1 - s of the host time (README).
    quiet, quiet_steal = common.quiet_half(
        [(steal, (rate / (1.0 - (steal or 0.0)), p50 * (1.0 - (steal or 0.0)),
                  tail * (1.0 - (steal or 0.0))))
         for steal, (rate, p50, tail) in rounds])
    e2e = {
        "setup_s": common.median(setup_s),
        "img_per_s": common.median([q[0] for q in quiet]),
        "latency_p50_ms": common.median([q[1] for q in quiet]),
        "latency_tail_ms": common.median([q[2] for q in quiet]),
        "first_result_ms": common.median(cold["first_ms"]),
        "artifact_bytes": float(os.path.getsize(artifact)),
        "peak_rss_mb": float(served.get("peak_rss_mb", 0.0)),
    }
    layers = {}
    if tracer.enabled:
        spans = served.get("spans", {})
        counts = served.get("counts", {})

        def per_request(name):
            return spans.get(name, {}).get("total_s", 0.0) * 1e3 / requests

        saves = tracer.summary()["model_plan.save"]["durations"]
        layers.update({
            "model_plan.load_ms": common.median(served.get("load_ms") or [0]),
            "model_plan.save_ms": common.median(saves) * 1e3,
            "compiler.compile_ms": common.median(cold["compile_ms"]),
            "plan.cim_ms": sum(v["total_s"] for k, v in spans.items()
                               if k.startswith("plan.")) * 1e3 / requests,
            "nn.unfold_ms": per_request("nn.unfold"),
            "runner.batch_ms": per_request("runner.batch"),
            "wire.decode_ms": per_request("wire.decode"),
            "wire.encode_ms": per_request("wire.encode"),
            "wire.request_bytes": bytes_io[0] / requests,
            "wire.response_bytes": bytes_io[1] / requests,
            "scheduler.queue_wait_ms": float(np.mean([r[3] for r in records])),
            "scheduler.batch_samples": (counts.get("scheduler.samples", 0.0)
                                        / max(counts.get("scheduler.batches",
                                                         1.0), 1.0)),
            "server.compute_ms": float(np.mean([r[4] for r in records])),
            "netserver.overhead_ms": float(np.mean(
                [r[2] * 1e3 - r[3] - r[4] for r in records])),
            "netserver.reload_ms": common.median([lat for _, lat in reloads])
            * 1e3,
            "netserver.rejected": float(sum(1 for r in records
                                            if r[1] == 503)),
        })
        for name, entry in spans.items():
            if name.startswith("plan."):
                layers[name + "_ms"] = entry["total_s"] * 1e3 / requests
    return {
        "attempted": requests + len(reloads), "failed": failed,
        "e2e": e2e, "layers": layers,
        "report": {"operations": {
            "requests": requests, "reloads": len(reloads),
            "failed_requests": sum(1 for r in records if not r[0]),
            "failed_reloads": sum(1 for ok, _ in reloads if not ok),
            "status_counts": {str(s): sum(1 for r in records if r[1] == s)
                              for s in sorted({r[1] for r in records})}},
            "tail_percentile": TAIL_PCT, "setup_repeats_s": setup_s,
            "rounds_rate_p50_tail_steal": [r[1] + (r[0],) for r in rounds],
            "quiet_half_max_steal": quiet_steal,
            "cold_first_ms": cold["first_ms"],
            "clients": CLIENTS, "loop": "closed",
            "server_spans": served.get("spans", {})},
    }
