"""Benchmark of the flowexplain explain pipeline, end to end and per layer.

    python3 bench/run.py --workload batch-deep --seed 1 --seconds 48 --trace 0

Workloads (inputs are generated from ``--seed``; see ``inputs.py``):

``batch-deep``
    ``run_ingest`` over a 20k-row export (40% malicious), then
    ``run_explain`` in augmented mode with 2 workers over a stratified
    sample of 1000 malicious flows, against the stub chat-completion
    server (``stub_llm.py``) through ``backend.kind = "local"``; two
    ingests and one explain pass repeat until the run's seconds are spent.
    The fixed address pools give every address hundreds to thousands of
    history rows, every prompt overflows the token budget, and the
    ~1k-character answers carry seeded wrong values for the checkers to find.
``service-stream``
    Eight rounds, each ``flowexplain ingest`` over a 2k-row export, then
    ``flowexplain serve`` in a child process. Unlabelled malicious flows,
    half basic and half augmented, are POSTed to ``/explain``: 20 untimed,
    then 400 sent one after another (the latency sample), then a
    closed-loop window with 2 clients that fills the rest of the round.
    Every request appends to the file-backed store, history is shallow and
    the mock backend keeps the gateway idle.

End-to-end metrics: ``setup_s`` is the median set-up (ingest, and for the
service the start until ``/health`` answers; one per round, or two per
explain pass); ``cpu_ms_per_flow`` is the program process's CPU time (all
threads, user and system) per explained flow, the median over
``run_explain`` passes or over the rounds' sequential windows;
``peak_rss_mb`` is the program process's high-water mark. Wall-clock
figures are printed on an earlier line, under ``wall``: flows per second
(the median pass, or the median round's closed-loop requests per second)
and mean latency (per flow from the run log's started/finished stamps, or
per request of the sequential window), with each pass's or round's p50,
p95 and p99 beside them. They are not gated: on a shared 2-vCPU host, in
slow spells of about a minute, the service's mean latency doubled while
its CPU time per request rose by under half, and ten runs of the service
spread by up to 0.7 of their median in latency against a 0.25 bound.

With ``--trace 0`` the last line of stdout is the result with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
a traced run (``tracer.py``) plus the tracing overhead; a layer that a
workload never calls reads 0. Earlier lines hold
the machine facts, input properties and details. The command exits
non-zero when the program's outputs fail a correctness check.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import http.client
import itertools
import json
import os
import platform
import random
import shutil
import signal
import sqlite3
import statistics
import subprocess
import sys
import threading
import time
from datetime import datetime
from pathlib import Path

import stub_llm
import tracer

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
PYTHONPATH = os.pathsep.join(str(p) for p in (REPO / "src", REPO, BENCH))
sys.path[:0] = [str(REPO / "src"), str(REPO)]

BATCH_ROWS = 20_000
BATCH_SAMPLE = 1000
BATCH_WORKERS = 2  # two threads expose store-lock and interpreter contention
SERVICE_ROWS = 2_000
SERVICE_REQUEST_POOL = 6000  # cycled through when a run sends more
CLOSED_LOOP_CLIENTS = 2
# Service load comes in rounds of a set-up, one sequential window and one
# closed-loop window, so all three sample the whole run, and each metric is
# the median over rounds: a 2-vCPU shared host's speed swings about 1.5x on
# 10-s scales, and a stall then moves a round or two, not the metric. Each
# round starts from a freshly ingested store, so the store's depth, which
# the requests grow, does not drift with the run's request count. Latency is
# sampled from one client sending requests back to back, so no request
# queues behind another and a slower machine shows as slower requests, not
# as a growing backlog that an open loop at a fixed rate would add on top.
# Basic requests take about 4 ms and augmented ones about 7 ms, so the
# median of an even mix falls in the gap between them, where it is set by
# the slowest basic and the fastest augmented request; the mean is reported
# instead.
ROUNDS = 8
SEQUENTIAL_WINDOW = 400
WARMUP_REQUESTS = 20  # per server start, untimed
TRACED_REQUESTS = 1000  # per server in a traced run
CHILD_TIMEOUT_S = 170


class CheckFailed(Exception):
    """The program's output failed a correctness check."""


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=PYTHONPATH, PYTHONUNBUFFERED="1")


def environment() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version,
        "loadavg": os.getloadavg(),
    }


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100)[q - 1]


def quantile_summary(values: list[float]) -> dict:
    return {"n": len(values), "mean": statistics.fmean(values), "p50": statistics.median(values),
            "p95": percentile(values, 95), "p99": percentile(values, 99), "max": max(values)}


# -- child processes ---------------------------------------------------------


def start_child(argv: list[str]) -> subprocess.Popen:
    return subprocess.Popen(argv, stdout=subprocess.PIPE, env=child_env(), cwd=REPO, text=True)


def stop_child(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout:
        proc.stdout.close()


def peak_rss_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc status")


def http_call(port: int, method: str, path: str, body: bytes | None = None) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request(method, path, body, {"Content-Type": "application/json"} if body else {})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


# -- batch-deep --------------------------------------------------------------


def log_digest(records: list[dict]) -> str:
    """Digest of a run log without its timing fields and run id."""
    digest = hashlib.sha256()
    for record in records:
        stable = {k: v for k, v in record.items()
                  if k not in ("timestamps", "latency_ms", "explanation_id")}
        digest.update(json.dumps(stable, sort_keys=True).encode("utf-8"))
    return digest.hexdigest()


def flow_latency_ms(record: dict) -> float:
    started, finished = (
        datetime.strptime(record["timestamps"][k], "%Y-%m-%dT%H:%M:%S.%fZ")
        for k in ("started", "finished")
    )
    return (finished - started).total_seconds() * 1000


def check_batch_pass(records: list[dict]) -> int:
    """Failed flows of one pass: not ``ok``, or findings other than the seeded faults."""
    if len(records) != BATCH_SAMPLE:
        raise CheckFailed(f"run log has {len(records)} records, expected {BATCH_SAMPLE}")
    failed = 0
    for record in records:
        if record["status"] != "ok":
            failed += 1
            continue
        text, kinds = stub_llm.compose(record["flow"])
        found = sorted(finding["kind"] for finding in record["findings"])
        failed += record["explanation"] != text or found != kinds
    return failed


def batch_deep(args, work: Path) -> dict:
    import inputs

    rng = random.Random(f"batch-deep/{args.seed}")
    dataset = work / "flows.csv"
    props = inputs.dataset_properties(inputs.write_dataset(dataset, BATCH_ROWS, rng))
    stub = start_child([sys.executable, str(BENCH / "stub_llm.py")])
    try:
        port = int(stub.stdout.readline().split()[1])
        config = work / "config.json"
        backend = {"kind": "local", "url": f"http://127.0.0.1:{port}/v1/chat/completions",
                   "model": "stub", "backend_id": "stub"}
        inputs.write_config(config, dataset, work, args.seed, backend,
                            sample_size=BATCH_SAMPLE, workers=BATCH_WORKERS)
        argv = [sys.executable, str(BENCH / "batch_worker.py"), "--config", str(config),
                "--seconds", str(args.seconds)]
        if args.trace:
            argv += ["--spans", str(work / "spans.json")]
        worker = subprocess.run(argv, capture_output=True, text=True, env=child_env(), cwd=REPO,
                                timeout=CHILD_TIMEOUT_S)
        if worker.returncode != 0:
            raise CheckFailed(f"batch worker failed:\n{worker.stderr[-3000:]}")
        result = json.loads(worker.stdout.splitlines()[-1])
        stub_stats = json.loads(http_call(port, "GET", "/stats")[1])
    finally:
        stop_child(stub)

    # keep-alive: each pass's HTTP session opens at most one connection per
    # worker (the extra one is the /stats request)
    if stub_stats["connections"] > BATCH_WORKERS * len(result["passes"]) + 1:
        raise CheckFailed(f"backend saw {stub_stats['connections']} connections")
    digests, by_pass, failed, attempted = set(), [], 0, 0
    for explain in result["passes"]:
        with open(explain["log"], encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        attempted += len(records)
        failed += check_batch_pass(records)
        digests.add(log_digest(records))
        if explain["traced"] is not None:  # None: the traced run's warm-up pass
            by_pass.append(quantile_summary(
                [flow_latency_ms(r) for r in records if r["status"] == "ok"]))
    if len(digests) != 1:
        raise CheckFailed("run logs of one seed differ outside their timing fields")
    measured = [p for p in result["passes"] if p["traced"] is not None]
    rates = [p["written"] / p["seconds"] for p in measured]
    cpu_ms = [p["cpu_seconds"] * 1000 / p["written"] for p in measured]
    props.update(inputs.output_properties([
        {"mode": r["mode"], "explanation_chars": len(r["explanation"]),
         "trimmed": bool(r["prompt"]["metadata"]["trims"])} for r in records]))
    report = {
        "inputs": props,
        "log_digest": digests.pop(),
        "findings_per_flow": sum(len(r["findings"]) for r in records) / len(records),
        "explain_flows_per_s_by_pass": rates,
        "cpu_ms_per_flow_by_pass": cpu_ms,
        "flow_latency_ms_by_pass": by_pass,
        "setup_s_all": result["setup_s"],
        "backend": stub_stats,
    }
    if args.trace:
        with open(work / "spans.json", encoding="utf-8") as fh:
            metrics = tracer.layer_metrics(json.load(fh))
        shares = []
        for pair in zip(measured[0::2], measured[1::2]):  # untraced/traced, either order
            untraced, traced = sorted(pair, key=lambda p: p["traced"])
            shares.append(traced["seconds"] / untraced["seconds"] - 1)
        report["trace_overhead_share_by_pair"] = shares
        metrics["trace.overhead_share"] = statistics.median(shares)
    else:
        # medians over passes: the machine's speed drifts within a run
        report["wall"] = {"explain_flows_per_s": statistics.median(rates),
                          "latency_mean_ms": statistics.median(p["mean"] for p in by_pass)}
        metrics = {
            "setup_s": statistics.median(result["setup_s"]),
            "cpu_ms_per_flow": statistics.median(cpu_ms),
            "peak_rss_mb": result["peak_rss_mb"],
        }
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "report": report}


# -- service-stream ----------------------------------------------------------


class Server:
    """One ``flowexplain serve`` (or traced launcher) child process, ready once built."""

    def __init__(self, argv: list[str]):
        self.proc = start_child(argv)
        try:
            line = self.proc.stdout.readline()
            if not line.startswith("serving on http://"):
                raise CheckFailed(f"server did not start: {line!r}")
            self.port = int(line.split()[2].rsplit(":", 1)[1])
            while http_call(self.port, "GET", "/health")[0] != 200:
                time.sleep(0.005)
        except BaseException:
            self.stop()
            raise

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def stop(self) -> None:
        stop_child(self.proc)


class Load:
    """Request bodies, sent in order from a cursor, and what came back."""

    def __init__(self, bodies: list[tuple[str, bytes]]):
        self.bodies = bodies
        self.cursor = 0

    def send(self, port: int, index: int) -> dict:
        mode, body = self.bodies[index % len(self.bodies)]
        sent = time.perf_counter()
        try:
            status, data = http_call(port, "POST", "/explain", body)
        except (OSError, http.client.HTTPException) as exc:
            status, data = 0, repr(exc).encode()
        done = time.perf_counter()
        outcome = {"status": status, "mode": mode, "ok": False,
                   "client_us": (done - sent) * 1e6, "latency_ms": (done - sent) * 1000}
        if status == 200:
            try:
                record = json.loads(data)
                outcome.update(
                    ok=record["status"] == "ok" and record["mode"] == mode
                    and isinstance(record["explanation"], str) and bool(record["explanation"])
                    and isinstance(record["findings"], list),
                    explanation_id=record["explanation_id"],
                    explanation_chars=len(record["explanation"]),
                    trimmed=bool(record["prompt"]["metadata"]["trims"]),
                )
            except (ValueError, KeyError, TypeError):
                pass
        return outcome

    def sequential(self, port: int, total: int) -> list[dict]:
        """Send ``total`` requests from the cursor, one after another."""
        done = [self.send(port, self.cursor + i) for i in range(total)]
        self.cursor += total
        return done

    def closed_loop(self, port: int, end: float) -> tuple[list[dict], float]:
        """Clients that each send their next request when the last returns, until ``end``."""
        indices = itertools.count(self.cursor)
        done: list[dict] = []
        start = time.perf_counter()

        def client():
            while time.perf_counter() < end:
                done.append(self.send(port, next(indices)))

        run_threads(client, CLOSED_LOOP_CLIENTS)
        self.cursor += len(done)
        return done, time.perf_counter() - start


def run_threads(target, count: int) -> None:
    threads = [threading.Thread(target=target) for _ in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def store_rows(db: Path) -> int:
    conn = sqlite3.connect(f"file:{db}?mode=ro", uri=True)
    try:
        return conn.execute("SELECT COUNT(*) FROM flow_history").fetchone()[0]
    finally:
        conn.close()


def cli(*argv: str) -> list[str]:
    return [sys.executable, "-m", "flowexplain.cli", *argv]


def ingest_cli(config: Path) -> None:
    done = subprocess.run(cli("ingest", "-c", str(config)), capture_output=True, text=True,
                          env=child_env(), cwd=REPO, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise CheckFailed(f"flowexplain ingest failed:\n{done.stderr[-3000:]}")


def cpu_seconds(pid: int) -> float:
    """CPU time of a process, all its threads, exited ones included.

    Reads Linux's CPU-time clock of the process, ``MAKE_PROCESS_CPUCLOCK(pid,
    CPUCLOCK_SCHED)``, which counts in nanoseconds where ``/proc/<pid>/stat``
    counts in 10-ms ticks.
    """
    return time.clock_gettime(((~pid) << 3) | 2)


def serve_load(argv: list[str], db: Path, send) -> dict:
    """Start a server, run ``send(server)`` against it, stop it and check the store.

    ``send`` returns a dict with the ``outcomes`` of all its requests; the
    result adds ``ready`` (``perf_counter`` once ``/health`` answered) and
    the server's ``rss_mb``.
    """
    with Server(argv) as server:
        ready = time.perf_counter()
        stored = store_rows(db)
        sent = send(server)
        rss = peak_rss_mb(server.proc.pid)
    appended = store_rows(db) - stored
    served = sum(o["status"] == 200 for o in sent["outcomes"])
    if appended != served:
        raise CheckFailed(f"store grew by {appended} rows for {served} explained requests")
    return dict(sent, ready=ready, rss_mb=rss)


def service_rounds(load: Load, config: Path, db: Path, serve: list[str], args) -> list[dict]:
    """Rounds of ingest, server start, sequential window and closed loop, filling the run."""
    run_start, round_s = time.perf_counter(), args.seconds / ROUNDS
    rounds = []
    for index in range(ROUNDS):
        def send(server: Server) -> dict:
            port, pid = server.port, server.proc.pid
            warm = load.sequential(port, WARMUP_REQUESTS)
            cpu = cpu_seconds(pid)
            timed = load.sequential(port, SEQUENTIAL_WINDOW)
            cpu = cpu_seconds(pid) - cpu
            # the closed loop fills the round, and at least a second of it
            end = max(run_start + (index + 1) * round_s, time.perf_counter() + 1.0)
            waited, seconds = load.closed_loop(port, end)
            return {"sequential": timed, "cpu_ms_per_flow": cpu * 1000 / len(timed),
                    "closed": waited, "closed_s": seconds, "outcomes": warm + timed + waited}

        start = time.perf_counter()
        ingest_cli(config)
        sent = serve_load(serve, db, send)
        rounds.append(dict(sent, setup_s=sent["ready"] - start))
    return rounds


def service_stream(args, work: Path) -> dict:
    import inputs

    rng = random.Random(f"service-stream/{args.seed}")
    dataset = work / "flows.csv"
    props = inputs.dataset_properties(inputs.write_dataset(dataset, SERVICE_ROWS, rng))
    load = Load(inputs.unlabelled_requests(rng, SERVICE_REQUEST_POOL))
    gc.disable()  # the load generator's own collections would show as service latency
    config = work / "config.json"
    inputs.write_config(config, dataset, work, args.seed, {"kind": "mock"},
                        sample_size=1, workers=1)
    db = work / "history.db"
    serve = cli("serve", "-c", str(config), "--port", "0")
    report = {"inputs": props}

    if args.trace:
        # The same requests, one at a time so that every run makes the same
        # calls, go to an untraced, a traced (its launcher ingests itself) and
        # again an untraced server; the traced window against the mean of its
        # neighbours gives the tracing overhead.
        spans = work / "spans.json"
        traced_serve = [sys.executable, str(BENCH / "serve_traced.py"), "--config", str(config),
                        "--spans", str(spans)]
        means, outcomes = [], []
        for argv in (serve, traced_serve, serve):
            if argv is serve:
                ingest_cli(config)
            load.cursor = 0
            sent = serve_load(
                argv, db, lambda server: {"outcomes": load.sequential(server.port, TRACED_REQUESTS)}
            )["outcomes"]
            means.append(statistics.fmean(o["latency_ms"] for o in sent))
            outcomes += sent
            if argv is traced_serve:
                traced = sent
        with open(spans, encoding="utf-8") as fh:
            metrics = tracer.layer_metrics(
                json.load(fh), [(o["explanation_id"], o["client_us"]) for o in traced if o["ok"]])
        metrics["trace.overhead_share"] = means[1] / statistics.fmean(means[::2]) - 1
        report["latency_ms_mean_by_server"] = means
    else:
        rounds = service_rounds(load, config, db, serve, args)
        setups = [r["setup_s"] for r in rounds]
        outcomes = [o for r in rounds for o in r["outcomes"]]
        timed = [o for r in rounds for o in r["sequential"]]
        by_round = [quantile_summary([o["latency_ms"] for o in r["sequential"]]) for r in rounds]
        rates = [len(r["closed"]) / r["closed_s"] for r in rounds]
        report.update({
            "sequential_latency_ms": {
                mode: quantile_summary([o["latency_ms"] for o in timed if o["mode"] == mode])
                for mode in ("basic", "augmented")},
            "latency_ms_by_round": by_round,
            "service_rps_by_round": rates,
            "closed_loop_requests": sum(len(r["closed"]) for r in rounds),
            "closed_loop_clients": CLOSED_LOOP_CLIENTS,
            "setup_s_all": setups,
            "cpu_ms_per_flow_by_round": [r["cpu_ms_per_flow"] for r in rounds],
            # medians over rounds: the machine's speed drifts within a run
            "wall": {"explain_flows_per_s": statistics.median(rates),
                     "latency_mean_ms": statistics.median(r["mean"] for r in by_round)},
        })
        metrics = {
            "setup_s": statistics.median(setups),
            "cpu_ms_per_flow": statistics.median(r["cpu_ms_per_flow"] for r in rounds),
            "peak_rss_mb": max(r["rss_mb"] for r in rounds),
        }
    served = [o for o in outcomes if o["ok"]]
    props.update(inputs.output_properties(served))
    failed = len(outcomes) - len(served)
    return {"attempted": len(outcomes), "failed": failed, "metrics": metrics, "report": report}


# -- entry point ---------------------------------------------------------------

WORKLOADS = {"batch-deep": batch_deep, "service-stream": service_stream}


def main() -> int:
    parser = argparse.ArgumentParser(description="flowexplain benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in (REPO / "src" / "flowexplain", REPO / "tests" / "data"):
        if not needed.is_dir():
            print(f"bench: {needed} not found; run from a full checkout", file=sys.stderr)
            return 2

    work = REPO / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        print(json.dumps({"environment": environment()}))
        outcome = WORKLOADS[args.workload](args, work)
    except CheckFailed as exc:
        print(f"bench: correctness check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(outcome["metrics"]) != set(declared):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(outcome['metrics'])}")
    print(json.dumps(outcome["report"]))
    attempted, failed = outcome["attempted"], outcome["failed"]
    print(json.dumps({"failed_share": failed / attempted}))
    correct = failed == 0
    if not correct:  # a run with failed operations is not timed
        print(f"bench: {failed} of {attempted} operations failed their checks", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": outcome["metrics"][name], "unit": unit}
                    for name, unit in declared.items()} if correct else {},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
