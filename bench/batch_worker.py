"""Program process of the ``batch-deep`` workload.

Untraced, it repeats a cycle of ``run_ingest`` twice (the set-up) and one
``run_explain`` pass in augmented mode until the given number of seconds
has passed, so set-ups and passes sample the same stretch of the machine's
speed. It prints one JSON object with the timings and this process's peak
RSS. With ``--spans`` it traces one ingest, then, after an untraced warm-up
pass (``traced`` is null), runs explain passes untraced, traced, traced,
untraced: the two neighbouring pairs give the tracing overhead with a
linear drift of the machine's speed cancelled.

    python3 bench/batch_worker.py --config CONFIG --seconds 20
"""

from __future__ import annotations

import argparse
import json
import resource
import time

from flowexplain import pipeline

import tracer as tracing

INGESTS_PER_PASS = 2
TRACED_ORDER = (False, True, True, False)


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def explain_pass(config: pipeline.PipelineConfig, index: int, traced: bool | None = False) -> dict:
    cpu = time.process_time()  # every thread of this process
    # through the module attribute, so a traced run_explain is the one called
    result, seconds = timed(pipeline.run_explain, config, "augmented", run_id=f"pass-{index}")
    return {"seconds": seconds, "cpu_seconds": time.process_time() - cpu,
            "written": result.written, "failed": result.failed,
            "log": str(result.log_path), "traced": traced}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spans", help="trace and write the spans to this file")
    args = parser.parse_args()

    config = pipeline.PipelineConfig.from_file(args.config)
    setups, passes = [], []
    if args.spans:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        setups.append(timed(pipeline.run_ingest, config)[1])
        tracer.uninstall()
        passes.append(explain_pass(config, 0, traced=None))  # warm-up
        for traced in TRACED_ORDER:
            if traced:
                tracing.install(tracer)
            passes.append(explain_pass(config, len(passes), traced))
            tracer.uninstall()
        tracer.dump(args.spans)
    else:
        deadline = time.perf_counter() + args.seconds
        while time.perf_counter() < deadline:
            for _ in range(INGESTS_PER_PASS):
                setups.append(timed(pipeline.run_ingest, config)[1])
            passes.append(explain_pass(config, len(passes)))
    print(json.dumps({
        "setup_s": setups,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }))


if __name__ == "__main__":
    main()
