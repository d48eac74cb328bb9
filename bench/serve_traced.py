"""Traced stand-in for ``flowexplain ingest`` followed by ``flowexplain serve``.

Installs the benchmark's tracer, runs ``run_ingest`` and then serves
through the public ``Runtime`` and ``ExplainService``, printing the same
``serving on`` line as the CLI. On SIGINT it stops the service and writes
the spans.

    python3 bench/serve_traced.py --config CONFIG --spans SPANS
"""

from __future__ import annotations

import argparse

from flowexplain.pipeline import PipelineConfig, Runtime, run_ingest
from flowexplain.service import ExplainService

import tracer as tracing


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args()

    tracer = tracing.Tracer()
    tracing.install(tracer)
    config = PipelineConfig.from_file(args.config)
    run_ingest(config)
    runtime = Runtime(config)
    service = ExplainService(runtime, port=0)
    host, port = service.address
    print(f"serving on http://{host}:{port} (POST /explain, GET /health)", flush=True)
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        service.stop()
        runtime.close()
        tracer.uninstall()
        tracer.dump(args.spans)


if __name__ == "__main__":
    main()
