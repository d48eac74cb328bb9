"""Command line entry points for the explanation pipeline."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from .config import PipelineConfig, run_ingest, run_sample
from .errors import InputError

# The explain stack (prompts, providers, gateway, checkers, evaluation) is
# imported inside the commands that use it, so ingest and sample load none of it.


class _Commands(click.Group):
    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except InputError as exc:  # one Error: line, exit code 1
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Commands)
def main() -> None:
    """Explain NetFlow records flagged as malicious by an upstream detector."""


@main.command()
@click.option("--config", "-c", "config_path", required=True, type=click.Path(exists=True))
@click.option("--append", is_flag=True, help="Keep existing history entries instead of rebuilding.")
def ingest(config_path: str, append: bool) -> None:
    """Parse the dataset and bootstrap the connection-history store."""
    config = PipelineConfig.from_file(config_path)
    summary = run_ingest(config, rebuild_store=not append)
    click.echo(json.dumps(summary.to_dict(), indent=2))


@main.command()
@click.option("--config", "-c", "config_path", required=True, type=click.Path(exists=True))
@click.option("--n", "sample_size", type=int, default=None, help="Sample size override.")
@click.option("--seed", type=int, default=None, help="Sampling seed override.")
@click.option("--uniform", is_flag=True, help="Sample uniformly instead of per attack class.")
@click.option("--out", "out_path", type=click.Path(), default=None, help="Sample file path.")
def sample(config_path: str, sample_size: int | None, seed: int | None, uniform: bool,
           out_path: str | None) -> None:
    """Draw the malicious-flow evaluation sample and write its ids."""
    config = PipelineConfig.from_file(config_path, sample_size=sample_size, seed=seed)
    if uniform:
        config.stratified_sampling = False
    destination = Path(out_path) if out_path else config.output_dir / "sample.json"
    payload = run_sample(config, destination)
    click.echo(json.dumps({"sample_file": str(destination), "n": payload["n"]}, indent=2))


@main.command()
@click.option("--config", "-c", "config_path", required=True, type=click.Path(exists=True))
@click.option("--mode", type=click.Choice(["basic", "augmented"]), required=True)
@click.option("--flow-id", "flow_ids", multiple=True, help="Explain these flow ids.")
@click.option("--sample-file", type=click.Path(exists=True), default=None)
@click.option("--run-id", default=None, help="Run identifier (names the output log).")
@click.option("--seed", type=int, default=None, help="Sampling seed override.")
@click.option("--k-history", type=int, default=None, help="Connection-history depth override.")
@click.option("--budget", type=int, default=None, help="Prompt token budget override.")
def explain(config_path: str, mode: str, flow_ids: tuple[str, ...], sample_file: str | None,
            run_id: str | None, seed: int | None, k_history: int | None,
            budget: int | None) -> None:
    """Generate explanations for selected (or sampled) malicious flows."""
    from .pipeline import run_explain

    config = PipelineConfig.from_file(
        config_path, seed=seed, k_history=k_history, token_budget=budget
    )
    result = run_explain(
        config,
        mode=mode,
        flow_ids=list(flow_ids) or None,
        sample_file=Path(sample_file) if sample_file else None,
        run_id=run_id,
    )
    click.echo(
        json.dumps(
            {
                "run_id": result.run_id,
                "log": str(result.log_path),
                "ledger": str(result.ledger_path),
                "written": result.written,
                "failed": result.failed,
            },
            indent=2,
        )
    )


@main.command()
@click.option("--config", "-c", "config_path", required=True, type=click.Path(exists=True))
@click.option("--explanations", required=True, type=click.Path(exists=True))
@click.option("--annotations", required=True, type=click.Path(exists=True))
def evaluate(config_path: str, explanations: str, annotations: str) -> None:
    """Aggregate human annotations over a run log into a results table."""
    from .pipeline import run_evaluate

    config = PipelineConfig.from_file(config_path)
    reports, table, report_path = run_evaluate(config, Path(explanations), Path(annotations))
    click.echo(table)
    click.echo(f"\nreport written to {report_path}")


@main.command()
@click.option("--config", "-c", "config_path", required=True, type=click.Path(exists=True))
@click.option("--ledger", "ledger_path", type=click.Path(exists=True), default=None)
@click.option("--queries", type=int, default=1000, show_default=True)
@click.option("--avg-input", type=float, default=None, help="Average input tokens per query.")
@click.option("--avg-output", type=float, default=None, help="Average output tokens per query.")
def cost(config_path: str, ledger_path: str | None, queries: int, avg_input: float | None,
         avg_output: float | None) -> None:
    """Project backend cost per N queries from a ledger or token averages."""
    from .pipeline import run_cost

    config = PipelineConfig.from_file(config_path)
    report = run_cost(
        config,
        ledger_path=Path(ledger_path) if ledger_path else None,
        queries=queries,
        avg_input=avg_input,
        avg_output=avg_output,
    )
    click.echo(json.dumps(report, indent=2))


@main.command()
@click.option("--config", "-c", "config_path", required=True, type=click.Path(exists=True))
@click.option("--host", default="127.0.0.1", show_default=True)
@click.option("--port", type=int, default=8080, show_default=True)
def serve(config_path: str, host: str, port: int) -> None:
    """Run the explain-on-demand HTTP service."""
    from .pipeline import Runtime
    from .service import ExplainService

    config = PipelineConfig.from_file(config_path)
    runtime = Runtime(config)
    service = ExplainService(runtime, host=host, port=port)
    bound_host, bound_port = service.address
    click.echo(f"serving on http://{bound_host}:{bound_port} (POST /explain, GET /health)")
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        service.stop()
        runtime.close()


if __name__ == "__main__":
    sys.exit(main())
