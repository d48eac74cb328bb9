"""Each module of the package imports on its own, in a fresh interpreter.

The package root imports none of its modules, so an import cycle between
two of them would show only to a caller that imports one of them first.
``ingest``, ``sample`` and ``cost`` load only the catalog, the parser and the
store, ``evaluate`` loads none of the HTTP code, and the LLM backend client
none of the knowledge providers.
"""

import json
import pkgutil

import pytest

import flowexplain

from .conftest import run_fresh
from .test_pipeline_cli import write_config_file

MODULES = sorted(info.name for info in pkgutil.iter_modules(flowexplain.__path__))


def test_modules_are_found():
    assert {"_http", "cli", "pipeline", "prompts", "service"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    result = run_fresh(f"import flowexplain.{module}")
    assert result.returncode == 0, result.stderr


#: modules of the explain stack, which ingest and sample never run
EXPLAIN_STACK = (
    "flowexplain.gateway",
    "flowexplain.providers",
    "flowexplain._http",
    "flowexplain.prompts",
    "flowexplain.checkers",
    "flowexplain.enrichment",
    "flowexplain.evaluation",
    "http.client",
    "ssl",
)


def test_ingest_and_sample_load_none_of_the_explain_stack(tmp_path):
    config = str(write_config_file(tmp_path))
    result = run_fresh(f"""
import json, sys
from flowexplain.cli import main
main(["ingest", "-c", {config!r}], standalone_mode=False)
main(["sample", "-c", {config!r}], standalone_mode=False)
print(json.dumps(sorted(name for name in {EXPLAIN_STACK!r} if name in sys.modules)))
""")
    assert result.returncode == 0, result.stderr
    *echoed, loaded = result.stdout.splitlines()
    assert '"store_entries": 200' in "".join(echoed) and '"sample_file"' in "".join(echoed)
    assert json.loads(loaded) == []


def test_the_service_loads_no_evaluation_code():
    # serve imports the service, and with it the pipeline that explain runs
    result = run_fresh(
        "import sys, flowexplain.service; print('flowexplain.evaluation' in sys.modules)"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False"]


#: what the HTTP backend and knowledge providers load, which evaluate never runs
HTTP_STACK = ("flowexplain.providers", "flowexplain.gateway", "flowexplain._http", "http.client",
              "ssl")


def test_cost_loads_none_of_the_explain_stack(tmp_path):
    config = str(write_config_file(tmp_path))
    ledger = tmp_path / "run.ledger.json"
    ledger.write_text(json.dumps({"results": 4, "prompt_tokens": 1844, "completion_tokens": 1840}))
    stack = EXPLAIN_STACK + ("flowexplain.pipeline",)
    result = run_fresh(f"""
import json, sys
from flowexplain.cli import main
main(["cost", "-c", {config!r}, "--ledger", {str(ledger)!r}], standalone_mode=False)
main(["cost", "-c", {config!r}, "--avg-input", "461", "--avg-output", "460"],
     standalone_mode=False)
print(json.dumps(sorted(name for name in {stack!r} if name in sys.modules)))
""")
    assert result.returncode == 0, result.stderr
    *echoed, loaded = result.stdout.splitlines()
    assert "".join(echoed).count('"cost": "5.75"') == 2
    assert json.loads(loaded) == []


def test_evaluation_loads_no_http_code():
    result = run_fresh(f"""
import json, sys, flowexplain.evaluation
print(json.dumps(sorted(name for name in {HTTP_STACK!r} if name in sys.modules)))
""")
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == []


def test_gateway_loads_no_provider_code():
    result = run_fresh(
        "import sys, flowexplain.gateway; print('flowexplain.providers' in sys.modules)"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False"]
