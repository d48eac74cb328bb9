import json
import select
import sqlite3
import time
from dataclasses import asdict
from datetime import datetime
from pathlib import Path

import pytest
from click.testing import CliRunner

from flowexplain import pipeline
from flowexplain.cli import main
from flowexplain.config import (
    ConfigError,
    PipelineConfig,
    PricingTable,
    pricing_from_config,
    run_cost,
    run_ingest,
    run_sample,
)
from flowexplain.flows import format_value
from flowexplain.gateway import AuthenticationError, HTTPBackend, HTTPBackendProfile, MockBackend
from flowexplain.pipeline import Runtime, run_explain
from flowexplain.providers import HTTPProviderProfile

from .conftest import CTI_FIXTURE, DATASET, DEEP_JSON, GEO_FIXTURE
from .loopback import KeepAliveServer


def make_config(tmp_path: Path, **extra) -> PipelineConfig:
    defaults = dict(
        dataset=DATASET,
        store=tmp_path / "history.db",
        output_dir=tmp_path / "out",
        geo_provider={"kind": "fixture", "fixture": str(GEO_FIXTURE)},
        cti_provider={"kind": "fixture", "fixture": str(CTI_FIXTURE)},
    )
    defaults.update(extra)
    return PipelineConfig(**defaults)


def write_config_file(tmp_path: Path, **extra) -> Path:
    payload = {
        "dataset": str(DATASET),
        "store": str(tmp_path / "history.db"),
        "output_dir": str(tmp_path / "out"),
        "geo_provider": {"kind": "fixture", "fixture": str(GEO_FIXTURE)},
        "cti_provider": {"kind": "fixture", "fixture": str(CTI_FIXTURE)},
        "backend": {"kind": "mock"},
    }
    payload.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload, indent=2))
    return path


class TestConfig:
    def test_missing_dataset_path_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"dataset": str(tmp_path / "nope.csv")}))
        with pytest.raises(ConfigError, match="does not exist"):
            PipelineConfig.from_file(path)

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"dataset": str(DATASET), "tempersture": 1}))
        with pytest.raises(ConfigError, match="tempersture"):
            PipelineConfig.from_file(path)

    def test_defaults(self, tmp_path):
        config = PipelineConfig.from_file(write_config_file(tmp_path))
        assert config.k_history == 5
        assert config.token_budget == 2048
        assert config.sample_size == 50
        assert config.temperature == 0.7
        assert config.max_tokens == 2048

    def test_keys_and_defaults_come_from_the_fields(self, tmp_path):
        assert PipelineConfig.from_dict({"dataset": str(DATASET)}) == PipelineConfig(
            dataset=DATASET
        )
        raw = {
            "dataset": DATASET.name,
            "store": "history.db",
            "output_dir": None,
            "catalog": None,
            "pricing": {"input_per_million": "1"},
        }
        config = PipelineConfig.from_dict(raw, base_dir=DATASET.parent)
        assert (config.dataset, config.store) == (DATASET, DATASET.parent / "history.db")
        assert (config.output_dir, config.catalog) == (Path("out"), None)
        assert pricing_from_config(config.pricing) == PricingTable.per_million("1", "10.00")
        with pytest.raises(ConfigError, match="config must name a dataset path"):
            PipelineConfig.from_dict({"dataset": None})

    @pytest.mark.parametrize(
        "raw,message",
        [
            (["dataset"], r"config must be a JSON object, not list"),
            ({"backend": "mock"}, r"config key 'backend' must be a JSON object, not str"),
            ({"geo_provider": None}, r"config key 'geo_provider' must be a JSON object"),
            ({"cti_provider": ["fixture"]}, r"config key 'cti_provider' must be a JSON object"),
            ({"pricing": "cheap"}, r"config key 'pricing' must be a JSON object, not str"),
        ],
        ids=["document-list", "backend-str", "geo-null", "cti-list", "pricing-str"],
    )
    def test_non_object_document_or_section_is_config_error(self, tmp_path, raw, message):
        if isinstance(raw, dict):
            raw = {"dataset": str(DATASET), **raw}
        with pytest.raises(ConfigError, match=message):
            PipelineConfig.from_dict(raw)

    @pytest.mark.parametrize("key", ["workers", "max_in_flight", "max_tokens", "store_max_entries"])
    @pytest.mark.parametrize("value", [0, -3])
    def test_counts_below_one_are_config_errors(self, key, value):
        with pytest.raises(ConfigError, match=f"{key} must be at least 1"):
            PipelineConfig.from_dict({"dataset": str(DATASET), key: value})

    @pytest.mark.parametrize("key", ["k_history", "workers", "store_max_entries"])
    @pytest.mark.parametrize("value", ["4", 4.0, True], ids=["str", "float", "bool"])
    def test_non_integer_count_is_config_error(self, key, value):
        message = f"config key '{key}' must be an integer, not {type(value).__name__}"
        with pytest.raises(ConfigError, match=message):
            PipelineConfig.from_dict({"dataset": str(DATASET), key: value})

    @pytest.mark.parametrize("key", ["stratified_sampling", "history_include_benign"])
    @pytest.mark.parametrize("value", ["false", 0, 1, None], ids=["str", "zero", "one", "null"])
    def test_non_boolean_switch_is_config_error(self, key, value):
        message = f"config key '{key}' must be true or false, not {type(value).__name__}"
        with pytest.raises(ConfigError, match=message):
            PipelineConfig.from_dict({"dataset": str(DATASET), key: value})

    @pytest.mark.parametrize("value", ["0.7", None, False], ids=["str", "null", "bool"])
    def test_non_numeric_temperature_is_config_error(self, value):
        message = f"config key 'temperature' must be a number, not {type(value).__name__}"
        with pytest.raises(ConfigError, match=message):
            PipelineConfig.from_dict({"dataset": str(DATASET), "temperature": value})

    def test_unknown_pricing_key_is_config_error(self):
        with pytest.raises(ConfigError, match=r"unknown keys in pricing: \['input_price'\]"):
            pricing_from_config({"input_price": "9"})

    def test_overrides_win(self, tmp_path):
        config = PipelineConfig.from_file(write_config_file(tmp_path), seed=99)
        assert config.seed == 99

    @pytest.mark.parametrize(
        "section,label", [("geo_provider", "geolocation"), ("cti_provider", "threat-intel")]
    )
    def test_unknown_provider_kind_rejected(self, tmp_path, section, label):
        config = make_config(tmp_path, **{section: {"kind": "carrier-pigeon"}})
        with pytest.raises(ConfigError, match=f"unknown {label} provider kind 'carrier-pigeon'"):
            Runtime(config)

    def test_disabled_provider_is_none(self, tmp_path):
        runtime = Runtime(make_config(tmp_path, geo_provider={"kind": "disabled"}))
        try:
            assert runtime.geo_provider is None
            assert runtime.cti_provider is not None
        finally:
            runtime.close()

    def test_canned_file_with_blank_lines(self, tmp_path):
        canned = tmp_path / "canned.jsonl"
        canned.write_text(
            "\n"
            + json.dumps({"key": "prompt one", "text": "answer one"})
            + "\n\n   \n"
            + json.dumps({"key": "prompt two", "text": "answer two"})
            + "\n\n"
        )
        runtime = Runtime(make_config(tmp_path, backend={"kind": "mock", "canned": str(canned)}))
        try:
            assert runtime.backend.canned == {
                "prompt one": "answer one",
                "prompt two": "answer two",
            }
        finally:
            runtime.close()

    def test_canned_file_with_invalid_utf8_is_config_error(self, tmp_path):
        canned = tmp_path / "canned.jsonl"
        canned.write_bytes(b'{"key": "k", "text": "t"}\n{"key": "k2", "text": "\xff"}\n')
        config = make_config(tmp_path, backend={"kind": "mock", "canned": str(canned)})
        with pytest.raises(
            ConfigError, match=r"malformed canned response in \S*canned\.jsonl on line 2: .*utf-8"
        ):
            Runtime(config)

    @pytest.mark.parametrize("row", ['{"text": "x"}', '{"key": "k"}', "[1]", "{not json"])
    def test_canned_row_without_key_or_text_is_config_error(self, tmp_path, row):
        canned = tmp_path / "canned.jsonl"
        canned.write_text(json.dumps({"key": "k", "text": "t"}) + "\n\n" + row + "\n")
        config = make_config(tmp_path, backend={"kind": "mock", "canned": str(canned)})
        with pytest.raises(ConfigError, match=r"canned\.jsonl on line 3"):
            Runtime(config)

    @pytest.mark.parametrize(
        "section,value,feed_line,message",
        [
            ("geo_provider", {"kind": "fixture"}, '{"ip": "8.8.4.4"',
             r"geo_provider: malformed fixture row in \S*feed\.jsonl on line 3"),
            ("cti_provider", {"kind": "fixture"}, '{"verdict": "benign"}',
             r"cti_provider: malformed fixture row in \S*feed\.jsonl on line 3: no string 'ip'"),
            ("cti_provider", {"kind": "fixture"}, None, r"cti_provider needs a 'fixture' key"),
            ("geo_provider", {"kind": "fixture", "fixture": "no-such-feed.jsonl"}, None,
             r"geo_provider: .*no-such-feed\.jsonl"),
            ("backend", {"kind": "http"}, None, r"backend needs a 'url' key"),
            ("backend", {"kind": "local", "model": "m"}, None, r"backend needs a 'url' key"),
            ("geo_provider", {"kind": "http", "field_paths": {}}, None,
             r"geo_provider needs a 'url_template' key"),
            ("backend", {"kind": "http", "url": "http://127.0.0.1:9/", "timout_s": 1}, None,
             r"unknown keys in backend: \['timout_s'\]"),
            ("backend", {"kind": "mock", "canned_file": "c.jsonl"}, None,
             r"unknown keys in backend: \['canned_file'\]"),
            ("cti_provider", {"kind": "http", "url_template": "http://127.0.0.1:9/{ip}",
                              "timeout": 5}, None, r"unknown keys in cti_provider: \['timeout'\]"),
            ("geo_provider", {"kind": "disabled", "fixture": "geo.jsonl"}, None,
             r"unknown keys in geo_provider: \['fixture'\]"),
            ("backend", {"kind": "http", "url": "http://127.0.0.1:9/", "timeout_s": "soon"}, None,
             r"backend timeout_s must be a number"),
            ("cti_provider", {"kind": "fixture"}, DEEP_JSON,
             r"cti_provider: malformed fixture row in \S*feed\.jsonl on line 3: maximum recursion"),
        ],
        ids=["fixture-not-json", "fixture-row-without-ip", "fixture-unset",
             "fixture-file-missing", "http-without-url", "local-without-url",
             "http-provider-without-template", "backend-unknown-key", "mock-unknown-key",
             "provider-unknown-key", "disabled-with-a-key", "timeout-not-a-number",
             "fixture-nested-too-deep"],
    )
    def test_bad_backend_or_provider_section_is_config_error(
        self, tmp_path, section, value, feed_line, message
    ):
        if feed_line is not None:
            feed = tmp_path / "feed.jsonl"
            feed.write_text(json.dumps({"ip": "8.8.8.8"}) + "\n\n" + feed_line + "\n")
            value = dict(value, fixture=str(feed))
        path = write_config_file(tmp_path, **{section: value})
        with pytest.raises(ConfigError, match=message):
            Runtime(PipelineConfig.from_file(path))
        result = CliRunner().invoke(main, ["explain", "-c", str(path), "--mode", "basic"])
        assert isinstance(result.exception, SystemExit) and result.exit_code == 1
        assert result.output.startswith("Error: ") and len(result.output.splitlines()) == 1

    def test_sections_take_profile_defaults_and_numbers_as_text(self, tmp_path):
        url = "http://127.0.0.1:9/v1/chat/completions"
        config = make_config(
            tmp_path,
            backend={"kind": "local", "url": url, "timeout_s": "30"},
            cti_provider={"kind": "http", "url_template": "http://127.0.0.1:9/{ip}",
                          "timeout_ms": "2500"},
        )
        runtime = Runtime(config)
        try:
            assert runtime.backend.profile == HTTPBackendProfile(
                backend_id="local", url=url, timeout_s=30.0
            )
            assert runtime.backend.model == "default"
            assert runtime.cti_provider.profile == HTTPProviderProfile(
                provider_id="http-cti", url_template="http://127.0.0.1:9/{ip}", timeout_ms=2500
            )
        finally:
            runtime.close()


class TestIngest:
    def test_fixture_counts(self, tmp_path):
        summary = run_ingest(make_config(tmp_path))
        assert summary.total == 200
        assert summary.malicious == 80
        assert summary.benign == 120
        assert summary.quarantined == 0
        assert summary.store_entries == 200
        assert summary.report_path and summary.report_path.exists()

    def test_empty_file_yields_zero_summary(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        summary = run_ingest(make_config(tmp_path, dataset=empty))
        assert (summary.total, summary.malicious, summary.benign, summary.quarantined) == (
            0, 0, 0, 0,
        )

    def test_whitespace_only_file_yields_zero_summary(self, tmp_path):
        blank = tmp_path / "blank.csv"
        for mark in ("", "\ufeff"):  # a byte-order mark is no content either
            blank.write_text(mark + "\n  \r\n\t\n\u2003\n", encoding="utf-8")
            summary = run_ingest(make_config(tmp_path, dataset=blank))
            assert (summary.total, summary.store_entries, summary.report_path) == (0, 0, None)

    def test_reingest_rebuilds_store_by_default(self, tmp_path):
        config = make_config(tmp_path)
        run_ingest(config)
        summary = run_ingest(config)
        assert summary.store_entries == 200

    def test_append_keeps_entries_and_a_rebuild_replaces_them(self, tmp_path):
        config = make_config(tmp_path)
        run_ingest(config)
        assert run_ingest(config, rebuild_store=False).store_entries == 400
        assert run_ingest(config).store_entries == 200
        conn = sqlite3.connect(config.store)
        try:
            ids = [row[0] for row in conn.execute("SELECT id FROM flow_history ORDER BY id")]
        finally:
            conn.close()
        assert ids == list(range(401, 601))  # ids count on past every earlier entry

    def test_quarantined_rows_counted(self, tmp_path):
        lines = DATASET.read_text().splitlines()
        mangled = tmp_path / "mangled.csv"
        broken_row = lines[1].split(",")
        broken_row[6] = "notanumber"  # IN_BYTES
        mangled.write_text("\n".join([lines[0], ",".join(broken_row)] + lines[2:5]) + "\n")
        summary = run_ingest(make_config(tmp_path, dataset=mangled))
        assert summary.total == 4
        assert summary.quarantined == 1


class TestSampleAndExplain:
    def test_sample_file_contents(self, tmp_path):
        config = make_config(tmp_path)
        payload = run_sample(config, tmp_path / "sample.json")
        assert payload["n"] == 50
        assert len(payload["flow_ids"]) == 50
        assert len(set(payload["flow_ids"])) == 50

    def test_explain_basic_prompt_equals_builder_output(self, tmp_path, catalog):
        config = make_config(tmp_path)
        run_ingest(config)
        result = run_explain(config, "basic", flow_ids=["row-000001"], run_id="t1")
        entry = json.loads(result.log_path.read_text().splitlines()[0])
        assert entry["status"] == "ok"
        from flowexplain.flows import parse_dataset
        from flowexplain.prompts import build_basic_prompt, default_basic_template

        records, _ = parse_dataset(DATASET, catalog)
        record = next(r for r in records if r.flow_id == "row-000001")
        expected = build_basic_prompt(record, catalog, default_basic_template())
        assert entry["prompt"]["text"] == expected.text

    def test_benign_flow_is_per_flow_error(self, tmp_path, records):
        benign_id = next(r.flow_id for r in records if r.label == "benign")
        malicious_id = next(r.flow_id for r in records if r.label == "malicious")
        config = make_config(tmp_path)
        run_ingest(config)
        result = run_explain(
            config, "basic", flow_ids=[benign_id, malicious_id], run_id="t2"
        )
        entries = [json.loads(l) for l in result.log_path.read_text().splitlines()]
        assert entries[0]["status"] == "error"
        assert "not malicious" in entries[0]["error"]["message"]
        assert entries[1]["status"] == "ok"
        assert result.failed == 1

    def test_failed_flow_timestamps_span_the_attempt(self, tmp_path, records, monkeypatch):
        class SlowRejectingBackend:
            backend_id = "slow-rejecting"
            model = "none"

            def complete(self, request):
                time.sleep(0.05)
                raise AuthenticationError("credentials rejected")

        monkeypatch.setattr(pipeline, "build_backend", lambda config: SlowRejectingBackend())
        malicious_id = next(r.flow_id for r in records if r.label == "malicious")
        config = make_config(tmp_path)
        result = run_explain(config, "basic", flow_ids=[malicious_id], run_id="t8")
        (entry,) = [json.loads(l) for l in result.log_path.read_text().splitlines()]
        assert (entry["status"], entry["error"]["type"]) == ("error", "AuthenticationError")
        started, finished = (
            datetime.strptime(entry["timestamps"][key], "%Y-%m-%dT%H:%M:%S.%fZ")
            for key in ("started", "finished")
        )
        assert (finished - started).total_seconds() >= 0.05

    @pytest.mark.parametrize("workers", [4, 1])
    def test_output_order_matches_selection_order(self, tmp_path, records, workers):
        malicious = [r.flow_id for r in records if r.label == "malicious"][:6]
        config = make_config(tmp_path, workers=workers)
        run_ingest(config)
        result = run_explain(config, "augmented", flow_ids=malicious, run_id="t3")
        entries = [json.loads(l) for l in result.log_path.read_text().splitlines()]
        assert [e["flow_id"] for e in entries] == malicious

    def test_workers_run_at_most_two_flows_each_ahead_of_the_writer(
        self, tmp_path, records, monkeypatch
    ):
        malicious = [r.flow_id for r in records if r.label == "malicious"][:24]
        started = []
        prepare = Runtime.prepare

        def counted(self, *args, **kwargs):
            started.append(None)
            return prepare(self, *args, **kwargs)

        monkeypatch.setattr(Runtime, "prepare", counted)
        ahead = []

        def slow_writer(flow_id):
            ahead.append(len(started) - len(ahead) - 1)
            time.sleep(0.005)

        class SlowBackend(MockBackend):
            # answers that are not in yet keep flows in the window
            def complete(self, request):
                time.sleep(0.01)
                return super().complete(request)

        monkeypatch.setattr(pipeline, "build_backend", lambda config: SlowBackend())
        config = make_config(tmp_path, workers=2)
        run_ingest(config)
        run_explain(config, "basic", flow_ids=malicious, run_id="t6", progress=slow_writer)
        assert len(ahead) == len(malicious)
        assert max(ahead) < 2 * config.workers

    def test_flow_is_finished_once_its_answer_is_in(self, tmp_path, records, monkeypatch):
        malicious = [r.flow_id for r in records if r.label == "malicious"][:12]
        calls = []
        send = HTTPBackend.send

        def recorded(self, request):
            calls.append(send(self, request))
            return calls[-1]

        written = []
        ahead = []
        prepare = Runtime.prepare

        def after_previous_answer(self, *args, **kwargs):
            # each flow is prepared only once the flow before it has its answer in
            if calls:
                select.select([calls[-1]], [], [], 5)
            ahead.append(len(ahead) - len(written))
            return prepare(self, *args, **kwargs)

        monkeypatch.setattr(HTTPBackend, "send", recorded)
        monkeypatch.setattr(Runtime, "prepare", after_previous_answer)
        body = json.dumps({"choices": [{"message": {"content": "text"}}]}).encode("utf-8")
        with KeepAliveServer(body) as server:
            config = make_config(
                tmp_path, workers=4, backend={"kind": "local", "url": server.url("/v1")}
            )
            result = run_explain(
                config, "basic", flow_ids=malicious, run_id="t12", progress=written.append
            )
        entries = [json.loads(l) for l in result.log_path.read_text().splitlines()]
        assert [e["status"] for e in entries] == ["ok"] * len(malicious)
        # the window may hold 8 flows, but none waits in it once answered
        assert max(ahead) <= 1
        stamps = [
            {key: datetime.strptime(value, "%Y-%m-%dT%H:%M:%S.%fZ")
             for key, value in e["timestamps"].items()}
            for e in entries
        ]
        for earlier, later in zip(stamps, stamps[2:]):
            assert earlier["finished"] <= later["started"]

    @staticmethod
    def _outcomes(result):
        entries = [json.loads(line) for line in result.log_path.read_text().splitlines()]
        ledger = json.loads(result.ledger_path.read_text())
        return entries, ledger

    @pytest.mark.parametrize("workers", [1, 2])
    def test_flow_whose_core_exceeds_the_budget_fails_in_place(self, tmp_path, catalog, records,
                                                               workers):
        from flowexplain.prompts import build_basic_prompt, default_basic_template

        def tokens(record):
            return build_basic_prompt(record, catalog, default_basic_template()).token_count

        malicious = sorted((r for r in records if r.label == "malicious"), key=tokens)
        largest = malicious[-1]
        others = [r for r in malicious if tokens(r) < tokens(largest)][-6:]
        selected = [r.flow_id for r in others[:3]] + [largest.flow_id] + [
            r.flow_id for r in others[3:]
        ]
        config = make_config(tmp_path, workers=workers, token_budget=tokens(others[-1]))
        result = run_explain(config, "basic", flow_ids=selected, run_id="t9")
        entries, ledger = self._outcomes(result)
        assert [e["flow_id"] for e in entries] == selected
        assert [e["status"] for e in entries] == ["ok"] * 3 + ["error"] + ["ok"] * 3
        assert entries[3]["error"]["type"] == "BudgetInfeasibleError"
        assert result.failed == 1
        # the failed flow never reached the backend
        assert (ledger["results"], ledger["failures"]) == (6, 0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_backend_failure_on_one_flow_fails_in_place(self, tmp_path, records, monkeypatch,
                                                        workers):
        from flowexplain.gateway import MalformedResponseError

        malicious = [r.flow_id for r in records if r.label == "malicious"][:7]

        class FailingOnce(MockBackend):
            def complete(self, request):
                if request.request_id.endswith(malicious[2]):
                    raise MalformedResponseError("no choices in the answer")
                return super().complete(request)

        monkeypatch.setattr(pipeline, "build_backend", lambda config: FailingOnce())
        config = make_config(tmp_path, workers=workers)
        run_ingest(config)
        result = run_explain(config, "augmented", flow_ids=malicious, run_id="t10")
        entries, ledger = self._outcomes(result)
        assert [e["flow_id"] for e in entries] == malicious
        assert [e["status"] for e in entries] == ["ok"] * 2 + ["error"] + ["ok"] * 4
        assert entries[2]["error"] == {
            "type": "MalformedResponseError", "message": "no choices in the answer"
        }
        assert result.failed == 1
        assert (ledger["results"], ledger["failures"]) == (6, 1)

    @pytest.mark.parametrize("verdict", ["malicious", None])
    def test_malformed_knowledge_answers_degrade_in_a_batch(self, tmp_path, records, verdict):
        from flowexplain.enrichment import classify_ip

        public = [
            r.flow_id for r in records
            if r.label == "malicious" and "public" in (
                classify_ip(r.values["IPV4_SRC_ADDR"]), classify_ip(r.values["IPV4_DST_ADDR"])
            )
        ][:3]
        payload = {"asn": "AS15169", "country": "US", "verdict": verdict, "tags": 5}
        with KeepAliveServer(json.dumps(payload).encode("utf-8")) as server:
            config = make_config(
                tmp_path,
                token_budget=100_000,
                geo_provider={"kind": "http", "url_template": server.url("/geo/{ip}"),
                              "field_paths": {"asn": "asn", "country": "country"}},
                cti_provider={"kind": "http", "url_template": server.url("/cti/{ip}"),
                              "field_paths": {"verdict": "verdict", "categories": "tags"}},
            )
            run_ingest(config)
            result = run_explain(config, "augmented", flow_ids=public, run_id="t11")
        entries, _ = self._outcomes(result)
        assert [e["status"] for e in entries] == ["ok"] * len(public)
        for entry in entries:
            text = entry["prompt"]["text"]
            assert "country=US, asn=AS15169" in text
            assert "- threat intelligence unavailable: malformed" in text

    @pytest.mark.parametrize("section,row,message", [
        ("cti_provider", {"verdict": "malicious", "categories": 5}, "malformed categories 5"),
        ("cti_provider", {"verdict": "evil"}, "malformed verdict 'evil'"),
        ("geo_provider", {"country": 5}, "malformed country 5"),
        ("geo_provider", {"asn": "ASX"}, "malformed asn 'ASX'"),
    ])
    def test_malformed_fixture_row_is_a_config_error(self, tmp_path, section, row, message):
        fixture = tmp_path / "feed.jsonl"
        fixture.write_text(json.dumps({"ip": "1.1.1.1"}) + "\n"
                           + json.dumps({"ip": "8.8.8.8", **row}) + "\n")
        config = make_config(tmp_path, **{section: {"kind": "fixture", "fixture": str(fixture)}})
        pattern = rf"{section}: malformed fixture row in \S*feed\.jsonl on line 2: {message}"
        with pytest.raises(ConfigError, match=pattern):
            run_explain(config, "augmented", flow_ids=["row-000001"], run_id="t12")

    def test_fixture_answers_follow_the_http_value_rules(self, tmp_path, records):
        from flowexplain.enrichment import classify_ip

        chosen = [
            r for r in records
            if r.label == "malicious" and "public" in (
                classify_ip(r.values["IPV4_SRC_ADDR"]), classify_ip(r.values["IPV4_DST_ADDR"])
            )
        ][:3]
        public = {r.values[name] for r in chosen for name in ("IPV4_SRC_ADDR", "IPV4_DST_ADDR")
                  if classify_ip(r.values[name]) == "public"}
        geo, cti = tmp_path / "geo.jsonl", tmp_path / "cti.jsonl"
        geo.write_text("".join(json.dumps({"ip": ip, "asn": "AS15169"}) + "\n" for ip in public))
        cti.write_text("".join(
            json.dumps({"ip": ip, "verdict": "Malicious", "categories": None}) + "\n"
            for ip in public
        ))
        config = make_config(
            tmp_path, token_budget=100_000,
            geo_provider={"kind": "fixture", "fixture": str(geo)},
            cti_provider={"kind": "fixture", "fixture": str(cti)},
        )
        run_ingest(config)
        result = run_explain(config, "augmented", flow_ids=[r.flow_id for r in chosen],
                             run_id="t13")
        entries, _ = self._outcomes(result)
        assert [e["status"] for e in entries] == ["ok"] * len(chosen)
        for entry in entries:
            text = entry["prompt"]["text"]
            assert "- geolocation: asn=AS15169 (source: fixture-geo@1970-01-01T00:00:00Z)" in text
            assert "- threat intelligence: verdict=malicious, categories=none" in text

    def test_configured_sample_is_explained_without_ids_or_file(self, tmp_path, records):
        config = make_config(tmp_path)
        result = run_explain(config, "augmented", run_id="t7")
        entries = [json.loads(l) for l in result.log_path.read_text().splitlines()]
        assert [e["flow_id"] for e in entries] == run_sample(config)["flow_ids"]
        assert result.written == config.sample_size
        by_id = {record.flow_id: record for record in records}
        for entry in entries:
            record = by_id[entry["flow_id"]]
            assert entry["flow"] == {
                name: format_value(value) for name, value in record.values.items()
            }

    @pytest.mark.parametrize("include_benign", [True, False])
    def test_benign_history_follows_the_switch(self, tmp_path, records, include_benign):
        config = make_config(
            tmp_path, token_budget=100_000, history_include_benign=include_benign
        )
        run_ingest(config)
        runtime = Runtime(config)
        try:
            prompts = [
                runtime.build_prompt(record, "augmented").text
                for record in records
                if record.label == "malicious"
            ]
        finally:
            runtime.close()
        assert any("[malicious]" in text for text in prompts)
        assert any("[benign]" in text for text in prompts) == include_benign

    def test_unknown_flow_id_is_fatal(self, tmp_path):
        config = make_config(tmp_path)
        with pytest.raises(Exception, match="unknown flow ids"):
            run_explain(config, "basic", flow_ids=["row-999999"], run_id="t4")

    def test_ledger_written(self, tmp_path, records):
        malicious = [r.flow_id for r in records if r.label == "malicious"][:3]
        config = make_config(tmp_path)
        run_ingest(config)
        result = run_explain(config, "basic", flow_ids=malicious, run_id="t5")
        ledger = json.loads(result.ledger_path.read_text())
        assert ledger["results"] == 3
        assert ledger["total_tokens"] > 0


class TestCost:
    def test_reference_averages(self, tmp_path):
        config = make_config(tmp_path)
        report = run_cost(config, queries=1000, avg_input=461, avg_output=460)
        assert report["cost"] == "5.75"

    def test_from_ledger(self, tmp_path):
        ledger_path = tmp_path / "ledger.json"
        ledger_path.write_text(
            json.dumps(
                {"results": 2, "prompt_tokens": 922, "completion_tokens": 920,
                 "total_tokens": 1842, "failures": 0, "latency_histogram_ms": {}}
            )
        )
        report = run_cost(make_config(tmp_path), ledger_path=ledger_path, queries=1000)
        assert report["avg_input_tokens"] == 461.0
        assert report["cost"] == "5.75"

    def test_zero_ledger(self, tmp_path):
        ledger_path = tmp_path / "ledger.json"
        ledger_path.write_text(json.dumps(UsageLedgerEmpty()))
        report = run_cost(make_config(tmp_path), ledger_path=ledger_path)
        assert report["cost"] == "0.00"


def UsageLedgerEmpty():
    return {"results": 0, "prompt_tokens": 0, "completion_tokens": 0,
            "total_tokens": 0, "failures": 0, "latency_histogram_ms": {}}


class TestEvaluateFlow:
    def _run_and_annotate(self, tmp_path, counts, run_id="eval-run"):
        config = make_config(tmp_path)
        run_ingest(config)
        sample_path = tmp_path / "sample.json"
        run_sample(config, sample_path)
        result = run_explain(config, "augmented", sample_file=sample_path, run_id=run_id)
        entries = [json.loads(l) for l in result.log_path.read_text().splitlines()]
        ids = [e["explanation_id"] for e in entries]
        rows = []
        for annotator in ("expert-1", "expert-2"):
            for i, eid in enumerate(ids):
                rows.append(
                    {
                        "explanation_id": eid,
                        "annotator": annotator,
                        "correctness": i < counts[0],
                        "feature_consistent": i < counts[1],
                        "factually_consistent": i < counts[2],
                        "notes": "",
                    }
                )
        annotations = tmp_path / "annotations.jsonl"
        annotations.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        return config, result.log_path, annotations

    def test_reference_row_reproduced(self, tmp_path):
        from flowexplain.evaluation import run_evaluate

        config, log_path, annotations = self._run_and_annotate(tmp_path, (13, 42, 21))
        reports, table, report_path = run_evaluate(config, log_path, annotations)
        assert len(reports) == 1
        report = reports[0]
        assert float(report.correctness.percent) == 26.0
        assert float(report.feature_consistency.percent) == 84.0
        assert float(report.factual_consistency.percent) == 42.0
        assert str(report.average_performance) == "50.66"
        assert "26 (±6)" in table
        assert report_path.exists()
        findings_path = config.output_dir / "findings.jsonl"
        assert findings_path.exists()
        rows = [json.loads(l) for l in findings_path.read_text().splitlines()]
        assert len(rows) == 50
        assert all("findings" in row for row in rows)

    def test_empty_annotations_is_error(self, tmp_path):
        from flowexplain.evaluation import run_evaluate
        from flowexplain.config import PipelineError

        config, log_path, _ = self._run_and_annotate(tmp_path, (5, 5, 5))
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(PipelineError, match="no resolved annotations"):
            run_evaluate(config, log_path, empty)


def _logged(explanation_id, model, mode, **changes):
    entry = {
        "explanation_id": explanation_id,
        "flow_id": explanation_id,
        "mode": mode,
        "model": model,
        "explanation": f"answer {explanation_id}",
        "flow": {},
        "status": "ok",
    }
    return {**entry, **changes}


def _verdicts(explanation_id, annotator, correct=True, feature=True, factual=True):
    return {
        "explanation_id": explanation_id,
        "annotator": annotator,
        "correctness": correct,
        "feature_consistent": feature,
        "factually_consistent": factual,
    }


def _write_jsonl(path: Path, rows) -> Path:
    path.write_text("".join((row if isinstance(row, str) else json.dumps(row)) + "\n"
                            for row in rows))
    return path


class TestEvaluateCells:
    def test_cells_count_their_own_exclusions_and_unannotated_cells_are_skipped(self, tmp_path):
        from flowexplain.evaluation import run_evaluate

        log = _write_jsonl(tmp_path / "log.jsonl", [
            _logged("e1", "m1", "basic"),
            _logged("e2", "m1", "basic"),
            _logged("e3", "m1", "augmented"),
            _logged("e4", "m1", "augmented"),
            _logged("e5", "m2", "basic"),
            {"explanation_id": "e6", "flow_id": "e6", "mode": "basic", "model": "m2",
             "status": "error"},
        ])
        annotations = _write_jsonl(tmp_path / "annotations.jsonl", [
            _verdicts("e1", "a1"), _verdicts("e1", "a2", correct=False),
            _verdicts("e2", "a1", feature=False), _verdicts("e2", "a2", feature=False),
            _verdicts("e3", "a1"), _verdicts("e3", "a2", feature=False, factual=False),
            _verdicts("e4", "a1", correct=False), _verdicts("e4", "a2", correct=False),
        ])
        config = make_config(tmp_path)
        reports, _, report_path = run_evaluate(config, log, annotations)
        assert [(r.model, r.mode, r.n) for r in reports] == [
            ("m1", "augmented", 2), ("m1", "basic", 2)
        ]
        augmented, basic = reports
        assert augmented.excluded == {"feature_consistency": 1, "factual_consistency": 1}
        assert (augmented.correctness.positives, augmented.correctness.resolved) == (1, 2)
        assert augmented.feature_consistency.resolved == 1
        assert basic.excluded == {"correctness": 1}
        assert (basic.feature_consistency.positives, basic.feature_consistency.resolved) == (1, 2)
        assert len(json.loads(report_path.read_text())) == 2
        findings = (config.output_dir / "findings.jsonl").read_text().splitlines()
        assert [json.loads(row)["explanation_id"] for row in findings] == [
            "e1", "e2", "e3", "e4", "e5"
        ]

    @pytest.mark.parametrize(
        "line,message",
        [
            ({k: v for k, v in _logged("bad", "m1", "basic").items() if k != "model"},
             r"explanation 'bad' in \S*log\.jsonl has no 'model'"),
            (_logged("bad", "m1", "basic", explanation=""),
             r"explanation 'bad' in \S*log\.jsonl has no text"),
            ("{not json", r"malformed run log entry in \S*log\.jsonl on line 2"),
            (_logged("bad", "m1", "basic", flow={"PROTOCOL": "tcp"}),
             r"explanation 'bad' logs a malformed flow: not an integer"),
            (DEEP_JSON, r"malformed run log entry in \S*log\.jsonl on line 2: maximum recursion"),
        ],
        ids=["without-model", "empty-text", "not-json", "malformed-flow-value", "nested-too-deep"],
    )
    def test_bad_log_entry_is_pipeline_error_naming_the_file(self, tmp_path, line, message):
        from flowexplain.evaluation import run_evaluate
        from flowexplain.config import PipelineError

        log = _write_jsonl(tmp_path / "log.jsonl", [_logged("e1", "m1", "basic"), line])
        annotations = _write_jsonl(tmp_path / "annotations.jsonl", [_verdicts("e1", "a1")])
        with pytest.raises(PipelineError, match=message):
            run_evaluate(make_config(tmp_path), log, annotations)
        result = CliRunner().invoke(main, [
            "evaluate", "-c", str(write_config_file(tmp_path)),
            "--explanations", str(log), "--annotations", str(annotations),
        ])
        assert isinstance(result.exception, SystemExit) and result.exit_code == 1
        assert result.output.startswith("Error: ") and len(result.output.splitlines()) == 1


class TestCommandLine:
    def test_ingest_command(self, tmp_path):
        runner = CliRunner()
        config_path = write_config_file(tmp_path)
        result = runner.invoke(main, ["ingest", "-c", str(config_path)])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["total"] == 200 and payload["malicious"] == 80

    def test_header_mismatch_nonzero_exit_with_diff(self, tmp_path):
        bad = tmp_path / "bad.csv"
        lines = DATASET.read_text().splitlines()
        header = lines[0].replace("IPV4_SRC_ADDR", "SOURCE_ADDRESS")
        bad.write_text("\n".join([header] + lines[1:3]) + "\n")
        config_path = write_config_file(tmp_path, dataset=str(bad))
        runner = CliRunner()
        result = runner.invoke(main, ["ingest", "-c", str(config_path)])
        assert result.exit_code != 0
        assert "IPV4_SRC_ADDR" in result.output
        assert "SOURCE_ADDRESS" in result.output

    @pytest.mark.parametrize(
        "command,key,message",
        [
            (["ingest"], "catalog", "malformed catalog document"),
            (["explain", "--mode", "basic"], "catalog", "malformed catalog document"),
            (["sample"], "catalog", "malformed catalog document"),
            (["serve", "--port", "0"], "catalog", "malformed catalog document"),
            (["explain", "--mode", "basic"], "basic_template", "must contain placeholders"),
            (["explain", "--mode", "basic"], "basic_template:trailing",
             "must end with {{flow}}"),
            (["ingest"], "store", "cannot open history store"),
            (["ingest"], "catalog:no-protocol", "catalog has no PROTOCOL column"),
            (["ingest"], "catalog:string-address",
             "catalog column IPV4_SRC_ADDR must have value_kind 'address', not 'string'"),
        ],
        ids=["catalog-ingest", "catalog-explain", "catalog-sample", "catalog-serve",
             "template-without-placeholder", "template-with-text-after-flow",
             "store-in-missing-directory", "catalog-without-protocol",
             "catalog-with-string-address"],
    )
    def test_package_error_ends_with_one_error_line(
        self, tmp_path, catalog, command, key, message
    ):
        (tmp_path / "catalog.json").write_text("{not json")
        features = [asdict(spec) for spec in catalog.features]
        (tmp_path / "no-protocol.json").write_text(json.dumps({"version": "t", "features": [
            f for f in features if f["name"] != "PROTOCOL"
        ]}))
        (tmp_path / "string-address.json").write_text(json.dumps({"version": "t", "features": [
            {**f, "value_kind": "string"} if f["name"] == "IPV4_SRC_ADDR" else f for f in features
        ]}))
        (tmp_path / "basic.txt").write_text("Explain this flow.\n")
        (tmp_path / "trailing.txt").write_text("Explain {{flow}} briefly.\n")
        bad = {
            "catalog": str(tmp_path / "catalog.json"),
            "basic_template": str(tmp_path / "basic.txt"),
            "basic_template:trailing": str(tmp_path / "trailing.txt"),
            "store": str(tmp_path / "missing" / "history.db"),
            "catalog:no-protocol": str(tmp_path / "no-protocol.json"),
            "catalog:string-address": str(tmp_path / "string-address.json"),
        }
        config_path = write_config_file(tmp_path, **{key.partition(":")[0]: bad[key]})
        name, *options = command
        result = CliRunner().invoke(main, [name, "-c", str(config_path), *options])
        assert isinstance(result.exception, SystemExit) and result.exit_code == 1
        assert result.output.startswith("Error: ") and len(result.output.splitlines()) == 1
        assert message in result.output

    @pytest.mark.parametrize(
        "content", [b"\xff\xfe{}", DEEP_JSON.encode("ascii")], ids=["not-utf-8", "nested-too-deep"]
    )
    def test_unreadable_catalog_ends_with_one_error_line(self, tmp_path, content):
        (tmp_path / "catalog.json").write_bytes(content)
        config_path = write_config_file(tmp_path, catalog=str(tmp_path / "catalog.json"))
        result = CliRunner().invoke(main, ["ingest", "-c", str(config_path)])
        assert isinstance(result.exception, SystemExit) and result.exit_code == 1
        assert result.output.startswith("Error: malformed catalog document")
        assert len(result.output.splitlines()) == 1

    @pytest.mark.parametrize(
        "command,fails",
        [(["ingest"], False), (["sample"], False), (["explain", "--mode", "basic"], True),
         (["serve", "--port", "0"], True)],
        ids=["ingest", "sample", "explain", "serve"],
    )
    def test_only_explain_and_serve_check_the_backend_section(self, tmp_path, command, fails):
        config_path = write_config_file(tmp_path, backend={"kind": "nope"})
        name, *options = command
        result = CliRunner().invoke(main, [name, "-c", str(config_path), *options])
        if fails:
            assert isinstance(result.exception, SystemExit) and result.exit_code == 1
            assert result.output == "Error: unknown backend kind 'nope'\n"
        else:
            assert result.exit_code == 0, result.output

    @pytest.mark.parametrize(
        "command,files,config,message",
        [
            (["explain", "--sample-file", "in.json"], {"in.json": "{bad"}, {},
             "cannot read sample file"),
            (["explain", "--sample-file", "in.json"], {"in.json": '{"ids": []}'}, {},
             "needs a 'flow_ids' list"),
            (["cost", "--avg-input", "1", "--avg-output", "1"], {},
             {"pricing": {"input_per_million": "abc"}}, "input_per_million=abc"),
            (["cost", "--avg-input", "1", "--avg-output", "1"], {},
             {"pricing": {"output_per_million": -1}}, "output_per_million=-1"),
            (["cost", "--avg-input", "-1", "--avg-output", "1"], {}, {},
             "cost inputs must be non-negative"),
            (["cost", "--ledger", "in.json"], {"in.json": "{bad"}, {}, "cannot read ledger"),
            (["cost", "--ledger", "in.json"], {"in.json": "[]"}, {},
             "ledger must be a JSON object, not list"),
            (["cost", "--ledger", "in.json"], {"in.json": '{"results": "many"}'}, {},
             "malformed ledger"),
            (["cost", "--avg-input", "1", "--avg-output", "1"], {}, {"workers": "4"},
             "config key 'workers' must be an integer, not str"),
            (["cost", "--avg-input", "1", "--avg-output", "1"], {}, {"temperature": "hot"},
             "config key 'temperature' must be a number, not str"),
            (["cost", "--avg-input", "1", "--avg-output", "1"], {},
             {"pricing": {"input_price": "9"}}, "unknown keys in pricing: ['input_price']"),
            (["explain", "--sample-file", "in.json"], {"in.json": DEEP_JSON}, {},
             "cannot read sample file"),
            (["cost", "--ledger", "in.json"], {"in.json": DEEP_JSON}, {}, "cannot read ledger"),
            (["cost", "--ledger", "in.json"], {"in.json": '{"results": 1e400}'}, {},
             "malformed ledger"),
            (["cost", "--avg-input", "nan", "--avg-output", "3"], {}, {},
             "cost inputs must be non-negative and finite"),
            (["cost", "--avg-input", "inf", "--avg-output", "3"], {}, {},
             "cost inputs must be non-negative and finite"),
            (["cost", "--avg-input", "1e30", "--avg-output", "3"], {}, {},
             "cannot project cost: the amount is too large"),
        ],
        ids=["sample-not-json", "sample-without-flow-ids", "pricing-not-a-number",
             "pricing-negative", "negative-average", "ledger-not-json", "ledger-not-object",
             "ledger-count-not-integer", "workers-str", "temperature-str",
             "pricing-unknown-key", "sample-nested-too-deep", "ledger-nested-too-deep",
             "ledger-count-infinite", "nan-average", "infinite-average", "cost-too-large"],
    )
    def test_bad_cost_or_sample_input_ends_with_one_error_line(
        self, tmp_path, command, files, config, message
    ):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        config_path = write_config_file(tmp_path, **config)
        name, *options = command
        options = [str(tmp_path / o) if o in files else o for o in options]
        if name == "explain":
            options += ["--mode", "basic"]
        result = CliRunner().invoke(main, [name, "-c", str(config_path), *options])
        assert isinstance(result.exception, SystemExit) and result.exit_code == 1
        assert result.output.startswith("Error: ") and len(result.output.splitlines()) == 1
        assert message in result.output

    def test_explain_and_cost_commands(self, tmp_path):
        runner = CliRunner()
        config_path = write_config_file(tmp_path)
        assert runner.invoke(main, ["ingest", "-c", str(config_path)]).exit_code == 0
        sample = runner.invoke(
            main, ["sample", "-c", str(config_path), "--out", str(tmp_path / "s.json")]
        )
        assert sample.exit_code == 0, sample.output
        explain = runner.invoke(
            main,
            [
                "explain", "-c", str(config_path), "--mode", "augmented",
                "--sample-file", str(tmp_path / "s.json"), "--run-id", "cli-run",
            ],
        )
        assert explain.exit_code == 0, explain.output
        payload = json.loads(explain.output)
        assert payload["written"] == 50 and payload["failed"] == 0
        cost = runner.invoke(
            main,
            ["cost", "-c", str(config_path), "--queries", "1000",
             "--avg-input", "461", "--avg-output", "460"],
        )
        assert cost.exit_code == 0
        assert json.loads(cost.output)["cost"] == "5.75"

    def test_explain_budget_override(self, tmp_path):
        runner = CliRunner()
        config_path = write_config_file(tmp_path)
        runner.invoke(main, ["ingest", "-c", str(config_path)])
        result = runner.invoke(
            main,
            ["explain", "-c", str(config_path), "--mode", "basic",
             "--flow-id", "row-000001", "--run-id", "b1", "--budget", "9999"],
        )
        assert result.exit_code == 0, result.output

    def test_custom_template_files_used(self, tmp_path):
        basic = tmp_path / "basic.txt"
        basic.write_text("Explain this flow briefly.\n\n{{flow}}\n")
        augmented = tmp_path / "augmented.txt"
        augmented.write_text(
            "NetFlow Specification:\n{{spec}}\n\n"
            "Protocol Specific Knowledge:\n{{protocols}}\n\n"
            "IP Specific Knowledge:\n{{ip_knowledge}}\n"
        )
        config_path = write_config_file(
            tmp_path, basic_template=str(basic), augmented_template=str(augmented)
        )
        runner = CliRunner()
        runner.invoke(main, ["ingest", "-c", str(config_path)])
        result = runner.invoke(
            main,
            ["explain", "-c", str(config_path), "--mode", "augmented",
             "--flow-id", "row-000001", "--run-id", "tpl"],
        )
        assert result.exit_code == 0, result.output
        entry = json.loads((tmp_path / "out" / "tpl.jsonl").read_text().splitlines()[0])
        assert entry["prompt"]["text"].startswith("Explain this flow briefly.")
        assert entry["prompt"]["metadata"]["template_id"] == "basic-custom"

    def test_sample_uniform_flag(self, tmp_path):
        runner = CliRunner()
        config_path = write_config_file(tmp_path)
        out = tmp_path / "uniform.json"
        result = runner.invoke(
            main,
            ["sample", "-c", str(config_path), "--uniform", "--n", "10",
             "--seed", "3", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(out.read_text())
        assert payload["stratified"] is False
        assert len(payload["flow_ids"]) == 10
