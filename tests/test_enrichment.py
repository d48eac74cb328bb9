import json
import re
import time
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowexplain.enrichment import ContextBuilder, classify_ip
from flowexplain.prompts import (
    build_augmented_prompt,
    default_augmented_template,
    default_basic_template,
)
from flowexplain.providers import (
    CACHE_ENTRIES,
    FixtureGeoProvider,
    FixtureThreatProvider,
    ProviderError,
    ProviderNotFound,
    ProviderTimeout,
    TTLCache,
)

from .conftest import (
    CTI_FIXTURE,
    DEEP_JSON,
    GEO_FIXTURE,
    history_entry,
    make_record,
    section_text,
    seeded_store,
)
from .data.record_parse_golden import ADDRESS_EDGES, ADDRESSES
from .loopback import KeepAliveServer, SilentServer, refused_port


class TestClassifyIp:
    @pytest.mark.parametrize(
        "ip, expected",
        [
            ("172.31.69.17", "private"),
            ("10.0.0.1", "private"),
            ("192.168.1.5", "private"),
            ("127.0.0.1", "loopback"),
            ("8.8.8.8", "public"),
            ("169.254.1.1", "link_local"),
            ("224.0.0.251", "multicast"),
            ("240.1.2.3", "reserved"),
            ("0.0.0.0", "reserved"),
            ("2001:4860:4860::8888", "public"),
            ("::1", "loopback"),
        ],
    )
    def test_classification(self, ip, expected):
        assert classify_ip(ip) == expected

    def test_invalid_text_rejected(self):
        with pytest.raises(ValueError, match="invalid IP"):
            classify_ip("999.999.1.1")

    def test_memoised_answers_equal_the_unmemoised_function(self):
        for text in ADDRESSES + ADDRESS_EDGES:
            try:
                expected = classify_ip.__wrapped__(text)
            except ValueError as exc:
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    classify_ip(text)
            else:
                assert classify_ip(text) == expected

    def test_cache_is_bounded(self):
        classify_ip.cache_clear()
        bound = classify_ip.cache_info().maxsize
        try:
            for i in range(bound + 10):
                classify_ip(f"10.{i >> 16}.{(i >> 8) & 255}.{i & 255}")
            assert classify_ip.cache_info().currsize == bound
        finally:
            classify_ip.cache_clear()

    def test_a_rejection_is_not_cached_and_its_message_is_clipped(self):
        text = "1" * 10_000
        before = classify_ip.cache_info()
        for _ in range(2):
            with pytest.raises(ValueError, match=r"… \(10000 characters\)$"):
                classify_ip(text)
        after = classify_ip.cache_info()
        assert (after.misses, after.currsize) == (before.misses + 2, before.currsize)


def fixture_file(tmp_path, *rows: dict):
    """A provider fixture file holding ``rows``, one JSON object a line."""
    path = tmp_path / "fixture.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    return path


class TestGeolocate:
    def test_fixture_hit_carries_provenance(self):
        provider = FixtureGeoProvider(GEO_FIXTURE)
        info = provider.lookup("8.8.8.8")
        assert info.country == "United States"
        assert info.provenance.provider_id == "fixture-geo"
        assert info.provenance.retrieved_at

    def test_miss_raises_not_found(self, tmp_path):
        provider = FixtureGeoProvider(fixture_file(tmp_path))
        with pytest.raises(ProviderNotFound):
            provider.lookup("8.8.4.4")

    def test_timeout_simulation(self, tmp_path):
        path = fixture_file(tmp_path, {"ip": "5.5.5.5", "simulate": "timeout"})
        provider = FixtureGeoProvider(path)
        with pytest.raises(ProviderTimeout):
            provider.lookup("5.5.5.5")

    def test_cache_prevents_second_call(self, catalog):
        provider = FixtureGeoProvider(GEO_FIXTURE)
        builder = ContextBuilder(geo_provider=provider, cache=TTLCache(ttl_seconds=3600))
        builder.build(_context_record(catalog))
        builder.build(_context_record(catalog))
        assert provider.calls == 1

    def test_cache_expires(self, catalog):
        clock = {"now": 0.0}
        cache = TTLCache(ttl_seconds=10, clock=lambda: clock["now"])
        provider = FixtureGeoProvider(GEO_FIXTURE)
        builder = ContextBuilder(geo_provider=provider, cache=cache)
        builder.build(_context_record(catalog))
        clock["now"] = 11.0
        builder.build(_context_record(catalog))
        assert provider.calls == 2

    def test_cache_holds_at_most_its_bound_dropping_the_least_recently_used(self):
        cache = TTLCache()
        for i in range(CACHE_ENTRIES):
            cache.put("geo", f"ip-{i}", i)
        assert cache.get("geo", "ip-0") == 0  # read, so now the most recently used
        cache.put("geo", "ip-new", -1)
        assert len(cache) == CACHE_ENTRIES
        assert cache.get("geo", "ip-1") is None
        assert (cache.get("geo", "ip-0"), cache.get("geo", "ip-new")) == (0, -1)
        for i in range(2 * CACHE_ENTRIES):
            cache.put("cti", f"ip-{i}", i)
        assert len(cache) == CACHE_ENTRIES
        assert cache.get("cti", f"ip-{2 * CACHE_ENTRIES - 1}") == 2 * CACHE_ENTRIES - 1


class TestThreatLookup:
    def test_listed_scanner(self):
        provider = FixtureThreatProvider(CTI_FIXTURE)
        intel = provider.lookup("45.155.205.233")
        assert intel.verdict == "malicious"
        assert "scanner" in intel.categories
        assert intel.provenance.provider_id == "fixture-cti"

    def test_absent_ip_gets_unknown_verdict(self, tmp_path):
        provider = FixtureThreatProvider(fixture_file(tmp_path))
        intel = provider.lookup("8.8.4.4")
        assert intel.verdict == "unknown"
        assert intel.categories == ()

    def test_malformed_verdict_is_value_error_at_load(self, tmp_path):
        path = fixture_file(tmp_path, {"ip": "4.4.4.4", "verdict": "definitely-evil"})
        with pytest.raises(ValueError, match=r"fixture\.jsonl on line 1: malformed verdict"):
            FixtureThreatProvider(path)


def _context_record(catalog, **overrides):
    defaults = dict(
        PROTOCOL=17,
        L7_PROTO=Decimal("5.0"),
        IPV4_SRC_ADDR="172.31.69.17",
        IPV4_DST_ADDR="8.8.8.8",
        timestamp=1_000_000,
    )
    defaults.update(overrides)
    return make_record(catalog, **defaults)


class TestBuildContext:
    def test_no_providers_private_src(self, catalog):
        record = _context_record(catalog, IPV4_DST_ADDR="172.31.69.18")
        context = ContextBuilder().build(record)
        assert context.l4.name == "UDP"
        assert context.src.classification == "private"
        pairs = {(u.component, u.reason) for u in context.unavailable}
        assert ("geo.src", "non-public") in pairs
        assert ("cti.src", "no provider") in pairs
        assert ("history.src", "no store") in pairs
        assert context.src.geo is None and context.src.threat is None

    def test_history_limited_to_k(self, catalog):
        entries = [
            history_entry(flow_id=f"e{i}", timestamp=i, src_ip="8.8.8.8", dst_ip="1.2.3.4")
            for i in range(7)
        ]
        store = seeded_store(entries)
        record = _context_record(catalog)
        context = ContextBuilder(store=store, k=5).build(record)
        assert len(context.histories.entries[1]) == 5
        stamps = [e.timestamp for e in context.histories.entries[1]]
        assert stamps == sorted(stamps, reverse=True)

    def test_empty_store_still_produces_context(self, catalog):
        store = seeded_store([])
        context = ContextBuilder(store=store).build(_context_record(catalog))
        assert context.histories.entries[1] == ()
        assert all(not u.component.startswith("history") for u in context.unavailable)

    def test_history_excludes_entries_at_or_after_record_timestamp(self, catalog):
        store = seeded_store(
            [
                history_entry(flow_id="old", timestamp=10, src_ip="8.8.8.8"),
                history_entry(flow_id="same", timestamp=50, src_ip="8.8.8.8"),
                history_entry(flow_id="future", timestamp=60, src_ip="8.8.8.8"),
            ]
        )
        record = _context_record(catalog, timestamp=50)
        context = ContextBuilder(store=store, k=5).build(record)
        assert [e.flow_id for e in context.histories.entries[1]] == ["old"]

    def test_providers_populate_public_dst_only(self, catalog):
        geo = FixtureGeoProvider(GEO_FIXTURE)
        cti = FixtureThreatProvider(CTI_FIXTURE)
        record = _context_record(catalog)
        context = ContextBuilder(geo_provider=geo, cti_provider=cti).build(record)
        assert context.dst.geo is not None and context.dst.geo.country == "United States"
        assert context.dst.threat is not None and context.dst.threat.verdict == "benign"
        assert context.src.geo is None and context.src.threat is None

    def test_non_public_ips_never_trigger_provider_calls(self, catalog):
        geo = FixtureGeoProvider(GEO_FIXTURE)
        cti = FixtureThreatProvider(CTI_FIXTURE)
        record = _context_record(
            catalog, IPV4_SRC_ADDR="172.31.69.17", IPV4_DST_ADDR="192.168.0.9"
        )
        ContextBuilder(geo_provider=geo, cti_provider=cti).build(record)
        assert geo.calls == 0
        assert cti.calls == 0

    def test_provider_timeout_degrades_to_unavailable(self, catalog, tmp_path):
        geo = FixtureGeoProvider(fixture_file(tmp_path, {"ip": "8.8.8.8", "simulate": "timeout"}))
        context = ContextBuilder(geo_provider=geo).build(_context_record(catalog))
        assert context.dst.geo is None
        assert ("geo.dst", "timeout") in {
            (u.component, u.reason) for u in context.unavailable
        }

    def test_geo_not_found_degrades_to_unavailable(self, catalog, tmp_path):
        geo = FixtureGeoProvider(fixture_file(tmp_path))
        context = ContextBuilder(geo_provider=geo).build(_context_record(catalog))
        assert ("geo.dst", "not_found") in {
            (u.component, u.reason) for u in context.unavailable
        }

    def test_provider_hard_failure_degrades_to_provider_error(self, catalog, tmp_path):
        cti = FixtureThreatProvider(fixture_file(tmp_path, {"ip": "8.8.8.8", "simulate": "error"}))
        context = ContextBuilder(cti_provider=cti).build(_context_record(catalog))
        assert ("cti.dst", "provider_error") in {
            (u.component, u.reason) for u in context.unavailable
        }

    def test_spec_section_lists_every_catalog_feature(self, catalog):
        record = _context_record(catalog)
        bundle = build_augmented_prompt(
            record,
            ContextBuilder().build(record),
            catalog,
            default_basic_template(),
            default_augmented_template(),
        )
        lines = [
            line for line in section_text(bundle, "netflow_spec").splitlines()
            if line.startswith("- ")
        ]
        assert [line[2:].split(":")[0] for line in lines] == list(catalog.feature_names)

    def test_deterministic_given_fixed_store_and_fixtures(self, catalog):
        store = seeded_store(
            [history_entry(flow_id=f"e{i}", timestamp=i, src_ip="8.8.8.8") for i in range(4)]
        )
        geo = FixtureGeoProvider(GEO_FIXTURE)
        cti = FixtureThreatProvider(CTI_FIXTURE)
        record = _context_record(catalog)
        builder = ContextBuilder(store=store, geo_provider=geo, cti_provider=cti, k=3)
        assert builder.build(record) == builder.build(record)

    def test_negative_k_rejected(self, catalog):
        with pytest.raises(ValueError):
            ContextBuilder(k=-1)


class _ScriptedGetServer:
    """Serves scripted (status, body) responses to GET requests."""

    def __init__(self, script):
        import json as _json
        import threading
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        server = self
        self.script = list(script)
        self.paths = []

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def do_GET(self):
                server.paths.append(self.path)
                status, body = server.script.pop(0)
                payload = body.encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._thread_mod = threading

    def url_template(self):
        host, port = self.httpd.server_address[:2]
        return f"http://{host}:{port}/lookup/{{ip}}"

    def __enter__(self):
        self.thread = self._thread_mod.Thread(
            target=self.httpd.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.httpd.shutdown()
        self.httpd.server_close()


class TestHTTPProviders:
    def _geo(self, server, **kwargs):
        from flowexplain.providers import HTTPGeoProvider, HTTPProviderProfile

        profile = HTTPProviderProfile(
            provider_id="http-geo-test",
            url_template=server.url_template(),
            field_paths={
                "country": "location.country",
                "city": "location.city",
                "asn": "asn.number",
                "as_name": "asn.org",
            },
            **kwargs,
        )
        return HTTPGeoProvider(profile)

    def test_geo_lookup_maps_fields(self):
        import json as _json

        body = _json.dumps(
            {
                "location": {"country": "Australia", "city": "Brisbane"},
                "asn": {"number": 1221, "org": "TELSTRA"},
            }
        )
        with _ScriptedGetServer([(200, body)]) as server:
            info = self._geo(server).lookup("8.8.8.8")
        assert info.country == "Australia"
        assert info.asn == 1221
        assert info.as_name == "TELSTRA"
        assert info.provenance.provider_id == "http-geo-test"
        assert server.paths == ["/lookup/8.8.8.8"]

    def test_geo_404_is_not_found(self):
        with _ScriptedGetServer([(404, "{}")]) as server:
            with pytest.raises(ProviderNotFound):
                self._geo(server).lookup("8.8.8.8")

    def test_geo_auth_rejection(self, monkeypatch):
        monkeypatch.setenv("GEO_TOKEN", "tok")
        from flowexplain.providers import ProviderAuthError

        with _ScriptedGetServer([(403, "{}")]) as server:
            with pytest.raises(ProviderAuthError):
                self._geo(server, auth_env="GEO_TOKEN").lookup("8.8.8.8")

    def test_cti_lookup_and_malformed_verdict(self):
        import json as _json

        from flowexplain.providers import HTTPProviderProfile, HTTPThreatProvider

        def provider(server):
            return HTTPThreatProvider(
                HTTPProviderProfile(
                    provider_id="http-cti-test",
                    url_template=server.url_template(),
                    field_paths={"verdict": "data.verdict", "categories": "data.tags"},
                )
            )

        good = _json.dumps({"data": {"verdict": "Malicious", "tags": ["scanner"]}})
        with _ScriptedGetServer([(200, good)]) as server:
            intel = provider(server).lookup("8.8.8.8")
        assert intel.verdict == "malicious"
        assert intel.categories == ("scanner",)

        bad = _json.dumps({"data": {"verdict": "catastrophic"}})
        with _ScriptedGetServer([(200, bad)]) as server:
            with pytest.raises(ProviderError):
                provider(server).lookup("8.8.8.8")


def _answer(provider_class, field_paths: dict, payload: dict):
    """One lookup of ``provider_class`` against an endpoint that answers ``payload``."""
    from flowexplain.providers import HTTPProviderProfile

    with KeepAliveServer(json.dumps(payload).encode("utf-8")) as server:
        profile = HTTPProviderProfile(
            provider_id="http-test",
            url_template=server.url("/lookup/{ip}"),
            field_paths=field_paths,
        )
        return provider_class(profile).lookup("8.8.8.8")


class TestHTTPProviderFields:
    GEO_PATHS = {"country": "country", "city": "city", "asn": "asn", "as_name": "org"}
    CTI_PATHS = {"verdict": "verdict", "categories": "tags", "last_seen": "seen"}

    @pytest.mark.parametrize("asn", ["AS15169", "as15169", "15169", 15169])
    def test_asn_forms(self, asn):
        from flowexplain.providers import HTTPGeoProvider

        assert _answer(HTTPGeoProvider, self.GEO_PATHS, {"asn": asn}).asn == 15169

    def test_numbered_categories_kept_as_digits(self):
        from flowexplain.providers import HTTPThreatProvider

        intel = _answer(
            HTTPThreatProvider, self.CTI_PATHS, {"verdict": "malicious", "tags": [18, "ssh"]}
        )
        assert intel.categories == ("18", "ssh")

    @pytest.mark.parametrize(
        "payload",
        [
            {"asn": "ASX"},
            {"asn": "AS"},
            {"asn": True},
            {"asn": -1},
            {"asn": 2**32},
            {"asn": 15169.5},
            {"asn": [15169]},
            {"country": 5},
            {"city": ["Brisbane"]},
            {"org": {"name": "TELSTRA"}},
        ],
    )
    def test_malformed_geo_field(self, payload):
        from flowexplain.providers import HTTPGeoProvider, ProviderMalformed

        with pytest.raises(ProviderMalformed) as caught:
            _answer(HTTPGeoProvider, self.GEO_PATHS, payload)
        assert caught.value.reason == "malformed"

    @pytest.mark.parametrize(
        "payload",
        [
            {"verdict": "malicious", "tags": 5},
            {"verdict": "malicious", "tags": {"scanner": True}},
            {"verdict": "malicious", "tags": [None]},
            {"verdict": "malicious", "tags": [True]},
            {"verdict": "malicious", "seen": 1700000000},
            {"verdict": 7},
            {"verdict": None},
            {"verdict": "catastrophic"},
        ],
    )
    def test_malformed_cti_field(self, payload):
        from flowexplain.providers import HTTPThreatProvider, ProviderMalformed

        with pytest.raises(ProviderMalformed) as caught:
            _answer(HTTPThreatProvider, self.CTI_PATHS, payload)
        assert caught.value.reason == "malformed"

    def test_answer_nested_too_deep_is_malformed(self, catalog):
        from flowexplain.providers import HTTPGeoProvider, HTTPProviderProfile

        with KeepAliveServer(DEEP_JSON.encode("ascii")) as server:
            geo = HTTPGeoProvider(HTTPProviderProfile(
                provider_id="http-test", url_template=server.url("/lookup/{ip}"),
                field_paths=self.GEO_PATHS,
            ))
            context = ContextBuilder(geo_provider=geo).build(_context_record(catalog))
        assert context.dst.geo is None and context.dst.unavailable["geo"] == "malformed"


class TestHTTPProviderTransport:
    def _geo(self, url_template, timeout_ms=5000):
        from flowexplain.providers import HTTPGeoProvider, HTTPProviderProfile

        profile = HTTPProviderProfile(
            provider_id="http-geo-test",
            url_template=url_template,
            field_paths={"country": "country"},
            timeout_ms=timeout_ms,
        )
        return HTTPGeoProvider(profile)

    def test_silent_server_times_out(self):
        with SilentServer() as server:
            geo = self._geo(server.url("/lookup/{ip}"), timeout_ms=200)
            started = time.monotonic()
            with pytest.raises(ProviderTimeout, match="timed out for 8.8.8.8"):
                geo.lookup("8.8.8.8")
        assert time.monotonic() - started < 2.0

    def test_refused_port_is_provider_error(self):
        geo = self._geo(f"http://127.0.0.1:{refused_port()}/lookup/{{ip}}")
        with pytest.raises(ProviderError, match="http-geo-test request failed") as caught:
            geo.lookup("8.8.8.8")
        assert caught.value.reason == "provider_error"

    def test_idle_closed_connection_is_reopened_once(self):
        body = json.dumps({"country": "Australia"}).encode("utf-8")
        with KeepAliveServer(body, close_after_reply=True) as server:
            geo = self._geo(server.url("/lookup/{ip}"))
            countries = [geo.lookup(ip).country for ip in ("8.8.8.8", "1.1.1.1", "9.9.9.9")]
        assert countries == ["Australia"] * 3
        assert (server.requests, server.connections) == (3, 3)

    def test_one_thread_keeps_one_connection(self):
        body = json.dumps({"country": "Australia"}).encode("utf-8")
        with KeepAliveServer(body) as server:
            geo = self._geo(server.url("/lookup/{ip}"))
            for ip in ("8.8.8.8", "1.1.1.1", "9.9.9.9"):
                geo.lookup(ip)
        assert (server.requests, server.connections) == (3, 1)


@settings(max_examples=25, deadline=None)
@given(
    src_last=st.integers(min_value=1, max_value=254),
    dst_last=st.integers(min_value=1, max_value=254),
    protocol=st.integers(min_value=0, max_value=255),
)
def test_no_fabrication_with_providers_disabled(src_last, dst_last, protocol):
    from flowexplain.catalog import default_catalog

    catalog = default_catalog()
    record = make_record(
        default_catalog(),
        PROTOCOL=protocol,
        IPV4_SRC_ADDR=f"172.31.69.{src_last}",
        IPV4_DST_ADDR=f"8.8.8.{dst_last}",
    )
    context = ContextBuilder().build(record)
    assert context.src.geo is None and context.dst.geo is None
    assert context.src.threat is None and context.dst.threat is None
    components = {u.component for u in context.unavailable}
    assert {"geo.src", "geo.dst", "cti.src", "cti.dst"} <= components
