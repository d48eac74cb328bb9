"""Whatever JSON a knowledge source holds reads as an answer or as unavailable.

An HTTP provider's answer is an arbitrary JSON value, and a fixture row an
arbitrary JSON object. A lookup returns an answer or raises
``ProviderError``. A fixture file loads, or raises ``ValueError``, which the
configuration reports as ``ConfigError``. Nothing else escapes.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowexplain.config import ConfigError
from flowexplain.pipeline import _build_provider
from flowexplain.providers import (
    FixtureGeoProvider,
    FixtureThreatProvider,
    HTTPGeoProvider,
    HTTPProviderProfile,
    HTTPThreatProvider,
    ProviderError,
)

from .loopback import KeepAliveServer

#: where an HTTP profile reads each field of the two answer shapes
GEO_PATHS = {"country": "country", "city": "geo.city", "asn": "asn", "as_name": "as.0.name"}
CTI_PATHS = {"verdict": "verdict", "categories": "data.tags", "last_seen": "data.0"}

# keys and values the answer shapes read, so that examples reach past the
# missing-field cases
KEYS = st.sampled_from(sorted(
    {*GEO_PATHS, *CTI_PATHS, "ip", "simulate", "retrieved_at", "geo", "as", "data", "tags",
     "0", "name"}
)) | st.text(max_size=4)
SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
           | st.sampled_from(("8.8.8.8", "Malicious", "unknown", "AS15169", "timeout", "error")))
JSON_VALUES = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(KEYS, children, max_size=4),
    max_leaves=12,
)
OBJECTS = st.dictionaries(KEYS, JSON_VALUES, max_size=6)


def holding(name: str, *likely: str):
    """Objects that hold ``name``, most often as one of ``likely``."""
    return st.builds(lambda obj, value: {**obj, name: value}, OBJECTS,
                     st.sampled_from(likely) | SCALARS)


# a fixture row without a string "ip" fails its file's load, and a threat
# answer without a verdict its lookup, so most have one
ROWS = holding("ip", "8.8.8.8", "1.1.1.1") | OBJECTS
ANSWERS = holding("verdict", "Malicious", "unknown") | JSON_VALUES


def test_any_json_answer_is_an_answer_or_a_provider_error():
    body = [b"null"]
    with KeepAliveServer(lambda request: body[0]) as server:
        providers = (
            HTTPGeoProvider(HTTPProviderProfile("http-geo", server.url("/geo/{ip}"), GEO_PATHS)),
            HTTPThreatProvider(
                HTTPProviderProfile("http-cti", server.url("/cti/{ip}"), CTI_PATHS)
            ),
        )

        @settings(max_examples=200, deadline=None)
        @given(ANSWERS)
        def lookups(payload):
            body[0] = json.dumps(payload).encode("utf-8")
            for provider in providers:
                try:
                    provider.lookup("8.8.8.8")
                except ProviderError:
                    pass

        lookups()


@pytest.fixture(scope="module")
def feed(tmp_path_factory):
    return tmp_path_factory.mktemp("feed") / "feed.jsonl"


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(ROWS, max_size=4))
def test_any_fixture_row_loads_or_is_a_config_error(feed, rows):
    feed.write_text("".join(json.dumps(row) + "\n" for row in rows))
    for family, provider_class in (("geo", FixtureGeoProvider), ("cti", FixtureThreatProvider)):
        try:
            provider = provider_class(feed)
        except ValueError:
            with pytest.raises(ConfigError):
                _build_provider(family, {"kind": "fixture", "fixture": str(feed)})
            continue
        for row in rows:
            try:
                provider.lookup(row["ip"])
            except ProviderError:
                pass
