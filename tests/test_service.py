import contextlib
import csv
import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowexplain import service as service_module
from flowexplain.flows import LABEL_MALICIOUS, FlowRecord, parse_label, parse_value
from flowexplain.gateway import AuthenticationError
from flowexplain.history import StoreError
from flowexplain.config import ConfigError, PipelineConfig, run_ingest
from flowexplain.pipeline import FieldValidationError, Runtime
from flowexplain.service import MAX_BODY_BYTES, ExplainService

from .conftest import DATASET
from .loopback import KeepAliveServer
from .data.record_parse_golden import (
    ADDRESS_EDGES,
    ADDRESSES,
    ATTACKS,
    LABEL_EDGES,
    LABELS,
    NUMBER_EDGES,
    WHITESPACE,
)
from .test_pipeline_cli import make_config


@contextlib.contextmanager
def _serving(config):
    runtime = Runtime(config)
    svc = ExplainService(runtime, host="127.0.0.1", port=0)
    svc.start()
    try:
        yield svc
    finally:
        svc.stop()
        runtime.close()


@pytest.fixture
def service(tmp_path):
    with _serving(make_config(tmp_path)) as svc:
        yield svc


def _request(service, path, payload=None, method=None):
    host, port = service.address
    url = f"http://{host}:{port}{path}"
    data = json.dumps(payload).encode() if payload is not None else None
    req = urllib.request.Request(
        url, data=data, method=method or ("POST" if data else "GET"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        with err:
            return err.code, json.loads(err.read())


def _post_raw(service, headers, body=b""):
    """POST ``body`` to /explain with exactly ``headers``; the reply must come within 10 s."""
    conn = http.client.HTTPConnection(*service.address, timeout=10)
    try:
        conn.putrequest("POST", "/explain", skip_accept_encoding=True)
        for name, value in headers.items():
            conn.putheader(name, value)
        conn.endheaders(body)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


def _dataset_row(label="1", attack="scan"):
    with open(DATASET) as fh:
        reader = csv.DictReader(fh)
        row = next(reader)
    row["Label"] = label
    row["Attack"] = attack
    return row


class TestService:
    def test_health(self, service):
        status, body = _request(service, "/health")
        assert status == 200
        assert body == {"status": "ok"}

    def test_valid_malicious_flow_explained(self, service):
        status, body = _request(
            service, "/explain", {"flow": _dataset_row(), "mode": "augmented"}
        )
        assert status == 200
        assert body["status"] == "ok"
        assert body["explanation"]
        assert body["mode"] == "augmented"
        assert body["prompt"]["token_count"] <= 2048

    @pytest.mark.parametrize("verdict", ["malicious", None])
    def test_malformed_knowledge_answers_degrade(self, tmp_path, verdict):
        payload = {"asn": "as15169", "country": "US", "verdict": verdict, "tags": 5}
        with KeepAliveServer(json.dumps(payload).encode("utf-8")) as knowledge:
            config = make_config(
                tmp_path,
                geo_provider={"kind": "http", "url_template": knowledge.url("/geo/{ip}"),
                              "field_paths": {"asn": "asn", "country": "country"}},
                cti_provider={"kind": "http", "url_template": knowledge.url("/cti/{ip}"),
                              "field_paths": {"verdict": "verdict", "categories": "tags"}},
            )
            row = _dataset_row()
            row["IPV4_SRC_ADDR"] = "8.8.8.8"
            with _serving(config) as service:
                status, body = _request(service, "/explain", {"flow": row, "mode": "augmented"})
        assert (status, body["status"]) == (200, "ok")
        text = body["prompt"]["text"]
        assert "- geolocation: country=US, asn=AS15169" in text
        assert "- threat intelligence unavailable: malformed" in text

    def test_malformed_fixture_row_fails_start_up(self, tmp_path):
        feed = tmp_path / "cti.jsonl"
        feed.write_text(json.dumps({"ip": "8.8.8.8", "verdict": "malicious", "categories": 5}))
        config = make_config(tmp_path, cti_provider={"kind": "fixture", "fixture": str(feed)})
        with pytest.raises(ConfigError, match=r"cti_provider: malformed fixture row in "
                                              r"\S*cti\.jsonl on line 1: malformed categories 5"):
            with _serving(config):
                pass

    def test_fixture_row_without_categories_is_served(self, tmp_path):
        feed = tmp_path / "cti.jsonl"
        feed.write_text(json.dumps({"ip": "8.8.8.8", "verdict": "malicious", "categories": None}))
        config = make_config(tmp_path, token_budget=100_000,
                             cti_provider={"kind": "fixture", "fixture": str(feed)})
        row = _dataset_row()
        row["IPV4_SRC_ADDR"] = "8.8.8.8"
        with _serving(config) as service:
            status, body = _request(service, "/explain", {"flow": row, "mode": "augmented"})
        assert (status, body["status"]) == (200, "ok")
        assert "- threat intelligence: verdict=malicious, categories=none" in body["prompt"]["text"]

    def test_benign_flow_rejected(self, service):
        status, body = _request(
            service, "/explain", {"flow": _dataset_row(label="0"), "mode": "basic"}
        )
        assert status == 422
        assert "only malicious flows" in body["error"]

    def test_missing_feature_is_field_error(self, service):
        row = _dataset_row()
        del row["IN_BYTES"]
        status, body = _request(service, "/explain", {"flow": row, "mode": "basic"})
        assert status == 400
        assert body["fields"]["IN_BYTES"] == "missing"

    def test_unknown_feature_is_field_error(self, service):
        row = _dataset_row()
        row["EXTRA_COLUMN"] = "1"
        status, body = _request(service, "/explain", {"flow": row, "mode": "basic"})
        assert status == 400
        assert "EXTRA_COLUMN" in body["fields"]

    def test_unknown_feature_name_is_quoted_bounded(self, service):
        row = _dataset_row()
        row["X" * 100_000] = "1"
        status, body = _request(service, "/explain", {"flow": row, "mode": "basic"})
        assert status == 400
        assert list(body["fields"].values()) == ["unknown feature"]
        (name,) = body["fields"]
        assert name.endswith("… (100000 characters)") and len(name) < 100

    @pytest.mark.parametrize(
        "body", [b"{broken", b"[" * 200_000, b'{"a":' * 200_000],
        ids=["broken", "deep-array", "deep-object"],
    )
    def test_bad_json_is_400(self, service, body):
        host, port = service.address
        req = urllib.request.Request(
            f"http://{host}:{port}/explain", data=body, method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10)
        with err.value:
            assert err.value.code == 400

    @pytest.mark.parametrize("body", [b"[1,2]", b'"x"', b"3", b"null"])
    def test_non_object_json_is_400(self, service, body):
        host, port = service.address
        req = urllib.request.Request(
            f"http://{host}:{port}/explain", data=body, method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10)
        with err.value:
            assert err.value.code == 400
            assert "JSON object" in json.loads(err.value.read())["error"]

    def test_bad_mode_rejected(self, service):
        status, body = _request(
            service, "/explain", {"flow": _dataset_row(), "mode": "verbose"}
        )
        assert status == 400

    def test_bad_mode_is_quoted_bounded(self, service):
        mode = "m" * 1_000_000
        status, body = _request(service, "/explain", {"flow": _dataset_row(), "mode": mode})
        assert status == 400
        assert body["error"].startswith("mode must be basic or augmented, got 'mmm")
        assert body["error"].endswith("… (1000002 characters)") and len(body["error"]) < 200

    def test_unlabelled_flow_defaults_to_malicious(self, service):
        row = _dataset_row()
        del row["Label"]
        status, body = _request(service, "/explain", {"flow": row, "mode": "basic"})
        assert status == 200

    def test_explained_flow_lands_in_history(self, service):
        row = _dataset_row()
        src = row["IPV4_SRC_ADDR"]
        store = service.runtime.store
        before = len(store.query_history(src, store.count() + 1))
        _request(service, "/explain", {"flow": row, "mode": "basic"})
        assert len(store.query_history(src, store.count() + 1)) == before + 1

    @pytest.mark.parametrize("answer", ["IN_P\u212aTS: 5", "\u0130N_BYTES: 3"])
    def test_lookalike_feature_name_in_answer_is_served(self, service, answer):
        runtime = service.runtime
        row = _dataset_row()
        prompt = runtime.build_prompt(runtime.record_from_row(row, flow_id="odd"), "basic")
        runtime.backend.canned[prompt.text] = answer
        before = runtime.store.count()
        status, body = _request(
            service, "/explain", {"flow": row, "mode": "basic", "flow_id": "odd"}
        )
        assert status == 200
        assert (body["explanation"], body["findings"]) == (answer, [])
        assert runtime.store.count() == before + 1

    @pytest.mark.parametrize(
        "column, value",
        [
            ("IN_BYTES", '"Infinity"'),
            ("IN_BYTES", '"-inf"'),
            ("IN_BYTES", '"sNaN"'),
            ("IN_BYTES", '"1e400000000"'),
            ("IN_BYTES", "1e999"),  # a JSON number past float range reaches the parser as "inf"
            ("SRC_TO_DST_SECOND_BYTES", '"NaN"'),
            ("SRC_TO_DST_SECOND_BYTES", '"sNaN"'),
            ("SRC_TO_DST_SECOND_BYTES", "1e999"),
            ("SRC_TO_DST_SECOND_BYTES", "NaN"),
        ],
    )
    def test_non_finite_or_huge_number_is_field_error(self, service, column, value):
        row = _dataset_row()
        row[column] = "@"
        body = json.dumps({"flow": row, "mode": "basic"}).replace('"@"', value).encode()
        status, reply = _post_raw(service, {"Content-Length": str(len(body))}, body)
        assert status == 400
        assert list(reply["fields"]) == [column]

    @pytest.mark.parametrize("column", ["IN_BYTES", "SRC_TO_DST_SECOND_BYTES", "IPV4_SRC_ADDR"])
    def test_field_error_for_a_1mb_cell_is_bounded(self, service, column):
        row = _dataset_row()
        row[column] = "a" * 1_000_000
        status, reply = _request(service, "/explain", {"flow": row, "mode": "basic"})
        assert status == 400
        assert list(reply["fields"]) == [column]
        assert reply["fields"][column].endswith("… (1000000 characters)")
        assert len(reply["fields"][column]) < 200

    @pytest.mark.parametrize("length", ["-1", "ten", ""])
    def test_bad_content_length_is_400_without_reading(self, service, length):
        status, reply = _post_raw(service, {"Content-Length": length})
        assert status == 400
        assert "Content-Length" in reply["error"]

    def test_body_over_cap_is_413_without_reading(self, service):
        status, reply = _post_raw(service, {"Content-Length": str(MAX_BODY_BYTES + 1)})
        assert status == 413
        assert str(MAX_BODY_BYTES) in reply["error"]

    def test_unknown_path_404(self, service):
        status, _ = _request(service, "/nope")
        assert status == 404

    def test_backend_failure_is_503_with_retry_after(self, service):
        class RejectingBackend:
            backend_id = "rejecting"
            model = "none"

            def complete(self, request):
                raise AuthenticationError("credentials rejected")

        service.runtime.gateway.backend = RejectingBackend()
        before = service.runtime.store.count()
        host, port = service.address
        req = urllib.request.Request(
            f"http://{host}:{port}/explain",
            data=json.dumps({"flow": _dataset_row(), "mode": "basic"}).encode(),
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10)
        with err.value:
            assert err.value.code == 503
            assert err.value.headers["Retry-After"] == "1"
            assert err.value.headers["Content-Type"] == "application/json"
            assert "credentials rejected" in json.loads(err.value.read())["error"]
        assert service.runtime.store.count() == before

    def test_unexpected_error_is_500_naming_the_explanation(self, service, monkeypatch, capsys):
        store = service.runtime.store
        failures = []

        def failing_append(entry):
            failures.append(entry.flow_id)
            raise StoreError("append failed: disk I/O error")

        monkeypatch.setattr(store, "append", failing_append)
        payload = {"flow": _dataset_row(), "mode": "basic"}
        status, body = _request(service, "/explain", payload)
        assert status == 500
        assert body == {"error": "internal error", "explanation_id": "service-000001"}
        assert failures == ["service-000001"]
        assert "StoreError: append failed" in capsys.readouterr().err

        monkeypatch.undo()
        status, body = _request(service, "/explain", payload)
        assert status == 200
        assert body["explanation_id"] == "service-000002"
        assert store.count() == 1


def test_served_flow_is_newest_after_eviction(tmp_path):
    config = make_config(tmp_path, store_max_entries=150)
    run_ingest(config)
    row = _dataset_row()
    with _serving(config) as service:
        status, _ = _request(service, "/explain", {"flow": row, "mode": "basic", "flow_id": "new"})
        store = service.runtime.store
        assert status == 200
        assert store.count() == 150
        entries = store.query_history(row["IPV4_SRC_ADDR"], 150)
    # the 200 ingested rows carry timestamps 0..199; eviction kept 50..199
    assert (entries[0].flow_id, entries[0].timestamp) == ("new", 200)
    assert all(entry.timestamp < 200 for entry in entries[1:])


def _serve_threads():
    return [t for t in threading.enumerate() if t.name.startswith("flowexplain-serve")]


class _BlockingBackend:
    """Delegates to ``inner`` once ``release`` is set, counting the calls waiting on it."""

    def __init__(self, inner):
        self.inner, self.backend_id, self.model = inner, inner.backend_id, inner.model
        self.release = threading.Event()
        self.waiting = threading.Semaphore(0)

    def complete(self, request):
        self.waiting.release()
        self.release.wait(10)
        return self.inner.complete(request)


class _FlakyListener:
    """A listening socket whose first ``accept()`` on each thread fails."""

    def __init__(self, sock):
        self.sock = sock
        self.failed = set()

    def accept(self):
        name = threading.current_thread().name
        if name not in self.failed:
            self.failed.add(name)
            raise ConnectionAbortedError("software caused connection abort")
        return self.sock.accept()

    def __getattr__(self, name):
        return getattr(self.sock, name)


class TestHandlerPool:
    def test_health_answers_while_every_backend_slot_is_busy(self, tmp_path):
        with _serving(make_config(tmp_path, max_in_flight=3)) as service:
            backend = _BlockingBackend(service.runtime.gateway.backend)
            service.runtime.gateway.backend = backend
            statuses = []
            posts = [
                threading.Thread(target=lambda i=i: statuses.append(_request(
                    service, "/explain",
                    {"flow": _dataset_row(), "mode": "basic", "flow_id": f"held-{i}"})[0]))
                for i in range(3)
            ]
            for post in posts:
                post.start()
            try:
                for _ in posts:
                    assert backend.waiting.acquire(timeout=10)
                started = time.perf_counter()
                conn = http.client.HTTPConnection(*service.address, timeout=1)
                try:
                    conn.request("GET", "/health")
                    assert conn.getresponse().status == 200
                finally:
                    conn.close()
                assert time.perf_counter() - started < 1
            finally:
                backend.release.set()
                for post in posts:
                    post.join(10)
            assert not any(post.is_alive() for post in posts)
            assert statuses == [200, 200, 200]

    def test_sequential_requests_reuse_the_pool_threads(self, service, monkeypatch):
        pool_size = service.runtime.config.max_in_flight + 1
        before = threading.active_count()
        starts = []
        start = threading.Thread.start

        def counting_start(thread):
            starts.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        explain = {"flow": _dataset_row(), "mode": "basic"}
        for i in range(50):
            path, payload = ("/explain", explain) if i % 5 == 0 else ("/health", None)
            assert _request(service, path, payload)[0] == 200
        assert threading.active_count() <= before + pool_size
        assert len(starts) <= pool_size
        assert len(_serve_threads()) <= pool_size

    def test_silent_client_is_dropped_while_another_is_served(self, tmp_path, monkeypatch):
        monkeypatch.setattr(service_module, "REQUEST_TIMEOUT_S", 0.2)
        with _serving(make_config(tmp_path, max_in_flight=1)) as service:
            # two stalled clients fill the pool of two: one sends nothing, one
            # stops in the middle of its body
            silent = socket.create_connection(service.address, timeout=5)
            stalled = socket.create_connection(service.address, timeout=5)
            with silent, stalled:
                stalled.sendall(b"POST /explain HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"flow\"")
                assert _request(service, "/health") == (200, {"status": "ok"})
                assert silent.recv(1) == b""
                assert stalled.recv(1) == b""

    def test_dropped_clients_get_no_reply_and_nothing_on_stderr(
        self, tmp_path, monkeypatch, capfd
    ):
        monkeypatch.setattr(service_module, "REQUEST_TIMEOUT_S", 0.2)
        with _serving(make_config(tmp_path)) as service:
            with socket.create_connection(service.address, timeout=5) as empty:
                empty.shutdown(socket.SHUT_WR)  # closes its side without sending a byte
                assert empty.recv(1) == b""
            with socket.create_connection(service.address, timeout=5) as stalled:
                stalled.sendall(b"GET /hea")
                assert stalled.recv(1) == b""
            assert _request(service, "/health") == (200, {"status": "ok"})
        assert capfd.readouterr().err == ""

    def test_stop_joins_the_pool_and_closes_waiting_connections(self, tmp_path, monkeypatch):
        monkeypatch.setattr(service_module, "REQUEST_TIMEOUT_S", 0.2)
        with _serving(make_config(tmp_path, max_in_flight=1)) as service:
            assert _request(service, "/health")[0] == 200
            clients = [socket.create_connection(service.address, timeout=5) for _ in range(3)]
            service.stop()
            assert _serve_threads() == []
            for client in clients:
                with client:
                    try:
                        assert client.recv(1) == b""
                    except ConnectionResetError:
                        pass

    @pytest.mark.parametrize("state", ["never-started", "started", "served"])
    def test_stop_returns_in_every_state(self, tmp_path, state):
        runtime = Runtime(make_config(tmp_path))
        try:
            service = ExplainService(runtime)
            if state != "never-started":
                service.start()
            if state == "served":
                assert _request(service, "/health")[0] == 200
            stopper = threading.Thread(target=service.stop, daemon=True)
            stopper.start()
            stopper.join(2)  # a stop() that hangs fails here rather than hanging the suite
            assert not stopper.is_alive()
            assert _serve_threads() == []
        finally:
            runtime.close()

    def test_stop_after_an_interrupted_start(self, tmp_path, monkeypatch):
        # a Ctrl-C while start() starts its threads: the second start raises
        starts = []
        start = threading.Thread.start

        def interrupted_start(thread):
            starts.append(thread.name)
            if len(starts) == 2:
                raise KeyboardInterrupt
            start(thread)

        runtime = Runtime(make_config(tmp_path))
        try:
            service = ExplainService(runtime)
            monkeypatch.setattr(threading.Thread, "start", interrupted_start)
            with pytest.raises(KeyboardInterrupt):
                service.start()
            monkeypatch.undo()
            assert len(_serve_threads()) == 1
            errors = []

            def stop():
                try:
                    service.stop()
                except Exception as exc:
                    errors.append(exc)

            for _ in range(2):  # the second stop() returns at once too
                stopper = threading.Thread(target=stop, daemon=True)
                stopper.start()
                stopper.join(2)
                assert not stopper.is_alive()
            assert errors == []
            assert _serve_threads() == []
        finally:
            runtime.close()

    def test_failed_accept_leaves_the_pool_whole(self, tmp_path, monkeypatch):
        listeners = []
        create_server = socket.create_server

        def flaky_create_server(*args, **kwargs):
            listeners.append(_FlakyListener(create_server(*args, **kwargs)))
            return listeners[-1]

        monkeypatch.setattr(socket, "create_server", flaky_create_server)
        with _serving(make_config(tmp_path, max_in_flight=2)) as service:
            (listener,) = listeners
            deadline = time.monotonic() + 5
            while len(listener.failed) < 3 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert len(listener.failed) == 3
            assert _request(service, "/health") == (200, {"status": "ok"})
            assert len(_serve_threads()) == 3


def _reference_record_from_row(catalog, row, flow_id):
    """``Runtime.record_from_row`` as it was when it parsed each cell in its own loop."""
    errors = {}
    values = {}
    for spec in catalog.features:
        if spec.name not in row:
            errors[spec.name] = "missing"
            continue
        try:
            values[spec.name] = parse_value(str(row[spec.name]), spec)
        except ValueError as exc:
            errors[spec.name] = str(exc)
    extra = set(row) - set(catalog.feature_names)
    extra -= {catalog.label_column, catalog.attack_column}
    for name in sorted(extra):
        errors[name] = "unknown feature"
    if errors:
        raise FieldValidationError(errors)
    label_raw = row.get(catalog.label_column)
    if label_raw is None:
        label = LABEL_MALICIOUS
    else:
        try:
            label = parse_label(str(label_raw))
        except ValueError as exc:
            raise FieldValidationError({catalog.label_column: str(exc)}) from exc
    attack = row.get(catalog.attack_column)
    return FlowRecord(
        flow_id=flow_id,
        values=values,
        label=label,
        attack_class=str(attack) if attack is not None else None,
    )


def _outcome(record_from_row, row):
    try:
        record = record_from_row(row, "posted")
    except FieldValidationError as exc:
        return list(exc.errors.items())
    values = [(name, type(value).__name__, str(value)) for name, value in record.values.items()]
    return record.flow_id, values, record.label, record.attack_class


with open(DATASET) as _fh:
    _POSTED_ROWS = [row for _, row in zip(range(40), csv.DictReader(_fh))]

# values as json.loads hands them over, among them 1e999 (inf) and NaN
_JSON_VALUES = [
    json.loads(text)
    for text in ("6.0", "1e999", "-1e999", "NaN", "7", "-1", "1.5", "1e2", "65536", "9" * 30,
                 "true", "null", '"6.0"', "[]", "{}")
]
_EDGE_CELLS = st.one_of(
    st.sampled_from(NUMBER_EDGES + ADDRESS_EDGES + ADDRESSES),
    st.sampled_from(_JSON_VALUES),
)


@pytest.fixture(scope="module")
def posting_runtime():
    runtime = Runtime(PipelineConfig(dataset=DATASET))
    yield runtime
    runtime.close()


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_record_from_row_matches_the_cell_by_cell_loop(posting_runtime, data):
    catalog = posting_runtime.catalog
    names = list(catalog.feature_names)
    row = dict(data.draw(st.sampled_from(_POSTED_ROWS)))
    for name in data.draw(st.sets(st.sampled_from(names), max_size=3)):
        row[name] = data.draw(
            st.one_of(
                _EDGE_CELLS,
                st.builds(lambda pad, cell: pad + cell + pad, st.sampled_from(WHITESPACE),
                          st.just(row[name])),
            )
        )
    for name in data.draw(st.sets(st.sampled_from(names), max_size=2)):
        del row[name]
    for name in data.draw(st.sets(st.sampled_from(["EXTRA", "A", "label", "Z_1"]), max_size=2)):
        row[name] = "1"
    label = data.draw(st.sampled_from((None, "absent") + LABELS + LABEL_EDGES + (1, 0, True)))
    attack = data.draw(st.sampled_from(("absent", None, 5) + ATTACKS))
    for column, value in ((catalog.label_column, label), (catalog.attack_column, attack)):
        if value == "absent":
            row.pop(column, None)
        else:
            row[column] = value
    assert _outcome(posting_runtime.record_from_row, row) == _outcome(
        lambda row, flow_id: _reference_record_from_row(catalog, row, flow_id), row
    )
