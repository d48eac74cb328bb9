import csv
import json
import urllib.error
import urllib.request

import pytest

from flowexplain.pipeline import Runtime
from flowexplain.service import ExplainService

from .conftest import DATASET
from .test_pipeline_cli import make_config


@pytest.fixture
def service(tmp_path):
    runtime = Runtime(make_config(tmp_path))
    svc = ExplainService(runtime, host="127.0.0.1", port=0)
    svc.start()
    yield svc
    svc.stop()
    runtime.close()


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
        return err.code, json.loads(err.read())


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

    def test_bad_json_is_400(self, service):
        host, port = service.address
        req = urllib.request.Request(
            f"http://{host}:{port}/explain", data=b"{broken", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10)
        assert err.value.code == 400

    @pytest.mark.parametrize("body", [b"[1,2]", b'"x"', b"3", b"null"])
    def test_non_object_json_is_400(self, service, body):
        host, port = service.address
        req = urllib.request.Request(
            f"http://{host}:{port}/explain", data=body, method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10)
        assert err.value.code == 400
        assert "JSON object" in json.loads(err.value.read())["error"]

    def test_bad_mode_rejected(self, service):
        status, body = _request(
            service, "/explain", {"flow": _dataset_row(), "mode": "verbose"}
        )
        assert status == 400

    def test_unlabelled_flow_defaults_to_malicious(self, service):
        row = _dataset_row()
        del row["Label"]
        status, body = _request(service, "/explain", {"flow": row, "mode": "basic"})
        assert status == 200

    def test_explained_flow_lands_in_history(self, service):
        row = _dataset_row()
        src = row["IPV4_SRC_ADDR"]
        before = service.runtime.store.ip_stats(src).total
        _request(service, "/explain", {"flow": row, "mode": "basic"})
        assert service.runtime.store.ip_stats(src).total == before + 1

    def test_unknown_path_404(self, service):
        status, _ = _request(service, "/nope")
        assert status == 404
