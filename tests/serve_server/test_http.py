"""The stdlib HTTP front-end: routes, status mapping, real sockets.

The frontend runs on a private event loop in a background thread and is
exercised with ``http.client`` over real TCP — the same path an external
client takes, including the one-request-per-connection framing.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading

import pytest

from repro.serve import HttpFrontend, Server, ServerConfig


@pytest.fixture(scope="module")
def http_stack(artifact):
    """A running Server + HttpFrontend; yields ``(server, port)``."""
    server = Server(artifact, ServerConfig(workers=1, max_batch=4,
                                           max_latency_ms=2.0)).start()
    assert server.wait_ready(60.0)
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever,
                              name="http-test-loop", daemon=True)
    thread.start()
    frontend = HttpFrontend(server, port=0)
    port = asyncio.run_coroutine_threadsafe(frontend.start(), loop).result(10)
    yield server, port
    asyncio.run_coroutine_threadsafe(frontend.stop(), loop).result(10)
    loop.call_soon_threadsafe(loop.stop)
    thread.join(5)
    loop.close()
    server.stop()


def _request(port, method, path, body=None):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request(method, path,
                           body=json.dumps(body) if body is not None else None)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


class TestRoutes:
    def test_predict_single(self, http_stack):
        _, port = http_stack
        status, payload = _request(port, "POST", "/predict",
                                   {"text": "breaking dom1_topic3 fake_sig_1"})
        assert status == 200
        assert payload["label_name"] in ("real", "fake")
        assert payload["error"] is None
        assert 0.0 <= payload["probability_fake"] <= 1.0

    def test_predict_batch_with_domains(self, http_stack):
        server, port = http_stack
        status, payload = _request(
            port, "POST", "/predict",
            {"texts": ["one fine item", "another dom2_topic5 item"],
             "domains": [0, "military"]})
        assert status == 200
        predictions = payload["predictions"]
        assert len(predictions) == 2
        assert all(p["error"] is None for p in predictions)
        assert predictions[1]["domain"] == "military"

    def test_predict_batch_isolates_bad_items(self, http_stack):
        _, port = http_stack
        status, payload = _request(port, "POST", "/predict",
                                   {"texts": ["fine", "   "]})
        assert status == 200
        good, bad = payload["predictions"]
        assert good["error"] is None
        assert "empty" in bad["error"]

    def test_health(self, http_stack):
        server, port = http_stack
        status, payload = _request(port, "GET", "/health")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["model"] == "textcnn_s"
        assert len(payload["workers"]) == 1

    def test_stats_ledger_grows(self, http_stack):
        _, port = http_stack
        _request(port, "POST", "/predict", {"text": "ledger item"})
        status, payload = _request(port, "GET", "/stats")
        assert status == 200
        assert payload["served"] >= 1
        assert payload["in_queue"] == 0


class TestStatusMapping:
    def test_invalid_text_is_400(self, http_stack):
        _, port = http_stack
        status, payload = _request(port, "POST", "/predict", {"text": "   "})
        assert status == 400
        assert "empty" in payload["error"]

    @pytest.mark.parametrize("request_fields, message", [
        ({"domain": "astrology"}, "unknown domain"),
        ({"domain": [1]}, "domain must be a name or an integer index"),
        ({"domain": 1.5}, "domain must be a name or an integer index"),
        ({"domain": True}, "domain must be a name or an integer index"),
        ({"deadline_ms": "50"}, "deadline_ms must be a positive number"),
    ], ids=["unknown-name", "list", "float", "bool", "string-deadline"])
    def test_unknown_domain_is_400(self, http_stack, request_fields, message):
        """A malformed domain or deadline is the client's fault: HTTP 400 and
        one more ``rejected``, never a 500 or a silent coercion."""
        server, port = http_stack
        rejected = server.stats.rejected
        status, payload = _request(port, "POST", "/predict",
                                   {"text": "fine", **request_fields})
        assert status == 400
        assert message in payload["error"]
        assert server.stats.rejected == rejected + 1

    @pytest.mark.parametrize("domains, message", [
        (1.5, "domains must be a name, an integer index or a list"),
        ({"a": 1}, "domains must be a name, an integer index or a list"),
        (True, "domains must be a name, an integer index or a list"),
        (["military"], "1 domains given for 2 texts"),
    ], ids=["float", "object", "bool", "short-list"])
    def test_malformed_batch_domains_are_400(self, http_stack, domains, message):
        """A batch whose ``domains`` is neither one domain nor a list of one
        per text is refused whole: HTTP 400 and one ``rejected`` per text."""
        server, port = http_stack
        rejected = server.stats.rejected
        status, payload = _request(port, "POST", "/predict",
                                   {"texts": ["fine", "also fine"], "domains": domains})
        assert status == 400
        assert message in payload["error"]
        assert server.stats.rejected == rejected + 2

    def test_malformed_json_is_400(self, http_stack):
        _, port = http_stack
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            connection.request("POST", "/predict", body="{not json")
            response = connection.getresponse()
            payload = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 400
        assert "JSON" in payload["error"]

    def test_missing_text_key_is_400(self, http_stack):
        _, port = http_stack
        status, payload = _request(port, "POST", "/predict", {"wrong": 1})
        assert status == 400
        assert "'text' or 'texts'" in payload["error"]

    def test_unknown_route_is_404(self, http_stack):
        _, port = http_stack
        status, payload = _request(port, "GET", "/nope")
        assert status == 404
        assert "/predict" in payload["error"]

    def test_wrong_method_is_405(self, http_stack):
        _, port = http_stack
        status, _ = _request(port, "GET", "/predict")
        assert status == 405
        status, _ = _request(port, "POST", "/health")
        assert status == 405
