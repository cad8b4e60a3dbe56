"""Serving observability: request ids, error taxonomy, Prometheus,
access logs and trace correlation — the production-debugging loop.

Everything runs against a real :class:`ModelServer` on an ephemeral
port, like :mod:`tests.test_serve_http`.
"""

from __future__ import annotations

import json
import math
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.models import HFModel
from repro.obs import (
    PROMETHEUS_CONTENT_TYPE,
    Tracer,
    histogram_from_samples,
    parse_prometheus,
    read_access_log,
)
from repro.serve import (
    ERROR_CODES,
    ROUTES,
    SERVE_SCHEMA,
    ModelServer,
    ScoringEngine,
)


@pytest.fixture(scope="module")
def model(discovery_task):
    return HFModel().fit(discovery_task.network, seed=0)


@pytest.fixture()
def served(model):
    engine = ScoringEngine(model)
    with ModelServer(engine, port=0) as server:
        yield server, engine


def _request(
    url: str,
    data: bytes | None = None,
    headers: dict | None = None,
    method: str | None = None,
):
    request = urllib.request.Request(
        url, data=data, headers=headers or {}, method=method
    )
    try:
        response = urllib.request.urlopen(request, timeout=30)
        status = response.status
    except urllib.error.HTTPError as exc:
        response = exc
        status = exc.code
    body = response.read()
    return status, dict(response.headers), body


def _score_body(network, k=8, seed=0):
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, network.n_ties, size=k)
    pairs = np.column_stack([network.tie_src[ids], network.tie_dst[ids]])
    return json.dumps({"pairs": pairs.tolist()}).encode("utf-8")


class TestRequestIds:
    def test_inbound_id_is_echoed_everywhere(self, served, model):
        server, _ = served
        status, headers, body = _request(
            server.url + "/score",
            data=_score_body(model.network),
            headers={"X-Request-Id": "deadbeefcafe"},
        )
        assert status == 200
        assert headers["X-Request-Id"] == "deadbeefcafe"

    def test_generated_id_is_16_hex(self, served):
        server, _ = served
        status, headers, _ = _request(server.url + "/healthz")
        assert status == 200
        rid = headers["X-Request-Id"]
        assert len(rid) == 16
        int(rid, 16)

    def test_oversized_inbound_id_is_truncated(self, served):
        server, _ = served
        status, headers, _ = _request(
            server.url + "/healthz",
            headers={"X-Request-Id": "x" * 200},
        )
        assert status == 200
        assert headers["X-Request-Id"] == "x" * 64

    def test_error_bodies_carry_the_request_id(self, served):
        server, _ = served
        status, headers, body = _request(
            server.url + "/nope", headers={"X-Request-Id": "abc123"}
        )
        payload = json.loads(body)
        assert status == 404
        assert payload["request_id"] == "abc123"
        assert headers["X-Request-Id"] == "abc123"


class TestErrorTaxonomy:
    def test_unknown_path_is_not_found(self, served):
        server, engine = served
        status, _, body = _request(server.url + "/nope")
        payload = json.loads(body)
        assert status == 404
        assert payload["schema"] == SERVE_SCHEMA
        assert payload["code"] == "not_found"
        assert engine.metrics.counter("serve.errors.not_found").value == 1

    def test_wrong_method_is_405_with_allow(self, served):
        server, engine = served
        status, headers, body = _request(
            server.url + "/score", method="GET"
        )
        payload = json.loads(body)
        assert status == 405
        assert headers["Allow"] == "POST"
        assert payload["code"] == "bad_request"
        assert engine.metrics.counter("serve.errors.bad_request").value == 1

    def test_delete_on_known_path_is_405(self, served):
        server, _ = served
        status, headers, _ = _request(
            server.url + "/healthz", method="DELETE"
        )
        assert status == 405
        assert headers["Allow"] == "GET"

    def test_malformed_body_is_bad_request(self, served):
        server, engine = served
        status, _, body = _request(server.url + "/score", data=b"{nope")
        payload = json.loads(body)
        assert status == 400
        assert payload["code"] == "bad_request"
        assert "JSON" in payload["error"]
        assert engine.metrics.counter("serve.errors.bad_request").value == 1

    def test_unknown_tie_is_engine_error(self, served):
        server, engine = served
        status, _, body = _request(
            server.url + "/score",
            data=json.dumps({"pairs": [[999999, 999998]]}).encode(),
        )
        payload = json.loads(body)
        assert status == 404
        assert payload["code"] == "engine"
        assert engine.metrics.counter("serve.errors.engine").value == 1

    def test_bad_metrics_format_is_bad_request(self, served):
        server, _ = served
        status, _, body = _request(server.url + "/metrics?format=xml")
        payload = json.loads(body)
        assert status == 400
        assert payload["code"] == "bad_request"

    def test_taxonomy_is_closed(self):
        assert ERROR_CODES == (
            "bad_request", "not_found", "engine", "internal"
        )
        assert set(ROUTES) == {"/score", "/discover", "/healthz", "/metrics"}


class TestPrometheusEndpoint:
    def test_exposition_round_trips(self, served, model):
        server, engine = served
        for seed in range(3):
            _request(
                server.url + "/score",
                data=_score_body(model.network, seed=seed),
            )
        status, headers, body = _request(
            server.url + "/metrics?format=prometheus"
        )
        assert status == 200
        assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
        families = parse_prometheus(body.decode("utf-8"))

        counter = families["repro_serve_requests_total"]
        assert counter["type"] == "counter"
        (name, _labels, value), = counter["samples"]
        assert name == "repro_serve_requests_total"
        assert value == engine.metrics.counter("serve.requests").value

        family = families["repro_serve_http_score_latency_ms"]
        assert family["type"] == "histogram"
        parsed = histogram_from_samples(family)
        hist = engine.metrics.histogram("serve.http.score.latency_ms")
        assert parsed["count"] == hist.count == 3
        assert parsed["buckets"][-1][0] == math.inf
        cumulative = [c for _, c in parsed["buckets"]]
        assert cumulative == sorted(cumulative)
        assert cumulative[-1] == hist.count

    def test_json_metrics_include_histogram_summaries(self, served, model):
        server, _ = served
        _request(server.url + "/score", data=_score_body(model.network))
        _, _, body = _request(server.url + "/metrics")
        metrics = json.loads(body)["metrics"]
        assert metrics["serve.hist.latency_ms_count"] >= 1
        assert metrics["serve.hist.latency_ms_p50"] is not None
        assert metrics["serve.http.score.latency_ms_count"] >= 1


class TestAccessLogAndTrace:
    def test_request_id_joins_log_and_trace(self, model, tmp_path):
        """The acceptance workflow: find a request in the access log,
        pull up the same id on the trace timeline."""
        log_path = tmp_path / "access.jsonl"
        tracer = Tracer()
        engine = ScoringEngine(model)
        with ModelServer(
            engine, port=0, access_log=log_path, tracer=tracer
        ) as server:
            _request(
                server.url + "/score",
                data=_score_body(model.network),
                headers={"X-Request-Id": "feedc0de00000001"},
            )
            _request(server.url + "/nope")

        records = read_access_log(log_path)
        assert len(records) == 2
        score_rec = records[0]
        assert score_rec["request_id"] == "feedc0de00000001"
        assert score_rec["method"] == "POST"
        assert score_rec["path"] == "/score"
        assert score_rec["status"] == 200
        assert score_rec["latency_ms"] > 0
        assert score_rec["n_pairs"] == 8
        assert "cache_hits" in score_rec
        error_rec = records[1]
        assert error_rec["status"] == 404
        assert error_rec["error"] == "not_found"

        spans = [
            r for r in tracer.snapshot() if r["name"] == "serve.request"
        ]
        assert len(spans) == 2
        by_id = {s["attrs"]["request_id"]: s for s in spans}
        traced = by_id["feedc0de00000001"]
        assert traced["attrs"]["path"] == "/score"
        assert traced["attrs"]["status"] == 200
        assert by_id[error_rec["request_id"]]["attrs"]["status"] == 404

    def test_coalescing_detail_reaches_the_log(self, model, tmp_path):
        log_path = tmp_path / "access.jsonl"
        engine = ScoringEngine(model)
        with ModelServer(engine, port=0, access_log=log_path) as server:
            _request(server.url + "/score", data=_score_body(model.network))
        (record,) = read_access_log(log_path)
        assert record["round_requests"] >= 1
        assert record["round_pairs"] >= record["n_pairs"]
        assert 0 <= record["round_position"] < record["round_requests"]

    def test_shared_access_log_instance_is_not_closed(self, model, tmp_path):
        from repro.obs import AccessLog

        log = AccessLog(tmp_path / "access.jsonl")
        engine = ScoringEngine(model)
        with ModelServer(engine, port=0, access_log=log) as server:
            _request(server.url + "/healthz")
        log.log(request_id="post-shutdown")  # caller owns it: still open
        log.close()
        assert len(read_access_log(tmp_path / "access.jsonl")) == 2

    def test_owned_access_log_closes_on_shutdown(self, model, tmp_path):
        log_path = tmp_path / "access.jsonl"
        engine = ScoringEngine(model)
        server = ModelServer(engine, port=0, access_log=log_path)
        with server:
            _request(server.url + "/healthz")
        with pytest.raises(ValueError, match="closed"):
            server.access_log.log(request_id="nope")


def _wait_for_count(hist, n, timeout_s=5.0):
    # The handler observes latency *after* the response bytes go out
    # (the measurement must include the write), so the client can win
    # the race to this assertion; poll briefly instead.
    deadline = time.monotonic() + timeout_s
    while hist.count < n and time.monotonic() < deadline:
        time.sleep(0.005)
    return hist.count


class TestEndpointHistograms:
    def test_every_routed_endpoint_gets_a_latency_histogram(
        self, served, model
    ):
        server, engine = served
        _request(server.url + "/score", data=_score_body(model.network))
        _request(server.url + "/healthz")
        _request(server.url + "/metrics")
        for endpoint in ("score", "healthz", "metrics"):
            hist = engine.metrics.histogram(
                f"serve.http.{endpoint}.latency_ms"
            )
            assert _wait_for_count(hist, 1) >= 1
            assert hist.min > 0

    def test_errors_are_measured_too(self, served):
        server, engine = served
        _request(server.url + "/score", data=b"{nope")
        hist = engine.metrics.histogram("serve.http.score.latency_ms")
        assert _wait_for_count(hist, 1) == 1


class TestResponseOrdering:
    def test_access_log_record_is_written_before_the_response(
        self, model, tmp_path
    ):
        """Once the client holds a /score response, that request's
        record is already in the log: the next request cannot be
        logged ahead of it."""
        log_path = tmp_path / "access.jsonl"
        engine = ScoringEngine(model)
        with ModelServer(engine, port=0, access_log=log_path) as server:
            for i in range(20):
                request_id = f"0dde7{i:011d}"
                status, _headers, _body = _request(
                    server.url + "/score",
                    data=_score_body(model.network, seed=i),
                    headers={"X-Request-Id": request_id},
                )
                assert status == 200
                records = read_access_log(log_path)
                assert len(records) == i + 1
                assert records[-1]["request_id"] == request_id


class TestServingSpans:
    def test_traced_score_breaks_down_under_its_request(self, model):
        """parse, cache and encode spans nest under the request's own
        ``serve.request`` span, found by its request id."""
        tracer = Tracer()
        engine = ScoringEngine(model)
        with ModelServer(engine, port=0, tracer=tracer) as server:
            for request_id in ("5ca1ab1e00000001", "5ca1ab1e00000002"):
                _request(
                    server.url + "/score",
                    data=_score_body(model.network),
                    headers={"X-Request-Id": request_id},
                )
        records = tracer.snapshot()
        by_id = {r["id"]: r for r in records}

        def request_of(record):
            while record["name"] != "serve.request":
                if record["parent"] is None:
                    return None
                record = by_id[record["parent"]]
            return record["attrs"]["request_id"]

        names: dict[str | None, list[str]] = {}
        for record in records:
            names.setdefault(request_of(record), []).append(record["name"])
        for request_id in ("5ca1ab1e00000001", "5ca1ab1e00000002"):
            spans = names[request_id]
            assert spans.count("serve.parse") == 1
            assert spans.count("serve.encode") == 1
            assert "serve.score" in spans
            assert "serve.cache" in spans
        # The second request repeats the first's pairs: all hits, no put.
        cache_ops = [
            r["attrs"]["op"] for r in records if r["name"] == "serve.cache"
        ]
        assert sorted(cache_ops) == ["get", "get", "put"]
