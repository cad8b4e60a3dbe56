"""End-to-end HTTP serving: artifact → server → 1000-pair batch.

Starts a real :class:`ModelServer` on an ephemeral port and talks to it
with ``urllib`` — the acceptance path of ``repro serve``.
"""

import json
import socket
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.embedding import DeepDirectConfig
from repro.models import DeepDirectModel, HFModel
from repro.serve import (
    SERVE_SCHEMA,
    ModelServer,
    ScoringEngine,
    load_model_artifact,
    save_model_artifact,
)


@pytest.fixture(scope="module")
def model(discovery_task):
    return HFModel().fit(discovery_task.network, seed=0)


@pytest.fixture(scope="module")
def served(model, tmp_path_factory):
    """A live server over a *reloaded* artifact, plus the fitted model."""
    bundle = tmp_path_factory.mktemp("serve") / "artifact"
    save_model_artifact(model, bundle)
    engine = ScoringEngine(load_model_artifact(bundle))
    with ModelServer(engine, port=0) as server:
        yield server, engine


def _post(url: str, payload: dict) -> dict:
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.load(response)


def _get(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=30) as response:
        return json.load(response)


def _post_error(url: str, data: bytes) -> tuple[int, dict]:
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=30):
            raise AssertionError("expected an HTTP error")
    except urllib.error.HTTPError as exc:
        return exc.code, json.load(exc)


def _assert_1000_pairs_identical(server, model) -> None:
    net = model.network
    rng = np.random.default_rng(0)
    ids = rng.integers(0, net.n_ties, size=1000)
    pairs = np.column_stack([net.tie_src[ids], net.tie_dst[ids]])
    payload = _post(server.url + "/score", {"pairs": pairs.tolist()})
    assert payload["schema"] == SERVE_SCHEMA
    assert payload["count"] == 1000
    assert payload["latency_ms"] >= 0
    assert np.array_equal(
        np.asarray(payload["scores"]), model.directionality_batch(pairs)
    )


def test_score_1000_pairs_identical_to_model(served, model):
    """The acceptance criterion: a reloaded artifact, served over HTTP,
    answers a 1,000-pair batch identically to the in-process model."""
    server, _engine = served
    _assert_1000_pairs_identical(server, model)


def test_score_1000_pairs_identical_float32_deepdirect(
    discovery_task, tmp_path
):
    """The same identity for a DeepDirect model trained in float32,
    served from its memory-mapped float32 artifact."""
    model = DeepDirectModel(
        DeepDirectConfig(dimensions=8, max_pairs=20_000, dtype="float32")
    ).fit(discovery_task.network, seed=0)
    assert model.tie_embeddings.dtype == np.float32
    bundle = tmp_path / "artifact"
    save_model_artifact(model, bundle)
    reloaded = load_model_artifact(bundle)
    assert reloaded.tie_embeddings.dtype == np.float32
    with ModelServer(ScoringEngine(reloaded), port=0) as server:
        _assert_1000_pairs_identical(server, model)


def test_accepted_sockets_disable_nagle(served, monkeypatch):
    """Headers and body leave in two writes; without TCP_NODELAY the
    body waits for the client's delayed ACK."""
    server, _engine = served
    handler_cls = server._httpd.RequestHandlerClass
    seen = []
    original = handler_cls.setup

    def setup(self):
        original(self)
        seen.append(
            self.connection.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY
            )
        )

    monkeypatch.setattr(handler_cls, "setup", setup)
    _get(server.url + "/healthz")
    assert seen and all(flag != 0 for flag in seen)


def test_score_cache_false(served, model):
    server, engine = served
    net = model.network
    pairs = [[int(net.tie_src[0]), int(net.tie_dst[0])]]
    before = engine.cache_info()["cache_hits"]
    _post(server.url + "/score", {"pairs": pairs, "cache": False})
    _post(server.url + "/score", {"pairs": pairs, "cache": False})
    assert engine.cache_info()["cache_hits"] == before


def test_discover_endpoint(served, model):
    from repro.apps import predict_directions
    from repro.graph import TieKind

    server, _engine = served
    undirected = model.network.social_ties(TieKind.UNDIRECTED)
    payload = _post(
        server.url + "/discover", {"pairs": undirected[:50].tolist()}
    )
    assert payload["count"] == min(50, len(undirected))
    assert np.array_equal(
        np.asarray(payload["directions"]),
        predict_directions(model, undirected[:50]),
    )


def test_healthz(served, model):
    server, _engine = served
    payload = _get(server.url + "/healthz")
    assert payload["status"] == "ok"
    assert payload["model"] == "HFModel"
    assert payload["n_nodes"] == model.network.n_nodes
    assert payload["n_ties"] == model.network.n_ties
    assert payload["uptime_s"] >= 0


def test_metrics_endpoint(served):
    server, _engine = served
    payload = _get(server.url + "/metrics")
    metrics = payload["metrics"]
    assert "serve.requests" in metrics
    assert "cache_hit_rate" in metrics


def test_unknown_get_is_404(served):
    server, _engine = served
    try:
        urllib.request.urlopen(server.url + "/nope", timeout=30)
        raise AssertionError("expected 404")
    except urllib.error.HTTPError as exc:
        assert exc.code == 404


def test_malformed_json_is_400(served):
    server, _engine = served
    status, payload = _post_error(server.url + "/score", b"{broken")
    assert status == 400
    assert "JSON" in payload["error"]


def test_missing_pairs_key_is_400(served):
    server, _engine = served
    status, payload = _post_error(
        server.url + "/score", json.dumps({"rows": []}).encode()
    )
    assert status == 400
    assert "pairs" in payload["error"]


def test_bad_pairs_shape_is_400(served):
    server, _engine = served
    status, _payload = _post_error(
        server.url + "/score", json.dumps({"pairs": [[1, 2, 3]]}).encode()
    )
    assert status == 400


def test_unknown_tie_is_404(served):
    server, _engine = served
    status, payload = _post_error(
        server.url + "/score", json.dumps({"pairs": [[0, 0]]}).encode()
    )
    assert status == 404
    assert "no oriented tie" in payload["error"]


def test_unknown_post_path_is_404(served):
    server, _engine = served
    status, _payload = _post_error(
        server.url + "/quantify", json.dumps({"pairs": [[0, 1]]}).encode()
    )
    assert status == 404


def test_port_zero_binds_ephemeral(served):
    server, _engine = served
    assert server.port != 0
    assert str(server.port) in server.url


def test_matching_fingerprint_accepted(served, model):
    server, engine = served
    net = model.network
    pairs = [[int(net.tie_src[0]), int(net.tie_dst[0])]]
    payload = _post(
        server.url + "/score",
        {"pairs": pairs, "fingerprint": engine.fingerprint},
    )
    assert payload["count"] == 1


def test_mismatched_fingerprint_is_400_bad_request(served, model):
    server, engine = served
    net = model.network
    pairs = [[int(net.tie_src[0]), int(net.tie_dst[0])]]
    before = engine.metrics.counter("serve.errors.bad_request").value
    status, payload = _post_error(
        server.url + "/score",
        json.dumps(
            {"pairs": pairs, "fingerprint": "sha256:deadbeef"}
        ).encode(),
    )
    assert status == 400
    assert payload["code"] == "bad_request"
    assert "fingerprint mismatch" in payload["error"]
    after = engine.metrics.counter("serve.errors.bad_request").value
    assert after == before + 1


def test_mismatched_fingerprint_on_discover(served):
    server, _engine = served
    status, payload = _post_error(
        server.url + "/discover",
        json.dumps(
            {"pairs": [[0, 1]], "fingerprint": "sha256:deadbeef"}
        ).encode(),
    )
    assert status == 400
    assert payload["code"] == "bad_request"


def test_non_string_fingerprint_is_400(served):
    server, _engine = served
    status, payload = _post_error(
        server.url + "/score",
        json.dumps({"pairs": [[0, 1]], "fingerprint": 7}).encode(),
    )
    assert status == 400
    assert payload["code"] == "bad_request"


def test_healthz_reports_fingerprint(served):
    server, engine = served
    payload = _get(server.url + "/healthz")
    assert payload["fingerprint"] == engine.fingerprint


# -- response encoding and transport --------------------------------------


class _Float32Scores:
    """``inner``'s scores as float32, the dtype a float32 artifact serves."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.network = inner.network

    def _check_fitted(self):
        return self.inner._check_fitted()

    def directionality_batch(self, pairs):
        return self.inner.directionality_batch(pairs).astype(np.float32)


def _post_raw(url: str, payload: dict) -> bytes:
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.read()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_score_bytes_equal_the_per_element_encoding(model, dtype):
    """``scores.tolist()`` encodes exactly as ``[float(s) for s in
    scores]`` did, whatever the model's score dtype."""
    scorer = model if dtype is np.float64 else _Float32Scores(model)
    net = model.network
    pairs = np.column_stack([net.tie_src[:200], net.tie_dst[:200]])
    with ModelServer(ScoringEngine(scorer), port=0) as server:
        body = _post_raw(
            server.url + "/score", {"pairs": pairs.tolist(), "cache": False}
        )
    scores = scorer.directionality_batch(pairs)
    assert scores.dtype == dtype
    expected = {
        "schema": SERVE_SCHEMA,
        "scores": [float(s) for s in scores],
        "count": len(scores),
        "latency_ms": json.loads(body)["latency_ms"],
    }
    assert body == json.dumps(expected).encode("utf-8")


def test_discover_bytes_equal_the_per_element_encoding(served, model):
    from repro.graph import TieKind

    server, engine = served
    undirected = model.network.social_ties(TieKind.UNDIRECTED)[:200]
    body = _post_raw(
        server.url + "/discover", {"pairs": undirected.tolist()}
    )
    directions = engine.discover_pairs(undirected)
    expected = {
        "schema": SERVE_SCHEMA,
        "directions": [[int(u), int(v)] for u, v in directions],
        "count": len(directions),
        "latency_ms": json.loads(body)["latency_ms"],
    }
    assert body == json.dumps(expected).encode("utf-8")


def test_expect_100_continue_is_sent_before_the_body(served, model):
    """Responses are buffered until the handler returns; the interim
    ``100 Continue`` must still leave at once, or a client that waits
    for it (curl does, for bodies over 1 KiB) stalls."""
    server, _engine = served
    net = model.network
    pairs = [[int(net.tie_src[0]), int(net.tie_dst[0])]]
    body = json.dumps({"pairs": pairs}).encode("utf-8")
    head = (
        "POST /score HTTP/1.1\r\n"
        f"Host: {server.host}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Expect: 100-continue\r\n\r\n"
    )
    with socket.create_connection(
        (server.host, server.port), timeout=5
    ) as sock:
        reader = sock.makefile("rb")
        sock.sendall(head.encode("ascii"))
        assert reader.readline().startswith(b"HTTP/1.1 100")
        assert reader.readline() == b"\r\n"
        sock.sendall(body)
        assert reader.readline().startswith(b"HTTP/1.1 200")
        length = 0
        while (line := reader.readline()) != b"\r\n":
            name, _, value = line.decode("ascii").partition(":")
            if name.lower() == "content-length":
                length = int(value)
        payload = json.loads(reader.read(length))
    assert payload["count"] == 1
