"""HTTP layer: routing, JSON error mapping, live-server round trips."""

import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.service import PlannerService, create_server
from repro.workloads import MAX_MICRO_BATCHES

_BODY = {
    "model": "7B",
    "gpu": "H20",
    "p": 2,
    "seq_len": "8k",
    "schedules": ["1f1b"],
    "options": False,
}


@pytest.fixture()
def server():
    service = PlannerService()
    srv = create_server("127.0.0.1", 0, service)
    # A short poll interval: shutdown() waits up to one poll to return.
    thread = threading.Thread(
        target=srv.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()


def _url(server, path):
    host, port = server.server_address[:2]
    return f"http://{host}:{port}{path}"


def _get(server, path):
    with urllib.request.urlopen(_url(server, path), timeout=30) as resp:
        return resp.status, json.loads(resp.read())


def _post(server, path, payload):
    request = urllib.request.Request(
        _url(server, path),
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=120) as resp:
        return resp.status, json.loads(resp.read())


def _error(server, method, path, payload=None):
    try:
        if method == "GET":
            _get(server, path)
        else:
            _post(server, path, payload or {})
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())
    raise AssertionError(f"{method} {path} unexpectedly succeeded")


def _one_response_then_eof(server, request):
    """Send raw ``request`` bytes, read to EOF, and return the one response.

    Fails if anything follows the first response on the connection.
    """
    data = b""
    with socket.create_connection(server.server_address[:2], timeout=5.0) as sock:
        sock.sendall(request)
        try:
            while chunk := sock.recv(65536):
                data += chunk
        except ConnectionResetError:  # unread request bytes: RST, not FIN
            pass
    head, _, rest = data.partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in header_lines)
    length = int(headers["Content-Length"])
    assert headers["Content-Type"] == "application/json"
    assert rest[length:] == b"", f"a second response followed: {rest[length:]!r}"
    return int(status_line.split()[1]), json.loads(rest[:length])


class TestRouting:
    def test_healthz(self, server):
        status, body = _get(server, "/v1/healthz")
        assert status == 200 and body["status"] == "ok"
        assert body["cache_entries"] == 0

    def test_unknown_path_is_404_json(self, server):
        code, body = _error(server, "GET", "/v1/nope")
        assert code == 404 and "unknown endpoint" in body["error"]

    def test_wrong_method_is_405_json(self, server):
        code, body = _error(server, "GET", "/v1/plan")
        assert code == 405 and "not allowed" in body["error"]
        code, body = _error(server, "POST", "/v1/stats")
        assert code == 405

    def test_trailing_slash_is_tolerated(self, server):
        status, _ = _get(server, "/v1/healthz/")
        assert status == 200


class TestKeepAlive:
    def test_sequential_requests_on_one_connection_do_not_stall(self, server):
        # With Nagle's algorithm on, each response body waits for the
        # client's delayed ACK of the header segment: ~40 ms a request.
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            t0 = time.perf_counter()
            for _ in range(20):
                conn.request("GET", "/v1/healthz")
                resp = conn.getresponse()
                assert resp.status == 200
                assert json.loads(resp.read())["status"] == "ok"
            elapsed = time.perf_counter() - t0
        finally:
            conn.close()
        assert elapsed < 0.4, f"20 keep-alive requests took {elapsed:.3f} s"

    @pytest.mark.parametrize("head,status", [
        ("POST /v1/nope HTTP/1.1\r\nContent-Length: 2", 404),
        ("POST /v1/stats HTTP/1.1\r\nContent-Length: 2", 405),
        ("GET /v1/healthz HTTP/1.1\r\nContent-Length: 2", 200),
        ("POST /v1/plan HTTP/1.1\r\nContent-Length: -1", 400),
        ("POST /v1/plan HTTP/1.1\r\nContent-Length: two", 400),
        (f"POST /v1/plan HTTP/1.1\r\nContent-Length: {(1 << 20) + 1}", 400),
    ], ids=["404", "405", "get", "negative", "non-numeric", "over-limit"])
    def test_unread_body_closes_the_connection(self, server, head, status):
        # A body left in the socket would be parsed as the next request
        # line, and the pipelined healthz would get an HTML error page.
        code, payload = _one_response_then_eof(
            server,
            f"{head}\r\nHost: localhost\r\n\r\n".encode()
            + b"{}GET /v1/healthz HTTP/1.1\r\nHost: localhost\r\n\r\n",
        )
        assert code == status
        assert ("error" in payload) == (status != 200)

    def test_a_read_body_keeps_the_connection(self, server):
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.request("POST", "/v1/plan", body=b"{not json")
            resp = conn.getresponse()
            assert resp.status == 400 and "JSON" in json.loads(resp.read())["error"]
            sock = conn.sock
            conn.request("GET", "/v1/healthz")
            resp = conn.getresponse()
            assert resp.status == 200 and json.loads(resp.read())["status"] == "ok"
            assert conn.sock is sock
        finally:
            conn.close()


class TestPlanEndpoint:
    def test_plan_round_trip_and_stats(self, server):
        status, body = _post(server, "/v1/plan", _BODY)
        assert status == 200
        assert body["outcome"] == "cold" and body["best"]["feasible"]
        assert body["best"]["schedule"] == "1f1b"

        status, again = _post(server, "/v1/plan", _BODY)
        assert again["outcome"] == "warm"
        assert again["plans"] == body["plans"]

        _, stats = _get(server, "/v1/stats")
        telemetry = stats["telemetry"]
        assert telemetry["plans"] == 2
        assert telemetry["plans_cold"] == 1 and telemetry["plans_warm"] == 1
        assert telemetry["by_endpoint"]["/v1/plan"] == 2
        assert stats["cache"]["disk_hits"] == 0

    def test_validation_error_is_400_json(self, server):
        code, body = _error(server, "POST", "/v1/plan", {"model": "70T"})
        assert code == 400 and "unknown model preset" in body["error"]
        code, body = _error(server, "POST", "/v1/plan", {"bogus": 1})
        assert code == 400 and "unknown plan request field" in body["error"]
        _, stats = _get(server, "/v1/stats")
        assert stats["telemetry"]["errors"] == 2

    def test_micro_batch_budget_above_the_cap_is_400(self, server):
        body = dict(_BODY, num_micro_batches=MAX_MICRO_BATCHES + 1)
        code, answer = _error(server, "POST", "/v1/plan", body)
        assert code == 400 and "micro-batch budget 257" in answer["error"]
        _, stats = _get(server, "/v1/stats")
        assert stats["telemetry"]["plans"] == 0

    def test_unknown_schedule_is_400_and_plans_nothing(self, server):
        body = dict(_BODY, schedules=["no-such-schedule"])
        code, answer = _error(server, "POST", "/v1/plan", body)
        assert code == 400 and "no-such-schedule" in answer["error"]
        _, stats = _get(server, "/v1/stats")
        assert stats["telemetry"]["plans"] == 0

    def test_malformed_json_body_is_400(self, server):
        request = urllib.request.Request(
            _url(server, "/v1/plan"),
            data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def test_negative_content_length_is_400_on_the_open_connection(self, server):
        # rfile.read(-1) reads to EOF: the handler would wait for the
        # client to close, then plan the body for a client that is gone.
        sock = socket.create_connection(server.server_address[:2], timeout=1.0)
        try:
            sock.sendall(
                b"POST /v1/plan HTTP/1.1\r\nHost: localhost\r\n"
                b"Content-Type: application/json\r\nContent-Length: -1\r\n\r\n{}"
            )
            resp = http.client.HTTPResponse(sock)
            resp.begin()
            assert resp.status == 400
            assert "Content-Length" in json.loads(resp.read())["error"]
        finally:
            sock.close()
        telemetry = server.service.telemetry.as_dict()
        assert telemetry["plans"] == 0 and telemetry["errors"] == 1

    @pytest.mark.parametrize("method,path", [
        ("POST", "/v1/plan"),
        ("GET", "/v1/healthz"),
    ])
    def test_chunked_body_is_400_and_closes_the_connection(
        self, server, method, path
    ):
        # Only Content-Length bodies are read: planning a chunked one as
        # {} would answer the default workload, and its unread chunks
        # would be parsed as the next request on this connection.
        body = json.dumps(dict(_BODY, model="1.3B", seq_len="4k")).encode()
        sock = socket.create_connection(server.server_address[:2], timeout=5.0)
        try:
            sock.sendall(
                f"{method} {path} HTTP/1.1\r\nHost: localhost\r\n".encode()
                + b"Content-Type: application/json\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
                + b"%x\r\n%s\r\n0\r\n\r\n" % (len(body), body)
            )
            resp = http.client.HTTPResponse(sock)
            resp.begin()
            assert resp.status == 400
            assert "Transfer-Encoding" in json.loads(resp.read())["error"]
            try:
                closed = sock.recv(1) == b""
            except ConnectionResetError:  # unread body bytes: RST, not FIN
                closed = True
            assert closed
        finally:
            sock.close()
        telemetry = server.service.telemetry.as_dict()
        assert telemetry["plans"] == 0 and telemetry["errors"] == 1

    def test_empty_body_uses_defaults_but_is_validated(self, server):
        # An empty body is the all-defaults plan request (64k x p=8); we
        # only check it parses -- evaluating it would be a slow sweep --
        # by sending a tiny neighbouring request instead.
        status, body = _post(server, "/v1/plan", dict(_BODY, top=1))
        assert status == 200 and len(body["plans"]) == 1


class TestSweepEndpoint:
    def test_sweep_launch_and_poll(self, server):
        status, started = _post(
            server,
            "/v1/sweep",
            {
                "seq_lens": ["8k"],
                "pipeline_sizes": [2],
                "schedules": ["1f1b"],
                "options": False,
            },
        )
        assert status == 202 and started["points"] == 1
        for _ in range(200):
            _, body = _get(server, "/v1/sweeps")
            record = body["sweeps"][0]
            if record["state"] != "running":
                break
            threading.Event().wait(0.05)
        assert record["state"] == "done"
        # The sweep pre-filled the shared cache: the matching plan
        # request is served warm.
        _, plan = _post(server, "/v1/plan", _BODY)
        assert plan["outcome"] == "warm"
