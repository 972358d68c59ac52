#!/usr/bin/env python
"""End-to-end smoke test of the planner service (the CI service gate).

Drives the full serving story in one process tree:

1. Seed a sqlite cost cache store by running the tuner directly
   (``autotune`` on the smoke workload).
2. Start ``repro serve`` as a subprocess against that store.
3. ``POST /v1/plan`` for the seeded workload and assert the answer
   (a) was served warm -- the seeded store made re-evaluation
   unnecessary, proven by the disk-hit counters -- and (b) is
   byte-identical to serialising the direct ``autotune`` result.
4. Repeat that plan request over one kept-alive connection and gate its
   median round trip (a response that waits on the client's delayed
   ACK takes ~40 ms; a warm plan takes a few).
5. ``GET /v1/stats`` and check the telemetry/cache shape.
6. ``POST /v1/sweep`` a grid with no feasible point (a micro batch above
   the token cap): a 400 naming the cap, and no sweep started.
7. Post a body to an unknown path on a kept-alive connection: the 404
   leaves the body unread, so the server closes the connection and must
   say so (``will_close``), or the client's next request fails.
8. Fire a short ``scripts/replay_traffic.py`` burst and let its
   consistency gates (all requests answered, outcome counters add up,
   bounded cold evaluations) finish the job.

Exits non-zero on the first violated expectation.  Needs only the repo
and the stdlib; CI runs it as ``python scripts/service_smoke.py``.
"""

from __future__ import annotations

import http.client
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.parse
import urllib.request

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.service.planner import plan_payload  # noqa: E402
from repro.tuner import CostCache, autotune  # noqa: E402
from repro.workloads import Workload  # noqa: E402

_PLAN_BODY = {
    "model": "7B",
    "gpu": "H20",
    "p": 4,
    "seq_len": "32k",
    "schedules": ["1f1b", "helix"],
    "options": False,
}

#: Warm plans sent back to back over one connection by the keep-alive gate.
_KEEPALIVE_REQUESTS = 20
#: Gate on their median round trip, in ms.
_KEEPALIVE_MAX_MEDIAN_MS = 20.0


def _request(base: str, path: str, payload: dict | None = None):
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    req = urllib.request.Request(
        base + path, data=data, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(req, timeout=300) as resp:
        return json.loads(resp.read())


def _refusal(base: str, path: str, payload: dict) -> tuple[int, dict]:
    """POST ``payload`` expecting an error: its status and JSON body."""
    try:
        return 200, _request(base, path, payload)
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def _check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL {message}", file=sys.stderr)
        sys.exit(1)
    print(f"ok: {message}")


def _keepalive_plans(
    base: str, payload: dict, count: int
) -> tuple[list[float], list[str]]:
    """Send ``count`` identical plan requests over one kept-alive connection.

    Returns each round trip in ms and each answer's outcome.
    """
    url = urllib.parse.urlsplit(base)
    body = json.dumps(payload).encode("utf-8")
    headers = {"Content-Type": "application/json"}
    conn = http.client.HTTPConnection(url.hostname, url.port, timeout=300)
    times, outcomes = [], []
    try:
        for _ in range(count):
            t0 = time.perf_counter()
            conn.request("POST", "/v1/plan", body=body, headers=headers)
            answer = json.loads(conn.getresponse().read())
            times.append(1e3 * (time.perf_counter() - t0))
            outcomes.append(answer.get("outcome"))
    finally:
        conn.close()
    return times, outcomes


def _unread_body_404(base: str) -> tuple[int, bool]:
    """POST a body to an unknown path on a kept-alive connection.

    Returns the status and whether the response told the client that
    the server closes the connection.
    """
    url = urllib.parse.urlsplit(base)
    conn = http.client.HTTPConnection(url.hostname, url.port, timeout=30)
    try:
        conn.request("POST", "/v1/nope", body=b"{}")
        resp = conn.getresponse()
        resp.read()
        return resp.status, resp.will_close
    finally:
        conn.close()


def main() -> int:
    workload = Workload.paper("7B", "H20", 4, 32768)

    with tempfile.TemporaryDirectory() as tmp:
        store_path = os.path.join(tmp, "plans.sqlite")

        print("== seeding the sqlite store with a direct tuner run ==")
        cache = CostCache.open(store_path)
        direct = autotune(
            workload,
            schedules=list(_PLAN_BODY["schedules"]),
            options=False,
            cache=cache,
        )
        seeded = cache.stats.misses
        _check(seeded > 0, f"seed sweep evaluated {seeded} candidates")
        cache.store.close()

        print("== starting repro serve against the seeded store ==")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO, "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--cache", store_path, "--port", "0"],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        base = None
        try:
            deadline = time.time() + 60
            while time.time() < deadline:
                line = proc.stdout.readline()
                if not line:
                    break
                print(f"  serve: {line.rstrip()}")
                if "listening on" in line:
                    base = line.rsplit("listening on ", 1)[1].strip()
                    break
            _check(base is not None, f"service came up at {base}")

            health = _request(base, "/v1/healthz")
            _check(health["status"] == "ok", "healthz reports ok")
            _check(
                health["cache_entries"] == seeded,
                f"service sees the {seeded} seeded entries",
            )

            print("== plan request against the warm store ==")
            plan = _request(base, "/v1/plan", _PLAN_BODY)
            _check(
                plan["outcome"] == "warm",
                "seeded workload is served warm (no re-evaluation)",
            )
            _check(
                plan["cache"]["misses"] == 0 and plan["cache"]["disk_hits"] > 0,
                f"hit counters prove it: {plan['cache']['disk_hits']} disk "
                "hits, 0 misses",
            )

            expected = [plan_payload(r) for r in direct]
            _check(
                json.dumps(plan["plans"], sort_keys=True)
                == json.dumps(expected, sort_keys=True),
                "service plans are byte-identical to direct autotune",
            )
            best = next(r for r in direct if r.feasible)
            _check(
                plan["best"] == plan_payload(best),
                f"best plan matches: {best.label}",
            )

            print("== warm plans over one kept-alive connection ==")
            times, outcomes = _keepalive_plans(
                base, _PLAN_BODY, _KEEPALIVE_REQUESTS
            )
            _check(
                outcomes == ["warm"] * _KEEPALIVE_REQUESTS,
                f"{_KEEPALIVE_REQUESTS} kept-alive plans answered warm",
            )
            median = statistics.median(times)
            _check(
                median <= _KEEPALIVE_MAX_MEDIAN_MS,
                f"median kept-alive round trip {median:.1f} ms <= "
                f"{_KEEPALIVE_MAX_MEDIAN_MS:.0f} ms (no delayed-ACK stall)",
            )

            stats = _request(base, "/v1/stats")
            _check(
                stats["telemetry"]["plans_warm"] == 1 + _KEEPALIVE_REQUESTS
                and stats["telemetry"]["errors"] == 0,
                "stats telemetry counted the warm plans, no errors",
            )
            _check(
                stats["cache"]["backend"] == "sqlite"
                and stats["cache"]["path"] == store_path,
                "stats reports the sqlite store",
            )

            # After the stats check: a refused request counts as an error.
            status, refused = _refusal(base, "/v1/sweep", {"micro_batch": 10**30})
            _check(
                status == 400
                and "above the maximum of 16777216 tokens" in refused.get("error", ""),
                "a sweep with no feasible point is a 400 naming the token cap",
            )
            _check(
                _request(base, "/v1/sweeps")["sweeps"] == [],
                "the refused sweep was not started",
            )

            _check(
                _unread_body_404(base) == (404, True),
                "a 404 that leaves a body unread sends Connection: close",
            )

            print("== replay burst ==")
            replay = subprocess.run(
                [sys.executable, os.path.join(REPO, "scripts", "replay_traffic.py"),
                 "--url", base, "--requests", "24", "--clients", "6",
                 "--seq-lens", "8k,16k", "--pipeline-sizes", "2",
                 "--schedules", "1f1b", "--expect-max-cold", "2"],
                env=env,
            )
            _check(replay.returncode == 0, "replay_traffic burst is clean")
        finally:
            proc.terminate()
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()

    print("service smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
