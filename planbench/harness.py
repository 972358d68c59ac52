"""Process and connection plumbing for the planner benchmark.

Workload-agnostic pieces: where the benchmark keeps its files, the
environment every service process gets, starting and stopping
``repro serve`` (plain, or under the span-recording launcher), one
persistent HTTP/1.1 connection that times each call, and the order
statistics every metric is built from.

All clocks are ``time.perf_counter`` (CLOCK_MONOTONIC on Linux), the
clock the launcher stamps server spans with, so client round trips and
server spans share one time axis.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build" / "planbench"
PYCACHE = BUILD / "pycache"

#: A plan or poll that takes longer than this counts as failed.
REQUEST_TIMEOUT_S = 60.0
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0


class BenchError(RuntimeError):
    """The benchmark cannot run here (no planner source, broken service)."""


def require_checkout() -> None:
    if not (SRC / "repro" / "cli.py").is_file():
        raise BenchError(
            f"no planner source at {SRC / 'repro'}; run the benchmark from "
            "the root of a repository checkout"
        )


def code_hash() -> str:
    """Hash of the planner and benchmark sources: the prepared-data key."""
    digest = hashlib.sha256()
    for base in (SRC / "repro", BENCH):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def child_env() -> dict[str, str]:
    """Environment of every service process and of the bytecode build.

    Bytecode lives under the benchmark's own ``PYTHONPYCACHEPREFIX``, so
    start-up reads the same compiled files in every checkout whatever
    ``__pycache__`` directories it happens to hold; a module first
    imported by a service is compiled into the prefix once rather than
    on every start.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    env["PYTHONUNBUFFERED"] = "1"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def compile_bytecode() -> None:
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC / "repro"), str(BENCH)],
        env=child_env(),
        stdout=subprocess.DEVNULL,
        check=True,
        timeout=600,
    )


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process, in MiB."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError as err:
        raise BenchError(f"service {pid} is gone: {err}") from None
    raise BenchError(f"no VmHWM for pid {pid}")


class Connection:
    """One persistent HTTP/1.1 connection to the service.

    ``call`` returns ``(status, body, t_sent, t_done)``; status 0 means
    the request failed in transport (refused, reset, timed out), after
    which the next call reconnects.
    """

    def __init__(self, port: int) -> None:
        self._conn = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=REQUEST_TIMEOUT_S
        )

    def call(
        self,
        method: str,
        path: str,
        body: Any = None,
        request_id: int | None = None,
    ) -> tuple[int, bytes, float, float]:
        headers = {}
        data = None
        if body is not None:
            data = json.dumps(body).encode()
            headers["Content-Type"] = "application/json"
        if request_id is not None:
            # Read only by the traced launcher, to pair this round trip
            # with the server's spans; the service ignores it.
            headers["X-Bench-Request"] = str(request_id)
        t0 = time.perf_counter()
        try:
            self._conn.request(method, path, body=data, headers=headers)
            resp = self._conn.getresponse()
            raw = resp.read()
        except (OSError, http.client.HTTPException):
            self._conn.close()
            return 0, b"", t0, time.perf_counter()
        return resp.status, raw, t0, time.perf_counter()

    def close(self) -> None:
        self._conn.close()


class Service:
    """One ``repro serve --cache STORE --port 0`` process.

    With ``spans`` set the service runs under ``launcher.py``, which
    records spans around each layer's entry points and writes them to
    that path when the service exits on SIGTERM.
    """

    def __init__(self, store: Path, log: Path, spans: Path | None = None) -> None:
        self.store = store
        self.log = log
        self.spans = spans
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self) -> tuple[float, Connection]:
        """Spawn and wait for the first answered healthz.

        Returns the set-up time (spawn to healthz answer) and the
        connection that asked, which stays open for the round's traffic.
        """
        if self.spans is None:
            cmd = [sys.executable, "-m", "repro"]
        else:
            cmd = [sys.executable, str(BENCH / "launcher.py"), str(self.spans)]
        cmd += ["serve", "--cache", str(self.store), "--port", "0"]
        with open(self.log, "ab") as log:
            t0 = time.perf_counter()
            self.proc = subprocess.Popen(
                cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=log
            )
        self.port = self._read_port(t0 + START_TIMEOUT_S)
        conn = Connection(self.port)
        status, raw, _, t1 = conn.call("GET", "/v1/healthz")
        if status != 200 or b'"status": "ok"' not in raw:
            raise BenchError(f"healthz answered {status}: {raw[:200]!r}")
        return t1 - t0, conn

    def _read_port(self, deadline: float) -> int:
        # `repro serve` prints "cache: attached ..." and then the bound
        # address with a plain print; PYTHONUNBUFFERED makes it arrive now.
        assert self.proc is not None and self.proc.stdout is not None
        fd = self.proc.stdout.fileno()
        buf = b""
        while True:
            left = deadline - time.perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise BenchError("service printed no address in time")
            chunk = os.read(fd, 4096)
            if not chunk:
                raise BenchError(f"service exited before listening; see {self.log}")
            buf += chunk
            *lines, buf = buf.split(b"\n")  # keep a partial last line
            for line in lines:
                if b"listening on http://" in line:
                    return int(line.rsplit(b":", 1)[1])

    def stop(self) -> float:
        """SIGTERM the service and wait for it to exit; returns peak RSS (MiB)."""
        proc = self.proc
        assert proc is not None
        peak = peak_rss_mb(proc.pid)
        proc.send_signal(signal.SIGTERM)
        try:
            code = proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("service ignored SIGTERM") from None
        self._close_pipe()
        self.proc = None
        if code != 0:
            raise BenchError(f"service exited with {code}; see {self.log}")
        return peak

    def kill(self) -> None:
        """Stop a service still running after a failure; waits for it."""
        proc = self.proc
        if proc is None:
            return
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        self._close_pipe()
        self.proc = None

    def _close_pipe(self) -> None:
        if self.proc is not None and self.proc.stdout is not None:
            self.proc.stdout.close()


# -- order statistics ---------------------------------------------------------


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0 <= q <= 1) of ``values``."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return quantile(values, 0.5)
