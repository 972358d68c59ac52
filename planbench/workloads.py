"""The three workloads, their inputs, and the reference answers they check.

Every workload drives one ``repro serve`` per round and restarts it for
the next, so start-up, first-touch sqlite reads and cold sweeps are
sampled once per round rather than once per run:

``cold-plan``
    One connection, closed loop.  Each round starts on an empty store
    and asks the same fixed set of distinct queries (twelve p = 8 points,
    two p = 4 points and one p = 16 point) in a seeded order, so every
    answer is cold, then runs two small cold grid sweeps, one at a time.
``warm-serve``
    Two connections, closed loop at saturation.  Each round starts on a
    fresh copy of a store pre-filled with the answers to a 36-query
    pool, draws requests from the pool with a Zipf skew, then runs one
    sweep over a pre-filled grid, which is warm too.
``sweep-and-serve``
    Two connections, open loop: warm pool queries at a fixed seeded
    arrival schedule, timed from their due time, while one cold grid
    sweep per round holds the planner's evaluation lock.  A burst of
    queries is due just after the sweep is posted, and no other query
    until the sweep is over.  Sweep completion is polled on
    ``/v1/sweeps`` over the same connections.

The seed picks the order of the cold queries, which pool queries are
popular, the request draws and the arrival jitter.  The set of cold
queries, the pool and the sweep grids are the same for every seed, so
runs with different seeds measure the same mix of work.
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import sqlite3
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from harness import (
    BUILD,
    REQUEST_TIMEOUT_S,
    SRC,
    BenchError,
    Connection,
    Service,
    code_hash,
)

MODELS = ("3B", "7B", "13B")
GPUS = ("H20", "A800")
SEQS = (32768, 65536, 131072)

#: Minimum gap between two polls of ``/v1/sweeps`` for one sweep.
POLL_GAP_S = 0.02
#: warm-serve: requests per connection per round.
WARM_REQUESTS_PER_CONN = 120
#: sweep-and-serve: steady arrival rate, traffic length per round, and
#: when the round posts its sweep.  A burst of requests arrives just
#: after the post and no steady request for a quiet spell longer than
#: the sweep, so the share of requests that wait for the sweep (a
#: quarter: 10 of 40) is fixed by the schedule, not by how fast the host
#: runs the sweep.  p50 falls among the others, p90 among the burst,
#: whose latencies all track the sweep's length.  Short rounds give a run
#: several sweeps and starts.
OPEN_RATE_PER_S = 10.0
OPEN_ROUND_S = 5.0
OPEN_SWEEP_AT_S = 1.0
OPEN_QUIET_S = 2.0
OPEN_BURST = 10
OPEN_BURST_AFTER_S = (0.02, 0.07)
#: An open-loop request sent later than this after its due time waited
#: for a free connection.
LATE_S = 0.005
#: Zipf exponent of the warm-serve and sweep-and-serve draws.
ZIPF_S = 1.1
#: Correct outcomes: a warm request may also share an identical
#: in-flight request's answer.
COLD = ("cold",)
WARM = ("warm", "coalesced")


@dataclass(frozen=True)
class Query:
    model: str
    gpu: str
    p: int
    seq_len: int

    @property
    def key(self) -> str:
        return f"{self.model}/{self.gpu}/p{self.p}/{self.seq_len // 1024}k"

    @property
    def body(self) -> dict[str, Any]:
        return {"model": self.model, "gpu": self.gpu, "p": self.p, "seq_len": self.seq_len}


@dataclass(frozen=True)
class Grid:
    model: str
    gpu: str
    seq_lens: tuple[int, ...]
    pipeline_sizes: tuple[int, ...]
    budget_tokens: int = 1 << 20

    @property
    def key(self) -> str:
        seqs = ",".join(f"{s // 1024}k" for s in self.seq_lens)
        ps = ",".join(map(str, self.pipeline_sizes))
        return f"{self.model}/{self.gpu}/s{{{seqs}}}/p{{{ps}}}/{self.budget_tokens}"

    @property
    def body(self) -> dict[str, Any]:
        return {
            "model": self.model,
            "gpu": self.gpu,
            "seq_lens": list(self.seq_lens),
            "pipeline_sizes": list(self.pipeline_sizes),
            "budget_tokens": self.budget_tokens,
        }


#: cold-plan: the 12 long-sequence p = 8 points, so the median sits
#: inside one cost class, plus two p = 4 points and one p = 16 point.
#: 15 queries a round put p50 and p90 (ranks 7.5 and 13.5 of 15) in the
#: middle of one query's samples rather than between two queries.
COLD_QUERIES = tuple(
    Query(m, g, 8, s) for m in MODELS for g in GPUS for s in (65536, 131072)
) + (
    Query("7B", "A800", 4, 65536),
    Query("13B", "A800", 4, 131072),
    Query("3B", "A800", 16, 131072),
)
#: warm-serve / sweep-and-serve: the pre-filled pool (3 x 2 x 2 x 3 = 36).
WARM_POOL = tuple(
    Query(m, g, p, s) for m in MODELS for g in GPUS for p in (4, 8) for s in SEQS
)
#: The cold sweep of about 1 s that sweep-and-serve rounds post.  At a
#: 1M-token budget its points run 32 or 64 micro batches on p = 2 or 4
#: stages, none of which the pool holds.  Every round sweeps the same
#: grid, so runs with different numbers of rounds sweep the same work.
SWEEP_GRID = Grid("7B", "H20", (16384, 32768), (2, 4))
#: cold-plan's sweeps: two grids of the same shape at a quarter of that
#: budget, about 0.3 s each.  Short sweeps give a run more sweep
#: samples, so their median rides out the host's slow spells.
COLD_GRIDS = (
    Grid("7B", "H20", (16384, 32768), (2, 4), 1 << 18),
    Grid("13B", "H20", (16384, 32768), (2, 4), 1 << 18),
)
#: warm-serve's sweep: pre-filled with the pool, so it is answered warm.
WARM_GRID = Grid("7B", "H20", (32768, 65536), (8,))
#: Asked cold by the untimed start that precedes every run.
WARMUP_QUERY = Query("3B", "H20", 4, 32768)


# -- prepared data ------------------------------------------------------------


@dataclass
class Prepared:
    """Reference answers plus the pre-filled store, built once per source hash."""

    refs: dict[str, dict[str, Any]]
    template: Path


def _canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True)


def _json_or_none(raw: bytes) -> Any:
    try:
        return json.loads(raw)
    except ValueError:
        return None


def _build_references(out: Path) -> None:
    """Compute every reference answer by calling the tuner in-process."""
    sys.path.insert(0, str(SRC))
    from repro.service.planner import plan_payload
    from repro.tuner import CostCache, autotune
    from repro.tuner.grid import tune_grid
    from repro.workloads import Workload, WorkloadGrid

    def rows(plans: list) -> str:
        return _canonical([plan_payload(r) for r in plans])

    def best(plans: list) -> str:
        feasible = [r for r in plans if r.feasible]
        return _canonical(plan_payload(feasible[0]) if feasible else None)

    def grid_of(g: Grid) -> WorkloadGrid:
        return WorkloadGrid(
            model=g.model,
            gpu=g.gpu,
            seq_lens=g.seq_lens,
            pipeline_sizes=g.pipeline_sizes,
            budget_tokens=g.budget_tokens,
        )

    refs: dict[str, dict[str, Any]] = {"plans": {}, "best": {}, "sweeps": {}}
    for q in COLD_QUERIES:
        w = Workload.paper(q.model, q.gpu, q.p, q.seq_len)
        refs["plans"][q.key] = rows(autotune(w, cache=CostCache()))
        refs["best"][q.key] = best(autotune(w, cache=CostCache(), prune=False))
    for g in (SWEEP_GRID, *COLD_GRIDS):
        refs["sweeps"][g.key] = len(tune_grid(grid_of(g), cache=CostCache()))
    # The pool and warm grid answers are computed cold straight into the
    # template store, which every warm round then copies.
    template = out / "pool.sqlite"
    cache = CostCache.open(template)
    for q in WARM_POOL:
        w = Workload.paper(q.model, q.gpu, q.p, q.seq_len)
        refs["plans"][q.key] = rows(autotune(w, cache=cache))
    refs["sweeps"][WARM_GRID.key] = len(tune_grid(grid_of(WARM_GRID), cache=cache))
    cache.close()
    # Fold the write-ahead log into the file, so a plain copy is complete.
    conn = sqlite3.connect(template)
    try:
        conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
    finally:
        conn.close()
    (out / "refs.json").write_text(json.dumps(refs))


def prepare() -> Prepared:
    """Reference answers and template store for the current sources.

    Computed once per source hash (a few tens of seconds) and kept under
    the benchmark's build directory, so later runs only load them.
    """
    final = BUILD / f"prep-{code_hash()}"
    if not (final / "refs.json").is_file():
        tmp = BUILD / f"prep-tmp-{time.time_ns()}"
        tmp.mkdir(parents=True)
        _build_references(tmp)
        for old in BUILD.glob("prep-*"):
            if old != tmp:
                shutil.rmtree(old, ignore_errors=True)
        tmp.rename(final)
    refs = json.loads((final / "refs.json").read_text())
    return Prepared(refs=refs, template=final / "pool.sqlite")


# -- one run ------------------------------------------------------------------


@dataclass
class SweepWatch:
    """One ``POST /v1/sweep`` and the polls that see it finish."""

    grid: Grid
    sweep_id: str | None = None
    posted: float = 0.0
    finished: float = 0.0
    last_poll: float = 0.0
    record: dict[str, Any] | None = None
    failed: bool = False

    @property
    def outstanding(self) -> bool:
        return self.sweep_id is not None and self.record is None and not self.failed

    def post(self, conn: Connection) -> None:
        status, raw, t0, _ = conn.call("POST", "/v1/sweep", self.grid.body)
        self.posted = self.last_poll = t0
        if status != 202:
            self.failed = True
            return
        self.sweep_id = json.loads(raw)["sweep"]

    def poll(self, conn: Connection) -> None:
        status, raw, t0, t1 = conn.call("GET", "/v1/sweeps")
        self.last_poll = t0
        if status != 200:
            self.failed = True
            return
        for rec in json.loads(raw)["sweeps"]:
            if rec["id"] == self.sweep_id and rec["state"] != "running":
                if self.record is None:
                    self.finished = t1
                self.record = rec
        if not self.settled and t1 - self.posted > REQUEST_TIMEOUT_S:
            self.failed = True

    @property
    def settled(self) -> bool:
        """Finished, and the sweep thread has also saved the cache after it."""
        return self.failed or (self.record is not None and self.record["elapsed_s"] is not None)


@dataclass
class Run:
    """Samples and failure counts of one benchmark run."""

    workload: str
    seed: int
    prep: Prepared
    run_dir: Path
    traced: bool
    rng: random.Random = field(init=False)
    plans: list[dict[str, Any]] = field(default_factory=list)
    sweeps: list[dict[str, Any]] = field(default_factory=list)
    rounds: list[dict[str, Any]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.rng = random.Random(self.seed)
        self._ids = itertools.count(1)
        self._zipf_order = self._zipf_ranking()

    # -- inputs -----------------------------------------------------------

    def _zipf_ranking(self) -> list[Query]:
        # Popularity ranks alternate p = 8 and p = 4 queries; the seed
        # shuffles queries within each class, so every seed puts the same
        # weight on each class.
        p8 = self.rng.sample([q for q in WARM_POOL if q.p == 8], 18)
        p4 = self.rng.sample([q for q in WARM_POOL if q.p == 4], 18)
        return [q for pair in zip(p8, p4) for q in pair]

    def zipf_draws(self, n: int) -> list[Query]:
        weights = [1.0 / (k + 1) ** ZIPF_S for k in range(len(self._zipf_order))]
        return self.rng.choices(self._zipf_order, weights=weights, k=n)

    def next_id(self) -> int:
        return next(self._ids)

    # -- accounting -------------------------------------------------------

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)

    def record_plan(
        self,
        rid: int,
        rnd: int,
        q: Query,
        status: int,
        raw: bytes,
        due: float,
        sent: float,
        done: float,
        outcomes: tuple[str, ...],
        groups: list[str],
    ) -> dict[str, Any]:
        """Check one plan answer against its reference and keep the sample."""
        self.attempted += 1
        ok, count = False, 0
        payload = _json_or_none(raw) if status == 200 else None
        if isinstance(payload, dict):
            count = payload.get("plan_count", 0)
            ok = (
                payload.get("outcome") in outcomes
                and _canonical(payload.get("plans")) == self.prep.refs["plans"][q.key]
            )
            ref_best = self.prep.refs["best"].get(q.key)
            if ref_best is not None:
                ok = ok and _canonical(payload.get("best")) == ref_best
        if not ok:
            self.fail(f"plan {q.key} round {rnd}: status {status}")
        sample = {
            "id": rid,
            "groups": [f"p={q.p}"] + groups,
            "due": due,
            "sent": sent,
            "done": done,
            "ok": ok,
            "candidates": count,
        }
        self.plans.append(sample)
        return sample

    def record_sweep(self, rnd: int, watch: SweepWatch) -> dict[str, Any] | None:
        self.attempted += 1
        rec = watch.record
        expected = self.prep.refs["sweeps"][watch.grid.key]
        if (
            watch.failed
            or rec is None
            or rec["state"] != "done"
            or rec["candidates"] != expected
        ):
            self.fail(f"sweep {watch.grid.key} round {rnd}: {rec}")
            return None
        sample = {
            "posted": watch.posted,
            "finished": watch.finished,
            "sweep_s": watch.finished - watch.posted,
            "candidates": rec["candidates"],
        }
        self.sweeps.append(sample)
        return sample

    # -- rounds -----------------------------------------------------------

    def service(self, rnd: int, *, fresh: bool) -> Service:
        """A service for round ``rnd`` on an empty store or a template copy."""
        store = self.run_dir / f"round{rnd}.sqlite"
        for suffix in ("", "-wal", "-shm"):
            Path(f"{store}{suffix}").unlink(missing_ok=True)
        if not fresh:
            shutil.copyfile(self.prep.template, store)
        spans = self.run_dir / f"spans{rnd}.json" if self.traced else None
        return Service(store, self.run_dir / "service.log", spans)

    def round(self, rnd: int, fresh: bool, traffic: Callable[..., None]) -> None:
        """Start a service, run ``traffic`` against it, stop it; one round."""
        svc = self.service(rnd, fresh=fresh)
        rec: dict[str, Any] = {"round": rnd}
        self.attempted += 1
        try:
            rec["setup_s"], conn = svc.start()
            traffic(self, svc, conn, rec)
            conn.close()
            rec["peak_rss_mb"] = svc.stop()
            if svc.spans is not None:
                rec["spans"] = str(svc.spans)
        except BenchError as err:
            self.fail(f"round {rnd}: {err}")
        finally:
            svc.kill()
        self.rounds.append(rec)

    def serial_sweep(self, rnd: int, conn: Connection, grid: Grid) -> dict[str, Any] | None:
        watch = SweepWatch(grid)
        watch.post(conn)
        # Timed until done; then polled on until the sweep thread's save
        # of the cache ends, so the save overlaps nothing that follows.
        while not watch.settled:
            time.sleep(max(0.0, watch.last_poll + POLL_GAP_S - time.perf_counter()))
            watch.poll(conn)
        return self.record_sweep(rnd, watch)


def cold_plan_round(run: Run, svc: Service, conn: Connection, rec: dict[str, Any]) -> None:
    rnd = rec["round"]
    order = run.rng.sample(COLD_QUERIES, len(COLD_QUERIES))
    samples = []
    for q in order:
        rid = run.next_id()
        status, raw, t0, t1 = conn.call("POST", "/v1/plan", q.body, rid)
        samples.append(run.record_plan(rid, rnd, q, status, raw, t0, t0, t1, COLD, []))
    wall = samples[-1]["done"] - samples[0]["sent"]
    rec["candidates_per_s"] = sum(s["candidates"] for s in samples) / wall
    rec["plans_per_s"] = len(samples) / wall
    for grid in COLD_GRIDS:
        run.serial_sweep(rnd, conn, grid)


def warm_serve_round(run: Run, svc: Service, conn: Connection, rec: dict[str, Any]) -> None:
    rnd = rec["round"]
    conns = [conn, Connection(svc.port)]
    draws = [run.zipf_draws(WARM_REQUESTS_PER_CONN) for _ in conns]
    raw_results: list[list[tuple]] = [[], []]
    go = threading.Barrier(2)

    def loop(i: int) -> None:
        go.wait()
        for q in draws[i]:
            rid = run.next_id()
            raw_results[i].append((rid, q) + conns[i].call("POST", "/v1/plan", q.body, rid))

    helper = threading.Thread(target=loop, args=(1,), name="warm-client-1")
    helper.start()
    try:
        loop(0)
    finally:
        helper.join()
        conns[1].close()
    # Answers are checked after the loop, so checking adds no think time.
    seen: set[str] = set()
    samples = []
    for rid, q, status, raw, t0, t1 in sorted(
        itertools.chain(*raw_results), key=lambda r: r[4]
    ):
        touch = "repeat" if q.key in seen else "first-touch"
        seen.add(q.key)
        samples.append(run.record_plan(rid, rnd, q, status, raw, t0, t0, t1, WARM, [touch]))
    # Throughput counts only the time both connections had work: from the
    # first send to the end of the connection that finished first.
    begin = min(r[0][4] for r in raw_results if r)
    both_busy_until = min(r[-1][5] for r in raw_results if r)
    window = [s for s in samples if s["done"] <= both_busy_until]
    rec["plans_per_s"] = len(window) / (both_busy_until - begin)
    rec["candidates_per_s"] = sum(s["candidates"] for s in window) / (both_busy_until - begin)
    run.serial_sweep(rnd, conn, WARM_GRID)


def open_schedule(rng: random.Random) -> list[float]:
    """Due offsets (s) of one sweep-and-serve round, in due order.

    Steady arrivals, less those due in the quiet spell after the sweep
    is posted, plus the burst due just after the post.
    """
    gap = 1.0 / OPEN_RATE_PER_S
    steady = [(i + rng.random()) * gap for i in range(int(OPEN_RATE_PER_S * OPEN_ROUND_S))]
    lo, hi = OPEN_BURST_AFTER_S
    burst = [OPEN_SWEEP_AT_S + rng.uniform(lo, hi) for _ in range(OPEN_BURST)]
    quiet = (OPEN_SWEEP_AT_S, OPEN_SWEEP_AT_S + OPEN_QUIET_S)
    return sorted([t for t in steady if not quiet[0] <= t < quiet[1]] + burst)


def sweep_and_serve_round(run: Run, svc: Service, conn: Connection, rec: dict[str, Any]) -> None:
    rnd = rec["round"]
    offsets = open_schedule(run.rng)
    n = len(offsets)
    queries = run.zipf_draws(n)
    watch = SweepWatch(SWEEP_GRID)
    conns = [conn, Connection(svc.port)]
    lock = threading.Lock()
    state = {"next": 0, "posted": False, "polling": False}
    results: list[tuple] = []
    base = time.perf_counter() + 0.05
    sweep_due = base + OPEN_SWEEP_AT_S

    def take() -> tuple[str, int] | float | None:
        """Next action for a free connection, or seconds to wait, or None.

        The sweep's post and polls go first, so its completion is seen as
        soon as a connection is free; plans follow in due order.
        """
        now = time.perf_counter()
        if not state["posted"] and now >= sweep_due:
            state["posted"] = True
            return ("post", 0)
        if watch.outstanding and not state["polling"] and now >= watch.last_poll + POLL_GAP_S:
            state["polling"] = True
            return ("poll", 0)
        i = state["next"]
        if i < n and (state["posted"] or base + offsets[i] < sweep_due):
            state["next"] += 1
            return ("plan", i)
        settled = watch.record is not None or watch.failed
        if i >= n and settled and not state["polling"]:
            return None
        return POLL_GAP_S / 2

    def worker(c: Connection) -> None:
        while True:
            with lock:
                action = take()
            if action is None:
                return
            if isinstance(action, float):
                time.sleep(action)
                continue
            kind, i = action
            if kind == "post":
                watch.post(c)
            elif kind == "poll":
                watch.poll(c)
                with lock:
                    state["polling"] = False
            else:
                due = base + offsets[i]
                time.sleep(max(0.0, due - time.perf_counter()))
                rid = run.next_id()
                results.append((rid, queries[i], due) + c.call("POST", "/v1/plan", queries[i].body, rid))

    helper = threading.Thread(target=worker, args=(conns[1],), name="open-client-1")
    helper.start()
    try:
        worker(conns[0])
    finally:
        helper.join()
        conns[1].close()
    sweep = run.record_sweep(rnd, watch)
    samples = []
    for rid, q, due, status, raw, t0, t1 in sorted(results, key=lambda r: r[2]):
        # Stalled: in flight while the sweep ran, or queued in the backlog
        # it left (sent late because both connections were busy).
        stalled = t0 - due > LATE_S or (watch.posted <= t1 and due <= watch.finished)
        group = "sweep-stalled" if stalled else "unstalled"
        samples.append(run.record_plan(rid, rnd, q, status, raw, due, t0, t1, WARM, [group]))
    done = [s for s in samples if s["ok"]]
    if done:
        rec["plans_per_s"] = len(done) / (max(s["done"] for s in done) - base)
    if sweep is not None:
        rec["candidates_per_s"] = sweep["candidates"] / sweep["sweep_s"]


ROUNDS: dict[str, tuple[bool, Callable[..., None]]] = {
    # workload -> (round starts on an empty store, traffic of one round)
    "cold-plan": (True, cold_plan_round),
    "warm-serve": (False, warm_serve_round),
    "sweep-and-serve": (False, sweep_and_serve_round),
}


def warmup(run: Run) -> None:
    """One untimed start before timing begins; its numbers are dropped.

    Its cold plan imports every module a request needs, so the bytecode
    prefix holds them all and the sources sit in the page cache.
    """
    svc = run.service(-1, fresh=True)
    try:
        _, conn = svc.start()
        status, _, _, _ = conn.call("POST", "/v1/plan", WARMUP_QUERY.body)
        conn.close()
        svc.stop()
    finally:
        svc.kill()
    if status != 200:
        raise BenchError(f"warm-up plan answered {status}")


def run_rounds(run: Run, seconds: float) -> None:
    """Run whole rounds while the next one still fits in ``seconds``."""
    fresh, traffic = ROUNDS[run.workload]
    begin = time.perf_counter()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        run.round(len(run.rounds), fresh, traffic)
        longest = max(longest, time.perf_counter() - t0)
        if time.perf_counter() - begin + longest > seconds:
            return
