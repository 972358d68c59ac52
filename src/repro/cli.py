"""Registry-driven command line for the HelixPipe reproduction.

``python -m repro`` exposes the schedule registry, the discrete-event
simulator and the auto-tuner without writing a script.  Workloads are
resolved from the paper's presets (:data:`repro.model.config.MODEL_PRESETS`
models x :data:`repro.experiments.common.GPU_CLUSTERS` clusters), so an
experiment cell is four flags.

Commands
--------
``list``
    Every registered schedule with family, tunability and description::

        python -m repro list

``describe SCHEDULE``
    One spec in full: option schema with defaults, the tuner's option
    grid, admissible recompute strategies, micro-batch divisor::

        python -m repro describe helix -p 8

``build SCHEDULE``
    Build (and verify) one schedule for a workload and report its
    shape::

        python -m repro build helix --model 7B --gpu H20 -p 8 --seq-len 64k

``simulate SCHEDULE``
    Build + simulate one schedule; prints iteration time, throughput,
    peak memory and bubble fraction::

        python -m repro simulate zb1p --model 7B --gpu H20 -p 8 --seq-len 64k

``lint``
    Static analysis over the schedule IR: build every registered
    schedule (or ``--schedules A,B``) at each ``-p`` and run the full
    pass pipeline -- executability, communication-hazard, static
    peak-memory and dead-code analyses -- without simulating.  Exits
    non-zero on ERROR findings; ``--strict`` fails on warnings too::

        python -m repro lint
        python -m repro lint --schedules helix,zb1p -p 2,4 --json

``lint-code``
    The same idea pointed at the repo's own sources: the concurrency
    lint (:mod:`repro.devtools.concurrency`) sweeps the threaded
    packages (default ``src/repro/service`` + ``src/repro/tuner``) and
    runs the lock-discipline passes -- guarded-by fields, lock-order
    cycles, blocking calls under locks, thread lifecycle hygiene.
    Exits non-zero on ERROR findings; ``--strict`` fails on warnings
    too::

        python -m repro lint-code
        python -m repro lint-code --strict --json --paths src/repro

``tune``
    Run :func:`repro.tuner.autotune` over the full candidate grid and
    print the ranked plan table.  ``--workers N`` evaluates cold
    candidates in a process pool; ``--cache PATH`` attaches a sqlite
    cost cache store (created when missing) that every evaluation is
    written through, so repeated sweeps (and sweeps from other
    processes) reuse every evaluation::

        python -m repro tune --model 7B --gpu H20 -p 8 --seq-len 64k \\
            --workers 4 --cache sweep.sqlite

    Passing several sequence lengths or pipeline sizes -- or a token
    budget -- turns the sweep into workload-grid planning
    (:func:`repro.tuner.grid.tune_grid`): every ``seq_len x p`` point
    runs the schedule grid at the micro-batch count its token budget
    allows, and one ranking across all points answers "which shape
    *and* schedule should this run use"::

        python -m repro tune --budget-tokens 1M --seq-lens 16k,32k,64k -p 4,8

    ``--smoke`` shrinks the grid to a seconds-fast sanity sweep for CI.

``serve``
    Run the planner as a long-lived HTTP/JSON service over a shared
    cost cache (:mod:`repro.service`): ``POST /v1/plan`` resolves a
    workload through the tuner (identical in-flight requests coalesce
    onto one evaluation), ``POST /v1/sweep`` pre-fills a workload
    neighbourhood in the background, ``GET /v1/stats`` reports request
    telemetry and the cache hit/miss split::

        python -m repro serve --cache plans.sqlite --port 8642
        curl -s localhost:8642/v1/plan -d '{"model":"7B","p":8,"seq_len":"64k"}'

``cache info``
    Prints a store's backend, entry count and cost-model fingerprint
    freshness without modifying it (exit 1 when stale)::

        python -m repro cache info plans.sqlite

``experiment list|describe|run``
    The registered paper experiments (every figure/table module) behind
    one driver: ``list`` the registry, ``describe`` one spec's
    parameter schema, ``run`` an experiment and print its rows as a
    table -- or emit machine-readable artifacts::

        python -m repro experiment run fig8_throughput --smoke --json
        python -m repro experiment run table2 -P p=8 --csv --out results/

    ``--smoke`` applies the spec's fast parameter set; ``-P name=value``
    overrides individual parameters (Python literals).

``experiment diff|verify``
    The golden-baseline regression harness
    (:mod:`repro.experiments.diffing`): ``diff`` compares two artifact
    files row-by-row under numeric tolerances, ``verify`` runs every
    registered spec against the goldens committed under
    ``tests/golden/`` and fails with a per-cell delta report on drift.
    ``verify --update`` regenerates the goldens after an intentional
    cost-model change::

        python -m repro experiment diff before.json after.json --rtol 0.01
        python -m repro experiment verify --smoke
        python -m repro experiment verify --smoke --update

Sequence lengths accept a ``k`` suffix (``64k`` == 65536); token
budgets accept ``k``/``M``/``G`` (``1M`` == 1048576 tokens).  Schedule
options are passed as repeated ``-o name=value`` flags with Python
literal values (``-o fold=1``, ``-o include_head=False``).
"""

from __future__ import annotations

import argparse
import ast
import math
import os
import sys
import time
from typing import TYPE_CHECKING, Any, Sequence

from repro.analysis.report import format_table
from repro.analysis.tuner_view import format_grid_table, format_plan_table
from repro.costmodel.memory import RecomputeStrategy
from repro.experiments.common import run_method
from repro.experiments.diffing import (
    DEFAULT_GOLDEN_DIR,
    Tolerance,
    diff_files,
    format_verify_report,
    verify_experiments,
)
from repro.experiments.registry import available_experiments, get_experiment
from repro.model.config import MODEL_PRESETS
from repro.schedules.registry import (
    ScheduleBuildError,
    available_schedules,
    get_schedule,
)
from repro.tuner import CostCache, autotune, tune_grid
from repro.workloads import (
    GPU_CLUSTERS,
    Workload,
    WorkloadGrid,
    parse_int_list,
    parse_seq_len,
    parse_seq_lens,
    parse_token_budget,
)

if TYPE_CHECKING:
    from repro.passkit import PassRegistry

__all__ = ["main"]

_GIB = float(1 << 30)


# -- argument helpers --------------------------------------------------------


def _argtype(parse):
    """Wrap a ``repro.workloads`` parser into an argparse type."""

    def typed(text: str):
        try:
            return parse(text)
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from None

    typed.__name__ = parse.__name__
    return typed


_seq_len = _argtype(parse_seq_len)
_seq_lens = _argtype(parse_seq_lens)
_int_list = _argtype(parse_int_list)
_token_budget = _argtype(parse_token_budget)


def _checked(convert, ok, what: str):
    """An argparse type: ``convert`` the text and require ``ok`` of it.

    The counts and the memory cap follow the rules ``POST /v1/plan``
    applies to the same fields, so ``tune`` refuses what the service
    refuses instead of sweeping a workload that cannot run.
    """

    def typed(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value

    return typed


_positive_int = _checked(int, lambda v: v > 0, "a positive integer")
_memory_cap_gib = _checked(
    float, lambda v: math.isfinite(v) and v >= 0, "a finite number >= 0"
)


def _option(text: str) -> tuple[str, Any]:
    """Parse one ``name=value`` schedule option with a literal value."""
    name, sep, raw = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(
            f"invalid option {text!r} (expected name=value)"
        )
    try:
        value: Any = ast.literal_eval(raw)
    except (ValueError, SyntaxError):
        value = raw  # plain strings need no quoting
    return name, value


def _add_lint_args(parser: argparse.ArgumentParser, kind: str) -> None:
    """The options ``repro lint`` and ``repro lint-code`` share; ``kind``
    names their passes in the help ("analysis", "code")."""
    parser.add_argument(
        "--passes",
        default=None,
        metavar="A,B,...",
        help=f"run only these {kind} passes (default: all registered)",
    )
    parser.add_argument(
        "--list-passes",
        action="store_true",
        help=f"list the registered {kind} passes and exit",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="promote warnings to failures (exit 1 on any finding)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable report instead of the text",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="also write the report to PATH (CI uploads it on failure)",
    )


def _add_workload_args(parser: argparse.ArgumentParser, grid: bool = False) -> None:
    g = parser.add_argument_group("workload (paper presets)")
    g.add_argument(
        "--model",
        choices=sorted(MODEL_PRESETS),
        default="7B",
        help="model preset (default: %(default)s)",
    )
    g.add_argument(
        "--gpu",
        choices=sorted(GPU_CLUSTERS),
        default="H20",
        help="GPU/cluster preset (default: %(default)s)",
    )
    if grid:
        g.add_argument(
            "-p",
            "--pipeline-size",
            "--pipeline-sizes",
            type=_int_list,
            default=None,
            metavar="P[,P...]",
            help="pipeline size(s); several turn the sweep into a "
            "workload grid (default: 8; 4 with --smoke)",
        )
        g.add_argument(
            "--seq-len",
            "--seq-lens",
            dest="seq_len",
            type=_seq_lens,
            default=None,
            metavar="S[,S...]",
            help="sequence length(s), k suffix ok; several turn the "
            "sweep into a workload grid (default: 64k; 32k with --smoke)",
        )
        g.add_argument(
            "--budget-tokens",
            type=_token_budget,
            default=None,
            metavar="N",
            help="fixed tokens per iteration (k/M/G suffix ok); each grid "
            "point runs as many micro batches as the budget allows "
            "(default: the 2p-micro-batch protocol)",
        )
    else:
        g.add_argument(
            "-p",
            "--pipeline-size",
            type=int,
            default=None,
            metavar="P",
            help="pipeline stages == nodes (default: 8; 4 with --smoke)",
        )
        g.add_argument(
            "--seq-len",
            type=_seq_len,
            default=None,
            metavar="S",
            help="sequence length, k suffix ok (default: 64k; 32k with --smoke)",
        )
    g.add_argument(
        "--micro-batch",
        type=_positive_int,
        default=1,
        metavar="B",
        help="micro-batch size (default: %(default)s)",
    )
    g.add_argument(
        "-m",
        "--num-micro-batches",
        type=_positive_int,
        default=None,
        metavar="M",
        help="micro-batch budget per iteration (default: 2 x pipeline size"
        + ("; incompatible with a workload grid)" if grid else ")"),
    )


def _workload(args: argparse.Namespace, smoke: bool = False) -> Workload:
    p = args.pipeline_size if args.pipeline_size is not None else (4 if smoke else 8)
    seq = args.seq_len if args.seq_len is not None else (32768 if smoke else 65536)
    return Workload.paper(
        args.model,
        args.gpu,
        p,
        seq,
        micro_batch=args.micro_batch,
        num_micro_batches=args.num_micro_batches,
    )


def _describe_workload(wl: Workload) -> str:
    return (
        f"{wl.model.name} on {wl.cluster.node.gpu.name} x {wl.p}, "
        f"seq {wl.seq_len}, micro-batch {wl.micro_batch}, "
        f"budget {wl.num_micro_batches} micro-batches, "
        f"HBM {wl.cluster.node.gpu.hbm_bytes / _GIB:.0f} GiB"
    )


# -- commands ----------------------------------------------------------------


def _cmd_list(args: argparse.Namespace) -> int:
    rows = []
    for name in available_schedules():
        spec = get_schedule(name)
        rows.append(
            {
                "name": name,
                "family": spec.family or "-",
                "tunable": "yes" if spec.tunable else "no",
                "recompute": spec.default_recompute.value,
                "description": spec.description,
            }
        )
    print(format_table(rows))
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    spec = get_schedule(args.schedule)
    p = args.pipeline_size or 8
    print(f"{spec.name}: {spec.description}")
    print(f"  family:            {spec.family or '-'}")
    print(f"  tunable:           {spec.tunable}")
    print(f"  default recompute: {spec.default_recompute.value}")
    print(
        "  recompute choices: "
        + ", ".join(s.value for s in spec.recompute_choices)
    )
    print(f"  micro-batch divisor (p={p}): {spec.micro_batch_divisor(p)}")
    print("  options:")
    for name, default in sorted(spec.options.items()):
        print(f"    {name} = {default!r}")
    grid = spec.option_grid(p)
    if grid:
        print(f"  tuner option grid (p={p}):")
        for name, values in sorted(grid.items()):
            print(f"    {name} in {list(values)!r}")
    if spec.workload_options:
        print(
            "  workload-derived options: "
            + ", ".join(spec.workload_options)
        )
    return 0


def _resolve_build_kw(args: argparse.Namespace) -> dict[str, Any]:
    kw: dict[str, Any] = dict(args.option or [])
    if args.recompute is not None:
        kw["recompute"] = RecomputeStrategy(args.recompute)
    return kw


def _schedule_workload(args: argparse.Namespace) -> Workload:
    """Workload for build/simulate, budget rounded onto the spec's grid."""
    wl = _workload(args)
    spec = get_schedule(args.schedule)
    if args.num_micro_batches is None:
        # Round the default budget onto the schedule's own grid so
        # `build helix -p 8` works out of the box.  -o overrides can
        # change the divisor (helix fold), so they feed the rounding;
        # when even one round exceeds the default budget, run the
        # minimum feasible count instead of failing.
        opts = {
            k: v for k, v in (args.option or []) if k in spec.options
        }
        rounded = spec.round_micro_batches(wl.num_micro_batches, wl.p, **opts)
        wl.num_micro_batches = rounded or spec.micro_batch_divisor(
            wl.p, **opts
        )
    print(f"workload: {_describe_workload(wl)}")
    return wl


def _cmd_build(args: argparse.Namespace) -> int:
    wl = _schedule_workload(args)
    sched = wl.build(args.schedule, **_resolve_build_kw(args))
    n_instr = sum(len(prog) for prog in sched.programs)
    print(
        f"built {sched.name}: p={sched.num_stages}, "
        f"m={sched.num_micro_batches}, {n_instr} instructions "
        "(verification passes clean)"
    )
    if sched.meta:
        meta = ", ".join(f"{k}={v}" for k, v in sorted(sched.meta.items()))
        print(f"meta: {meta}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    wl = _schedule_workload(args)
    result = run_method(wl, args.schedule, **_resolve_build_kw(args))
    tokens = wl.tokens_per_iteration
    print(f"simulated {result.schedule_name}:")
    print(f"  iteration time: {result.makespan:.3f} s")
    print(f"  throughput:     {tokens / result.makespan:.0f} tokens/s")
    print(f"  peak memory:    {result.max_peak_memory_bytes / _GIB:.1f} GiB")
    print(f"  bubble:         {100.0 * result.bubble_fraction:.1f} %")
    return 0


def _load_cache(path: str | None) -> CostCache:
    """A CostCache attached to the sqlite store at ``path``, if given.

    A missing store (and missing parent directories) is created; a file
    that is not a store is refused and left as it was.
    """
    if not path:
        return CostCache()
    cache = CostCache.open(path)
    assert cache.store is not None  # open() always attaches one
    print(f"cache: attached sqlite store {path} ({len(cache.store)} entries)")
    return cache


def _print_plan_report(
    plans,
    args: argparse.Namespace,
    cache: CostCache,
    *,
    formatter,
    best_summary,
    none_message: str,
    sweep_summary: str,
) -> bool:
    """Shared ranked-table + best-plan + sweep-stats output of ``tune``.

    Filters for display only (``--no-infeasible``/``--top``), so the
    sweep count in ``sweep_summary`` stays honest.  Returns whether any
    feasible plan exists (the command's exit status).
    """
    rows = [r for r in plans if r.feasible] if args.no_infeasible else plans
    shown = rows if args.top is None else rows[: args.top]
    print(formatter(shown))
    dropped = len(rows) - len(shown)
    if dropped > 0:
        print(f"... {dropped} more row(s); raise --top to see them")

    feasible = [r for r in plans if r.feasible]
    if feasible:
        print(f"\nbest plan: {best_summary(feasible[0])}")
    else:
        print(f"\n{none_message}")
    print(
        f"{sweep_summary} "
        f"({cache.stats}, hit rate {cache.stats.hit_rate:.0%})"
    )
    return bool(feasible)


def _list_passes(registry: PassRegistry) -> int:
    """``--list-passes``: one row per registered pass of ``registry``."""
    rows = []
    for name in registry.names():
        p = registry.get(name)
        rows.append(
            {
                "pass": name,
                "category": p.category,
                "requires": ", ".join(p.requires) or "-",
                "description": p.description,
            }
        )
    print(format_table(rows))
    return 0


def _pass_names(args: argparse.Namespace) -> list[str] | None:
    """The ``--passes`` selection, or ``None`` for every registered pass."""
    if not args.passes:
        return None
    return [s.strip() for s in args.passes.split(",") if s.strip()]


def _emit_report(args: argparse.Namespace, text: str, what: str) -> None:
    """Print a lint report and, with ``--out``, also write it to a file
    (a JSON report then goes to the file only)."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"{what} report written to {args.out}")
        if not args.json:
            print(text)
    else:
        print(text)


def _cmd_lint(args: argparse.Namespace) -> int:
    import json as _json

    from repro.lint import lint_schedules
    from repro.schedules.analysis import SCHEDULE_PASSES

    if args.list_passes:
        return _list_passes(SCHEDULE_PASSES)

    schedules = None
    if args.schedules:
        schedules = [s.strip() for s in args.schedules.split(",") if s.strip()]
    report = lint_schedules(
        schedules=schedules,
        pp_sizes=args.pipeline_size or (2, 4),
        num_micro_batches=args.num_micro_batches,
        model=args.model,
        gpu=args.gpu,
        seq_len=args.seq_len if args.seq_len is not None else 8192,
        passes=_pass_names(args),
        strict=args.strict,
    )
    text = (
        _json.dumps(report.to_json_dict(), indent=2)
        if args.json
        else report.format(verbose=args.verbose)
    )
    _emit_report(args, text, "lint")
    return 0 if report.ok else 1


def _cmd_lint_code(args: argparse.Namespace) -> int:
    import json as _json

    from repro.devtools.concurrency import CODE_PASSES, lint_code

    if args.list_passes:
        return _list_passes(CODE_PASSES)

    report, _model = lint_code(args.paths or None, passes=_pass_names(args))
    report.strict = args.strict
    if args.json:
        payload = report.to_json_dict()
        payload["strict"] = args.strict
        text = _json.dumps(payload, indent=2)
    else:
        text = report.format()
    _emit_report(args, text, "code lint")
    return 0 if report.ok else 1


def _cmd_tune(args: argparse.Namespace) -> int:
    pp_sizes = (
        args.pipeline_size
        if args.pipeline_size is not None
        else ((4,) if args.smoke else (8,))
    )
    seq_lens = (
        args.seq_len
        if args.seq_len is not None
        else ((32768,) if args.smoke else (65536,))
    )
    grid_mode = (
        args.budget_tokens is not None or len(pp_sizes) > 1 or len(seq_lens) > 1
    )

    schedules: Sequence[str] | None = None
    if args.schedules:
        schedules = [s.strip() for s in args.schedules.split(",") if s.strip()]
    elif args.smoke:
        schedules = ["1f1b", "helix"]

    cache = _load_cache(args.cache)

    kwargs: dict[str, Any] = {"prune": not args.no_prune}
    if args.no_options or args.smoke:
        kwargs["option_grids"] = {}  # disable the option axis
    cap = (
        args.memory_cap_gib * _GIB
        if args.memory_cap_gib is not None  # 0 is a real (tiny) cap
        else None
    )

    if grid_mode:
        if args.num_micro_batches is not None:
            print(
                "error: -m/--num-micro-batches is incompatible with a "
                "workload grid (the token budget sets the count per point)",
                file=sys.stderr,
            )
            return 1
        grid = WorkloadGrid(
            model=args.model,
            gpu=args.gpu,
            seq_lens=tuple(seq_lens),
            pipeline_sizes=tuple(pp_sizes),
            micro_batch=args.micro_batch,
            budget_tokens=args.budget_tokens,
        )
        print(f"workload grid: {grid.label}")
        t0 = time.perf_counter()
        plans = tune_grid(
            grid,
            cap,
            schedules=schedules,
            cache=cache,
            workers=args.workers,
            **kwargs,
        )
        elapsed = time.perf_counter() - t0
        found = _print_plan_report(
            plans,
            args,
            cache,
            formatter=format_grid_table,
            best_summary=lambda best: (
                f"{best.label} -- {best.plan.iteration_time:.2f} s/iter, "
                f"{best.tokens_per_s:.0f} tokens/s, "
                f"peak {best.plan.peak_memory_bytes / _GIB:.1f} GiB"
            ),
            none_message="no feasible plan across the workload grid",
            sweep_summary=f"swept {len(plans)} candidates over {len(grid)} "
            f"workload points in {elapsed:.2f} s",
        )
    else:
        wl = Workload.paper(
            args.model,
            args.gpu,
            pp_sizes[0],
            seq_lens[0],
            micro_batch=args.micro_batch,
            num_micro_batches=args.num_micro_batches,
        )
        print(f"workload: {_describe_workload(wl)}")
        t0 = time.perf_counter()
        plans = autotune(
            wl,
            cap,
            schedules=schedules,
            cache=cache,
            workers=args.workers,
            **kwargs,
        )
        elapsed = time.perf_counter() - t0
        found = _print_plan_report(
            plans,
            args,
            cache,
            formatter=format_plan_table,
            best_summary=lambda best: (
                f"{best.label} -- {best.iteration_time:.2f} s/iter, "
                f"{best.tokens_per_s:.0f} tokens/s, "
                f"peak {best.peak_memory_bytes / _GIB:.1f} GiB"
            ),
            none_message="no feasible plan under the memory cap",
            sweep_summary=f"swept {len(plans)} candidates in {elapsed:.2f} s",
        )

    if args.cache:
        saved = cache.save()
        print(f"cache: saved {saved} entries to {args.cache}")
    return 0 if found else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from repro.service import PlannerService, create_server

    service = PlannerService(_load_cache(args.cache), workers=args.workers)
    server = create_server(args.host, args.port, service)
    host, port = server.server_address[:2]
    print(f"planner service listening on http://{host}:{port}")
    print(
        "endpoints: GET /v1/healthz /v1/stats /v1/sweeps, "
        "POST /v1/plan /v1/sweep"
    )

    # SIGTERM (systemd stop, docker stop, CI teardown) must go through
    # the same graceful path as Ctrl-C: raising SystemExit unwinds
    # serve_forever via the try/finally below instead of killing the
    # process with daemon sweep threads mid-write.
    def _terminate(signum, frame):
        raise SystemExit(128 + signum)

    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        server.serve_forever()
    except (KeyboardInterrupt, SystemExit):
        print("\nshutting down")
    finally:
        signal.signal(signal.SIGTERM, previous)
        server.server_close()
        # Drains background sweeps, persists the cache and closes the
        # store's sqlite connections.
        saved = service.close()
        if saved is not None:
            print(f"cache: saved {saved} entries to {args.cache}")
    return 0


def _cmd_cache_info(args: argparse.Namespace) -> int:
    import sqlite3

    from repro.tuner import costmodel_fingerprint

    # Inspect the file directly: opening a SqliteCostStore would
    # clear-and-restamp a stale store, and info must be read-only.
    if not os.path.exists(args.path):
        raise FileNotFoundError(
            f"sqlite cost cache store {args.path!r} does not exist"
        )
    conn = sqlite3.connect(args.path)
    try:
        meta = dict(conn.execute("SELECT key, value FROM meta"))
        entries = conn.execute("SELECT COUNT(*) FROM entries").fetchone()[0]
    except sqlite3.DatabaseError as err:
        raise ValueError(
            f"{args.path!r} is not a sqlite cost cache store ({err})"
        ) from None
    finally:
        conn.close()
    stamped = meta.get("costmodel")
    current = costmodel_fingerprint()
    print(f"path:        {args.path}")
    print("backend:     sqlite")
    print(f"entries:     {entries}")
    print(f"costmodel:   {stamped}")
    fresh = stamped == current
    print(f"fingerprint: {'current' if fresh else f'STALE (running {current})'}")
    return 0 if fresh else 1


# -- experiment commands -----------------------------------------------------


def _cmd_experiment_list(args: argparse.Namespace) -> int:
    rows = []
    for name in available_experiments():
        spec = get_experiment(name)
        rows.append(
            {
                "name": name,
                "params": len(spec.params),
                "smoke": "yes" if spec.smoke_params else "-",
                "render": "yes" if spec.renderer is not None else "-",
                "description": spec.description,
            }
        )
    print(format_table(rows))
    return 0


def _cmd_experiment_describe(args: argparse.Namespace) -> int:
    spec = get_experiment(args.experiment)
    print(f"{spec.name}: {spec.description}")
    print("  parameters (paper-protocol defaults):")
    for name, default in spec.params.items():
        print(f"    {name} = {default!r}")
    if spec.smoke_params:
        print("  smoke overrides (--smoke):")
        for name, value in spec.smoke_params.items():
            print(f"    {name} = {value!r}")
    print(f"  renderer: {'yes (--render)' if spec.renderer else 'no'}")
    return 0


def _cmd_experiment_run(args: argparse.Namespace) -> int:
    spec = get_experiment(args.experiment)
    if args.render and spec.renderer is None:
        print(
            f"error: experiment {spec.name!r} has no renderer",
            file=sys.stderr,
        )
        return 1
    if not args.out:
        # Without --out, exactly one stream goes to stdout; mixing two
        # formats (or a rendering after a payload) would corrupt it for
        # any consumer parsing the output.
        if args.json and args.csv:
            print(
                "error: --json and --csv both print to stdout; pick one "
                "or write files with --out DIR",
                file=sys.stderr,
            )
            return 1
        if args.render and (args.json or args.csv):
            print(
                "error: --render would corrupt the --json/--csv stream; "
                "use --out DIR to write the payload to files instead",
                file=sys.stderr,
            )
            return 1
    overrides = dict(args.param or [])

    t0 = time.perf_counter()
    result = spec.run(smoke=args.smoke, **overrides)
    elapsed = time.perf_counter() - t0

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        # Explicit format flags select the artifacts; bare --out writes
        # both, as documented.
        want_json = args.json or not args.csv
        want_csv = args.csv or not args.json
        artifacts = []
        if want_json:
            artifacts.append(("json", result.to_json() + "\n"))
        if want_csv:
            artifacts.append(("csv", result.to_csv()))
        for ext, payload in artifacts:
            path = os.path.join(args.out, f"{spec.name}.{ext}")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(payload)
            print(f"wrote {len(result.rows)} rows to {path}")
    elif args.json:
        print(result.to_json())
    elif args.csv:
        print(result.to_csv(), end="")
    else:
        print(f"experiment {spec.name}: {len(result.rows)} rows in {elapsed:.2f} s")
        print(format_table(result.rows))
    if args.render:
        print(spec.render())
    return 0


def _cmd_experiment_diff(args: argparse.Namespace) -> int:
    keys = None
    if args.key:
        keys = [k.strip() for k in args.key.split(",") if k.strip()]
    report = diff_files(
        args.baseline,
        args.candidate,
        tolerance=Tolerance(atol=args.atol, rtol=args.rtol),
        key_columns=keys,
    )
    print(report.to_json() if args.json else report.format())
    return 0 if report.clean else 1


def _cmd_experiment_verify(args: argparse.Namespace) -> int:
    names = None
    if args.only:
        names = [n.strip() for n in args.only.split(",") if n.strip()]
    if args.golden == DEFAULT_GOLDEN_DIR and not os.path.isdir(
        os.path.dirname(args.golden)
    ):
        # The default dir is repo-relative.  With no tests/ directory
        # here at all this is almost certainly the wrong cwd -- and in
        # update mode, proceeding would create a stray golden tree that
        # silently bypasses the committed baselines.
        print(
            "error: no tests/ directory here; run from the repository "
            "root (the committed baselines live in tests/golden/) or "
            "point --golden at them",
            file=sys.stderr,
        )
        return 1
    if not args.update and not os.path.isdir(args.golden):
        print(
            f"error: golden directory {args.golden!r} does not exist; "
            "generate baselines first with: python -m repro experiment "
            f"verify --smoke --update --golden {args.golden}",
            file=sys.stderr,
        )
        return 1
    outcomes = verify_experiments(
        args.golden,
        names,
        smoke=args.smoke,
        update=args.update,
        tolerance=Tolerance(atol=args.atol, rtol=args.rtol),
    )
    text = format_verify_report(outcomes, args.golden)
    print(text)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"report written to {args.report}")
    return 0 if all(o.ok for o in outcomes) else 1


# -- entry point -------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Schedule registry, simulator and auto-tuner CLI "
        "for the HelixPipe reproduction.",
    )
    parser.add_argument(
        "--debug",
        action="store_true",
        help="let exceptions propagate with a full traceback instead of "
        "the one-line 'error: ...' summary",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list registered schedules")
    p_list.set_defaults(fn=_cmd_list)

    p_desc = sub.add_parser("describe", help="show one schedule spec in full")
    p_desc.add_argument("schedule", help="registered schedule name")
    p_desc.add_argument(
        "-p",
        "--pipeline-size",
        type=int,
        default=None,
        metavar="P",
        help="pipeline size to resolve grids/divisors against (default: 8)",
    )
    p_desc.set_defaults(fn=_cmd_describe)

    for name, fn, help_ in (
        ("build", _cmd_build, "build + verify one schedule for a workload"),
        ("simulate", _cmd_simulate, "build + simulate one schedule"),
    ):
        p_cmd = sub.add_parser(name, help=help_)
        p_cmd.add_argument("schedule", help="registered schedule name")
        _add_workload_args(p_cmd)
        p_cmd.add_argument(
            "--recompute",
            choices=[s.value for s in RecomputeStrategy],
            default=None,
            help="recompute strategy (default: the spec's own)",
        )
        p_cmd.add_argument(
            "-o",
            "--option",
            type=_option,
            action="append",
            metavar="NAME=VALUE",
            help="schedule option override (repeatable)",
        )
        p_cmd.set_defaults(fn=fn)

    p_lint = sub.add_parser(
        "lint",
        help="static analysis over registered schedules (no simulation)",
    )
    p_lint.add_argument(
        "--schedules",
        default=None,
        metavar="A,B,...",
        help="comma-separated schedule names (default: every registered one)",
    )
    p_lint.add_argument(
        "-p",
        "--pipeline-size",
        "--pipeline-sizes",
        type=_int_list,
        default=None,
        metavar="P[,P...]",
        help="pipeline size(s) to lint at (default: 2,4)",
    )
    p_lint.add_argument(
        "-m",
        "--num-micro-batches",
        type=int,
        default=None,
        metavar="M",
        help="micro-batch count (default: 2p rounded onto each "
        "schedule's divisor grid)",
    )
    p_lint.add_argument(
        "--model",
        choices=sorted(MODEL_PRESETS),
        default="1.3B",
        help="model preset for costs/memory context (default: %(default)s)",
    )
    p_lint.add_argument(
        "--gpu",
        choices=sorted(GPU_CLUSTERS),
        default="H20",
        help="GPU/cluster preset (default: %(default)s)",
    )
    p_lint.add_argument(
        "--seq-len",
        type=_seq_len,
        default=None,
        metavar="S",
        help="sequence length, k suffix ok (default: 8k)",
    )
    p_lint.add_argument(
        "--verbose",
        action="store_true",
        help="show warning/info findings in the table, not just errors",
    )
    _add_lint_args(p_lint, "analysis")
    p_lint.set_defaults(fn=_cmd_lint)

    p_lint_code = sub.add_parser(
        "lint-code",
        help="concurrency lint over the repo's own threaded sources",
    )
    p_lint_code.add_argument(
        "--paths",
        nargs="+",
        default=None,
        metavar="PATH",
        help="files/directories to sweep (default: src/repro/service "
        "and src/repro/tuner)",
    )
    _add_lint_args(p_lint_code, "code")
    p_lint_code.set_defaults(fn=_cmd_lint_code)

    p_tune = sub.add_parser(
        "tune",
        help="auto-tune the schedule for a workload (or a workload grid)",
    )
    _add_workload_args(p_tune, grid=True)
    p_tune.add_argument(
        "--schedules",
        default=None,
        metavar="A,B,...",
        help="comma-separated schedule names (default: every tunable one)",
    )
    p_tune.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="evaluate cold candidates in a process pool of N workers",
    )
    p_tune.add_argument(
        "--cache",
        default=None,
        metavar="PATH",
        help="persistent sqlite cost cache store, created when missing; "
        "every evaluation is written through",
    )
    p_tune.add_argument(
        "--memory-cap-gib",
        type=_memory_cap_gib,
        default=None,
        metavar="G",
        help="per-GPU memory cap in GiB (default: the GPU's HBM size)",
    )
    p_tune.add_argument(
        "--top",
        type=_positive_int,
        default=None,
        metavar="K",
        help="show only the first K rows of the ranked table",
    )
    p_tune.add_argument(
        "--no-options",
        action="store_true",
        help="skip the schedule-option grid axis",
    )
    p_tune.add_argument(
        "--no-infeasible",
        action="store_true",
        help="drop infeasible candidates from the table",
    )
    p_tune.add_argument(
        "--no-prune",
        action="store_true",
        help="exhaustive sweep: disable the admissible lower-bound "
        "pruning of provably-losing candidates",
    )
    p_tune.add_argument(
        "--smoke",
        action="store_true",
        help="seconds-fast CI sweep: p=4 / 32k defaults, 1f1b + helix, "
        "no option axis",
    )
    p_tune.set_defaults(fn=_cmd_tune)

    p_serve = sub.add_parser(
        "serve",
        help="run the HTTP planner service over a shared cost cache",
    )
    p_serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default: %(default)s)",
    )
    p_serve.add_argument(
        "--port",
        type=int,
        default=8642,
        metavar="N",
        help="bind port; 0 picks a free one (default: %(default)s)",
    )
    p_serve.add_argument(
        "--cache",
        default=None,
        metavar="PATH",
        help="shared sqlite cost cache store, created when missing",
    )
    p_serve.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="evaluate cold candidates in a process pool of N workers",
    )
    p_serve.set_defaults(fn=_cmd_serve)

    p_cache = sub.add_parser("cache", help="cost cache store utilities (info)")
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)

    pc_info = cache_sub.add_parser(
        "info",
        help="show a store's backend, entry count and fingerprint "
        "freshness (exit 1 when stale)",
    )
    pc_info.add_argument("path", help="cost cache store path")
    pc_info.set_defaults(fn=_cmd_cache_info)

    p_exp = sub.add_parser(
        "experiment", help="run the registered paper experiments"
    )
    exp_sub = p_exp.add_subparsers(dest="exp_command", required=True)

    pe_list = exp_sub.add_parser("list", help="list registered experiments")
    pe_list.set_defaults(fn=_cmd_experiment_list)

    pe_desc = exp_sub.add_parser(
        "describe", help="show one experiment's parameter schema"
    )
    pe_desc.add_argument("experiment", help="registered experiment name")
    pe_desc.set_defaults(fn=_cmd_experiment_describe)

    pe_run = exp_sub.add_parser(
        "run", help="run one experiment and print/serialise its rows"
    )
    pe_run.add_argument("experiment", help="registered experiment name")
    pe_run.add_argument(
        "--smoke",
        action="store_true",
        help="apply the spec's fast (CI) parameter overrides",
    )
    pe_run.add_argument(
        "-P",
        "--param",
        type=_option,
        action="append",
        metavar="NAME=VALUE",
        help="parameter override with a Python literal value (repeatable)",
    )
    pe_run.add_argument(
        "--json",
        action="store_true",
        help="emit JSON (params + rows) instead of an aligned table "
        "(with --out: write only the .json artifact)",
    )
    pe_run.add_argument(
        "--csv",
        action="store_true",
        help="emit CSV rows instead of an aligned table "
        "(with --out: write only the .csv artifact)",
    )
    pe_run.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="write <experiment>.json and .csv artifact files into DIR "
        "(created if missing) instead of printing; --json/--csv "
        "restrict which of the two are written",
    )
    pe_run.add_argument(
        "--render",
        action="store_true",
        help="also print the experiment's ASCII rendering, if it has one",
    )
    pe_run.set_defaults(fn=_cmd_experiment_run)

    default_tol = Tolerance()  # the library defaults, single-sourced

    def add_tolerance_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--atol",
            type=float,
            default=default_tol.atol,
            metavar="F",
            help="absolute tolerance for numeric cells (default: %(default)s)",
        )
        p.add_argument(
            "--rtol",
            type=float,
            default=default_tol.rtol,
            metavar="F",
            help="relative tolerance for numeric cells, vs the baseline "
            "(default: %(default)s)",
        )

    pe_diff = exp_sub.add_parser(
        "diff",
        help="compare two experiment artifacts with per-row deltas",
    )
    pe_diff.add_argument("baseline", help="baseline artifact (.json)")
    pe_diff.add_argument("candidate", help="candidate artifact (.json)")
    add_tolerance_args(pe_diff)
    pe_diff.add_argument(
        "--key",
        default=None,
        metavar="A,B,...",
        help="row-matching key columns (default: inferred -- every "
        "non-float column)",
    )
    pe_diff.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable DiffReport instead of the table",
    )
    pe_diff.set_defaults(fn=_cmd_experiment_diff)

    pe_verify = exp_sub.add_parser(
        "verify",
        help="run every registered experiment against its golden baseline",
    )
    pe_verify.add_argument(
        "--smoke",
        action="store_true",
        help="run the specs' fast (CI) parameter sets -- the mode the "
        "committed goldens were generated with",
    )
    pe_verify.add_argument(
        "--update",
        action="store_true",
        help="regenerate the golden artifacts instead of comparing "
        "(the reviewed workflow for intentional cost-model changes)",
    )
    pe_verify.add_argument(
        "--golden",
        default=DEFAULT_GOLDEN_DIR,
        metavar="DIR",
        help="golden artifact directory (default: %(default)s)",
    )
    pe_verify.add_argument(
        "--only",
        default=None,
        metavar="A,B,...",
        help="verify only these experiments (default: every registered one)",
    )
    add_tolerance_args(pe_verify)
    pe_verify.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="also write the rendered report to PATH (CI uploads it on "
        "failure)",
    )
    pe_verify.set_defaults(fn=_cmd_experiment_verify)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.debug:
        return args.fn(args)
    try:
        return args.fn(args)
    # TypeError included: a mistyped -o value (e.g. max_outstanding=none,
    # which parses as the string 'none') surfaces from deep inside a
    # builder and should exit cleanly, not with a traceback.
    except (ScheduleBuildError, KeyError, ValueError, TypeError, OSError) as err:
        # str(KeyError) is the repr of its argument -- unwrap so the
        # registry's "unknown schedule ..." message prints unquoted.
        msg = err.args[0] if isinstance(err, KeyError) and err.args else err
        print(f"error: {msg}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
