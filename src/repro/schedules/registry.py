"""Unified schedule registry.

Every pipeline schedule the repository can build is described by a
:class:`ScheduleSpec` -- its name, option schema, micro-batch
divisibility constraint and default recomputation strategy -- and built
through one uniform entry point:

>>> from repro.schedules.registry import get_schedule
>>> spec = get_schedule("helix")
>>> sched = spec.build((4, 8), costs)          # (num_stages, micro_batches)

``workload_like`` is anything that can say how many stages and micro
batches to schedule: a ``(p, m)`` tuple, an
:class:`~repro.workloads.Workload`, or any object exposing
``num_stages``/``p`` and ``num_micro_batches``.  Builders register
themselves with the :func:`register_schedule` decorator; the registry
imports the built-in builder modules lazily on first lookup, so import
order never matters.

Every registry build runs :meth:`Schedule.validate` (the executability
passes of :mod:`repro.schedules.passes`); builder failures (infeasible
plans, divisibility violations, unsolvable MILPs) surface uniformly as
:class:`ScheduleBuildError` with the reason preserved, which is what the
auto-tuner reports as a candidate's infeasibility.
"""

from __future__ import annotations

import dataclasses
import importlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.costmodel.memory import RecomputeStrategy
from repro.schedules.costs import CostProvider
from repro.schedules.ir import Schedule

if TYPE_CHECKING:
    from repro.workloads import Workload

__all__ = [
    "ScheduleBuildError",
    "ScheduleSpec",
    "register_schedule",
    "get_schedule",
    "available_schedules",
    "build_schedule",
    "as_shape",
    "workload_option_defaults",
    "stable_value_key",
    "workload_cache_key",
]


class ScheduleBuildError(ValueError):
    """A registered builder could not produce a schedule.

    Carries the schedule name and a human-readable ``reason`` so sweeps
    (the auto-tuner, the planner example) can report *why* a candidate
    is infeasible instead of crashing.
    """

    def __init__(self, schedule: str, reason: str) -> None:
        self.schedule = schedule
        self.reason = reason
        super().__init__(f"{schedule}: {reason}")


def as_shape(workload_like: Any) -> tuple[int, int]:
    """Coerce ``workload_like`` to a ``(num_stages, num_micro_batches)`` pair."""
    if isinstance(workload_like, tuple):
        if len(workload_like) != 2:
            raise TypeError(
                f"expected a (num_stages, num_micro_batches) pair, "
                f"got {workload_like!r}"
            )
        p, m = workload_like
        return int(p), int(m)
    for attr in ("num_stages", "p"):
        p = getattr(workload_like, attr, None)
        if p is not None:
            break
    m = getattr(workload_like, "num_micro_batches", None)
    if p is None or m is None:
        raise TypeError(
            "workload_like must be a (p, m) tuple or expose "
            f"num_stages/p and num_micro_batches; got {type(workload_like).__name__}"
        )
    return int(p), int(m)


def _divisor_one(num_stages: int, options: Mapping[str, Any]) -> int:
    return 1


@dataclass(frozen=True)
class ScheduleSpec:
    """Description of one registered schedule.

    Parameters
    ----------
    name:
        Registry key (also the default reporting name).
    builder:
        ``builder(num_stages, num_micro_batches, costs, **options)``.
    description:
        One-line summary for listings.
    family:
        Coarse grouping ("layerwise", "interleaved", "helix").
    options:
        Option schema: every overridable keyword with its default.
        Unknown option names are rejected at build time.
    default_recompute:
        The :class:`RecomputeStrategy` the schedule is designed around;
        workload-level helpers use it to derive the cost provider when
        the caller does not pick one explicitly.
    recompute_choices:
        Strategies the auto-tuner may sweep for this schedule.  Defaults
        to all of them; schedules that adapt recomputation internally
        (AdaPipe) or model only some strategies faithfully (HelixPipe
        never recomputes attention) restrict the sweep here.
    divisor_fn:
        ``divisor_fn(num_stages, options) -> int``: the micro-batch
        granularity the schedule is designed to run at (HelixPipe's loop
        size ``fold * p``, one round of ``p`` for layer-wise pipelines).
        Planning sweeps round candidate micro-batch counts down to a
        multiple of this; builders with a hard requirement additionally
        raise on violation.
    workload_options:
        Options a workload can supply from its own context when the
        caller leaves them unset (e.g. ``memory_cap_bytes`` from the
        cluster's HBM size for AdaPipe).
    tune_options:
        Option values the auto-tuner sweeps as a third grid axis, keyed
        by option name (which must appear in ``options``).  Each value
        is either a sequence of candidate values or a callable
        ``num_stages -> sequence`` for grids that depend on the pipeline
        size (ZB1P's ``max_outstanding``).  Resolved through
        :meth:`option_grid`.
    tunable:
        Whether :func:`repro.tuner.autotune` includes this spec in its
        default sweep.  Pure aliases of another (spec, strategy) pair
        opt out to avoid duplicate candidates.
    """

    name: str
    builder: Callable[..., Schedule]
    description: str = ""
    family: str = ""
    options: Mapping[str, Any] = field(default_factory=dict)
    default_recompute: RecomputeStrategy = RecomputeStrategy.NONE
    recompute_choices: tuple[RecomputeStrategy, ...] = tuple(RecomputeStrategy)
    divisor_fn: Callable[[int, Mapping[str, Any]], int] = _divisor_one
    workload_options: tuple[str, ...] = ()
    tune_options: Mapping[str, Any] = field(default_factory=dict)
    tunable: bool = True

    def __post_init__(self) -> None:
        unknown = sorted(set(self.tune_options) - set(self.options))
        if unknown:
            raise ValueError(
                f"{self.name}: tune_options {unknown} not in the option "
                f"schema {sorted(self.options)}"
            )

    def option_grid(self, num_stages: int) -> dict[str, tuple[Any, ...]]:
        """Tunable option values for a pipeline of ``num_stages`` stages.

        Callable grid entries are resolved against ``num_stages``; the
        result maps option name -> tuple of candidate values (always
        containing the schema default so the sweep includes the
        spec's own configuration).
        """
        out: dict[str, tuple[Any, ...]] = {}
        for name, values in self.tune_options.items():
            resolved = tuple(values(num_stages) if callable(values) else values)
            default = self.options[name]
            if default not in resolved:
                resolved = (default,) + resolved
            out[name] = resolved
        return out

    # -- constraints ---------------------------------------------------------

    def micro_batch_divisor(self, num_stages: int, **options: Any) -> int:
        """Micro-batch granularity for ``num_stages`` under ``options``."""
        merged = {**self.options, **options}
        return max(1, self.divisor_fn(num_stages, merged))

    def round_micro_batches(self, m: int, num_stages: int, **options: Any) -> int:
        """Largest feasible micro-batch count ``<= m`` (0 if none)."""
        d = self.micro_batch_divisor(num_stages, **options)
        return (int(m) // d) * d

    # -- building ------------------------------------------------------------

    def build(
        self,
        workload_like: Any,
        costs: CostProvider,
        *,
        verify: bool = True,
        **options: Any,
    ) -> Schedule:
        """Build the schedule for a workload shape with a cost provider.

        Unknown options are rejected against the spec's schema, builder
        errors are re-raised as :class:`ScheduleBuildError`, and the
        result is checked with :meth:`Schedule.validate` unless
        ``verify=False``.
        """
        p, m = as_shape(workload_like)
        unknown = sorted(set(options) - set(self.options))
        if unknown:
            raise ScheduleBuildError(
                self.name,
                f"unknown option(s) {unknown}; schema: {sorted(self.options)}",
            )
        merged = {**self.options, **options}
        try:
            sched = self.builder(p, m, costs, **merged)
        except ScheduleBuildError:
            # Already carries a schedule name and reason (a nested
            # registry build, or a builder raising it directly); wrapping
            # again would double the prefix: "name: name: reason".
            raise
        except (ValueError, RuntimeError) as err:
            raise ScheduleBuildError(self.name, str(err)) from err
        if verify:
            sched.validate()
        return sched


_REGISTRY: dict[str, ScheduleSpec] = {}

#: Modules whose import registers the built-in schedules.  Imported
#: lazily on first lookup so that ``repro.schedules.registry`` has no
#: import-time dependency on the builders (which themselves import this
#: module to self-register).
_BUILTIN_MODULES = (
    "repro.schedules.gpipe",
    "repro.schedules.one_f_one_b",
    "repro.schedules.interleaved",
    "repro.schedules.zb1p",
    "repro.schedules.zb_milp",
    "repro.schedules.adapipe",
    "repro.core.filo",
)
_builtin_loaded = False


def _ensure_builtin() -> None:
    global _builtin_loaded
    if _builtin_loaded:
        return
    for mod in _BUILTIN_MODULES:
        importlib.import_module(mod)
    # Set only after every import succeeded: a failed builder module
    # must fail again (loudly) on the next lookup, not leave a silently
    # partial registry.  Re-imports of the successful modules are no-ops.
    _builtin_loaded = True


def register_schedule(
    name: str,
    *,
    description: str = "",
    family: str = "",
    options: Mapping[str, Any] | None = None,
    default_recompute: RecomputeStrategy = RecomputeStrategy.NONE,
    recompute_choices: tuple[RecomputeStrategy, ...] | None = None,
    divisor: Callable[[int, Mapping[str, Any]], int] | None = None,
    workload_options: tuple[str, ...] = (),
    tune_options: Mapping[str, Any] | None = None,
    tunable: bool = True,
) -> Callable[[Callable[..., Schedule]], Callable[..., Schedule]]:
    """Decorator registering a builder under ``name``.

    The decorated function keeps its original signature and is returned
    unchanged, so a builder can be registered several times with
    different bound options (HelixPipe's fold-1 / fold-2 variants).
    A builder from outside ``_BUILTIN_MODULES`` loads the built-ins
    first, so taking a built-in name fails here instead of on every
    later lookup; the built-ins' own registrations do not, so loading
    never re-enters itself.
    """

    def deco(fn: Callable[..., Schedule]) -> Callable[..., Schedule]:
        if fn.__module__ not in _BUILTIN_MODULES:
            _ensure_builtin()
        if name in _REGISTRY:
            raise ValueError(f"schedule {name!r} already registered")
        _REGISTRY[name] = ScheduleSpec(
            name=name,
            builder=fn,
            description=description,
            family=family,
            options=dict(options or {}),
            default_recompute=default_recompute,
            recompute_choices=(
                tuple(RecomputeStrategy)
                if recompute_choices is None
                else tuple(recompute_choices)
            ),
            divisor_fn=divisor or _divisor_one,
            workload_options=tuple(workload_options),
            tune_options=dict(tune_options or {}),
            tunable=tunable,
        )
        return fn

    return deco


def get_schedule(name: str) -> ScheduleSpec:
    """Look up a registered schedule by name."""
    _ensure_builtin()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown schedule {name!r}; registered: {available_schedules()}"
        ) from None


def available_schedules() -> list[str]:
    """Sorted names of every registered schedule."""
    _ensure_builtin()
    return sorted(_REGISTRY)


def build_schedule(
    name: str, workload_like: Any, costs: CostProvider, **options: Any
) -> Schedule:
    """One-shot convenience: ``get_schedule(name).build(...)``."""
    return get_schedule(name).build(workload_like, costs, **options)


def workload_option_defaults(
    spec: ScheduleSpec, workload: Any, memory_cap_bytes: float | None = None
) -> dict[str, Any]:
    """Resolve a spec's ``workload_options`` from a workload's context.

    The single source of truth for how workload-derived option names map
    to workload attributes, shared by :class:`repro.workloads.Workload`
    and the auto-tuner so the two can never diverge.  ``workload`` is
    duck-typed: it needs ``cluster`` (for the HBM cap fallback) and
    ``static_memory()``.
    """
    out: dict[str, Any] = {}
    for name in spec.workload_options:
        if name == "memory_cap_bytes":
            out[name] = (
                memory_cap_bytes
                if memory_cap_bytes is not None
                else workload.cluster.node.gpu.hbm_bytes
            )
        elif name == "static_memory_bytes":
            out[name] = workload.static_memory()
        else:  # pragma: no cover - future option names fail loudly
            raise KeyError(
                f"{spec.name}: no workload resolver for option {name!r}"
            )
    return out


# -- canonical workload identity ---------------------------------------------


def stable_value_key(obj: Any) -> Any:
    """A process-stable, hashable, JSON-friendly identity for ``obj``.

    Primitives key as themselves; dataclasses key on their type name
    plus recursively-keyed field values, so two instances with equal
    fields share a key across processes and interpreter restarts.
    Anything else raises :class:`TypeError`: its identity could differ
    per process and poison a shared or persisted cache with keys that
    never hit.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (type(obj).__qualname__,) + tuple(
            (f.name, stable_value_key(getattr(obj, f.name)))
            for f in dataclasses.fields(obj)
        )
    raise TypeError(
        f"cannot derive a stable cache key for {type(obj).__qualname__}: "
        "only primitives and dataclasses of them key stably across processes"
    )


def workload_cache_key(workload: Workload) -> tuple:
    """Canonical cache identity of a workload's shape and hardware.

    The single source of truth for how the tuner and the persistent
    cost cache identify a workload: equal keys mean the same model x
    cluster x sequence length x micro-batch size, regardless of which
    process computed them, because every process that shares a sqlite
    store must compute the same keys.
    """
    return (
        stable_value_key(workload.model),
        stable_value_key(workload.cluster),
        int(workload.seq_len),
        int(workload.micro_batch),
    )
