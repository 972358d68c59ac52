"""What a planning request is: its fields, their rules and defaults.

``repro tune``, ``POST /v1/plan`` and ``POST /v1/sweep`` ask the paper's
Section 3.1 question (which sequence length, pipeline size and schedule
a token budget should run) in the same fields, and only this module
knows them.  The service hands it a JSON body; the CLI maps its flags
onto the same field names, reading a flag's text with
:func:`parse_text`.  So every front end refuses an input with the same
message: a :class:`ValueError`, which the service answers with a 400 and
``tune`` prints as ``error:`` (exit 1), or as a usage error (exit 2) for
a malformed flag.

- A field left out takes its default from :data:`_FIELDS`, one table
  for every front end; a field whose default is None may also be null.
- Counts are JSON integers; a sequence length or a token budget may also
  be a string with a binary k/M/G suffix (``64k`` == 65536).
- A list is non-empty and names no entry twice, compared after parsing
  (``["32k", 32768]`` repeats).  A name list may be one string of
  comma-separated names.
- A plan whose workload is above a cap of :mod:`repro.workloads` is
  refused by :meth:`PlanQuery.workload`.  A sweep keeps a grid point
  above a cap as an infeasible row, but a grid with no feasible point
  is refused with its first point's reason.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields
from typing import Any, Callable, Mapping

from repro.model.config import MODEL_PRESETS
from repro.schedules.registry import available_schedules
from repro.workloads import GPU_CLUSTERS, Workload, WorkloadGrid

__all__ = [
    "PLAN_FIELDS", "SWEEP_FIELDS", "TUNE_GRID_FIELDS", "PlanQuery", "SweepQuery",
    "parse_names", "parse_plan_request", "parse_sweep_request", "parse_text",
]

_GIB = float(1 << 30)

_SUFFIX = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30, "b": 1 << 30}


def _is_positive_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value > 0


def _positive_int(value: Any, name: str) -> int:
    if _is_positive_int(value):
        return value
    raise ValueError(f"{name!r} must be a positive integer, got {value!r}")


def _tokens(value: Any, name: str) -> int:
    """A token count: a positive integer, or a string with a k/M/G suffix."""
    count = value
    if isinstance(value, str):
        raw, scale = value.strip(), 1
        if raw[-1:].lower() in _SUFFIX:
            raw, scale = raw[:-1], _SUFFIX[raw[-1:].lower()]
        try:
            count = int(raw) * scale
        except ValueError:
            pass
    if _is_positive_int(count):
        return count
    raise ValueError(
        f"{name!r} must be a positive integer or a k/M/G-suffixed string "
        f"(e.g. '64k' or '4M'), got {value!r}"
    )


def _once(items: tuple, name: str) -> tuple:
    """``items``, refused when one of them repeats."""
    seen: set = set()
    for item in items:
        if item in seen:
            raise ValueError(f"{name!r} lists {item!r} twice")
        seen.add(item)
    return items


def _list(item: Callable[[Any, str], Any]) -> Callable[[Any, str], tuple]:
    """The rule of a list field whose entries each follow ``item``."""

    def rule(value: Any, name: str) -> tuple:
        if not isinstance(value, (list, tuple)) or not value:
            raise ValueError(f"{name!r} must be a non-empty list, got {value!r}")
        return _once(tuple(item(v, f"{name}[{i}]") for i, v in enumerate(value)), name)

    return rule


def _split(text: str) -> list[str]:
    return [s.strip() for s in text.split(",") if s.strip()]


def parse_names(value: Any, name: str) -> tuple[str, ...]:
    """A non-empty list of names, none twice, or one string of them
    separated by commas.  ``--schedules`` and ``--passes`` take this rule
    before their registry refuses an unknown name."""
    names = _split(value) if isinstance(value, str) else value
    if (
        not isinstance(names, (list, tuple))
        or not names
        or not all(isinstance(s, str) for s in names)
    ):
        raise ValueError(f"{name!r} must be a non-empty list of names, got {value!r}")
    return _once(tuple(names), name)


def _schedules(value: Any, name: str) -> tuple[str, ...]:
    names = parse_names(value, name)
    registered = available_schedules()
    unknown = sorted(set(names) - set(registered))
    if unknown:
        raise ValueError(f"unknown schedule(s) {unknown}; registered: {registered}")
    return names


def _preset(table: Mapping[str, Any], what: str) -> Callable[[Any, str], str]:
    def rule(value: Any, name: str) -> str:
        if isinstance(value, str) and value in table:
            return value
        raise ValueError(f"unknown {what} preset {value!r}; available: {sorted(table)}")

    return rule


def _memory_cap_gib(value: Any, name: str) -> float:
    # The cap in bytes (cap * 2**30) must be a finite float too; the
    # comparison also holds for an int too large to convert to float.
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if number and 0 <= value <= sys.float_info.max / _GIB:
        return float(value)
    raise ValueError(
        f"{name!r} must be a non-negative number whose value in bytes is "
        f"finite, got {value!r}"
    )


def _flag(value: Any, name: str) -> bool:
    if isinstance(value, bool):
        return value
    raise ValueError(f"{name!r} must be a boolean, got {value!r}")


#: Every request field: (rule, default).  A rule takes the value and the
#: field's name and returns the parsed value or raises ValueError.  The
#: order is the order in which a request's fields are checked.
_FIELDS: dict[str, tuple[Callable[[Any, str], Any], Any]] = {
    "model": (_preset(MODEL_PRESETS, "model"), "7B"),
    "gpu": (_preset(GPU_CLUSTERS, "GPU"), "H20"),
    "p": (_positive_int, 8),
    "pipeline_sizes": (_list(_positive_int), (8,)),
    "seq_len": (_tokens, 65536),
    "seq_lens": (_list(_tokens), (65536,)),
    "micro_batch": (_positive_int, 1),
    "num_micro_batches": (_positive_int, None),
    "budget_tokens": (_tokens, None),
    "schedules": (_schedules, None),
    "memory_cap_gib": (_memory_cap_gib, None),
    "options": (_flag, True),
    "prune": (_flag, True),
    "top": (_positive_int, None),
}

#: The sweep fields that name the :class:`WorkloadGrid`.
_GRID_FIELDS = tuple(f.name for f in fields(WorkloadGrid))
#: Fields a ``POST /v1/sweep`` body may carry.
SWEEP_FIELDS = frozenset({*_GRID_FIELDS, "schedules", "options"})
#: Fields of ``tune``'s workload grid: a sweep's, and the plan's memory
#: cap and pruning switch.
TUNE_GRID_FIELDS = SWEEP_FIELDS | {"memory_cap_gib", "prune"}


def _parse(
    payload: Mapping[str, Any], allowed: frozenset[str], what: str
) -> dict[str, Any]:
    """Every field in ``allowed``, parsed from ``payload`` or defaulted."""
    if not isinstance(payload, Mapping):
        raise ValueError(f"{what} request body must be a JSON object")
    unknown = sorted(set(payload) - allowed)
    if unknown:
        raise ValueError(
            f"unknown {what} request field(s) {unknown}; allowed: {sorted(allowed)}"
        )
    parsed: dict[str, Any] = {}
    for name, (rule, default) in _FIELDS.items():
        if name in allowed:
            value = payload.get(name, default)
            if value is not None or default is not None:
                value = rule(value, name)
            parsed[name] = value
    return parsed


def _number(text: str) -> Any:
    """``text`` as an int or a float where it reads as one, else unchanged."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def parse_text(name: str, text: str) -> Any:
    """Request field ``name`` given as command-line text.

    The text is read as the value a request body would carry: a number
    where it reads as one, and for ``seq_lens`` and ``pipeline_sizes`` a
    comma-separated list (``-p 4,8`` is ``"pipeline_sizes": [4, 8]``).
    The field's rule then decides, so a flag is refused where the same
    value in a body is, with the same message.
    """
    if name in ("seq_lens", "pipeline_sizes"):
        value: Any = [_number(s) for s in _split(text)]
    else:
        value = _number(text)
    rule, _ = _FIELDS[name]
    return rule(value, name)


@dataclass(frozen=True)
class PlanQuery:
    """One normalized plan request.

    ``top`` shapes the response only (how many ranked rows to return);
    it is excluded from :meth:`dedup_key`, so requests differing only in
    ``top`` coalesce onto the same evaluation.
    """

    model: str
    gpu: str
    p: int
    seq_len: int
    micro_batch: int = 1
    num_micro_batches: int | None = None
    schedules: tuple[str, ...] | None = None
    memory_cap_gib: float | None = None
    options: bool = True
    prune: bool = True
    top: int | None = None

    def workload(self) -> Workload:
        return Workload.paper(
            self.model,
            self.gpu,
            self.p,
            self.seq_len,
            micro_batch=self.micro_batch,
            num_micro_batches=self.num_micro_batches,
        )

    def memory_cap_bytes(self, workload: Workload) -> float:
        if self.memory_cap_gib is not None:
            return float(self.memory_cap_gib) * _GIB
        return float(workload.cluster.node.gpu.hbm_bytes)

    def dedup_key(self, workload: Workload) -> tuple:
        """The evaluation this query asks for, from its normalized fields.

        ``workload`` is :meth:`workload`'s result; it supplies the
        resolved micro-batch budget, so an omitted budget and an
        explicit ``2p`` coalesce while different budgets never do.  The
        preset names identify model and cluster, so the plan computes
        ``workload_cache_key`` only once, inside ``autotune``.
        """
        return (
            self.model,
            self.gpu,
            self.p,
            self.seq_len,
            self.micro_batch,
            workload.num_micro_batches,
            self.memory_cap_bytes(workload),
            self.schedules,
            self.options,
            self.prune,
        )


#: Fields a ``POST /v1/plan`` body may carry.
PLAN_FIELDS = frozenset(f.name for f in fields(PlanQuery))


@dataclass(frozen=True)
class SweepQuery:
    """One normalized sweep request: a workload grid and how to sweep it.

    ``memory_cap_gib`` and ``prune`` come only from ``tune``, whose grid
    takes :data:`TUNE_GRID_FIELDS`; a ``POST /v1/sweep`` body cannot
    carry them.
    """

    grid: WorkloadGrid
    schedules: tuple[str, ...] | None = None
    memory_cap_gib: float | None = None
    options: bool = True
    prune: bool = True

    def memory_cap_bytes(self) -> float | None:
        """The cap in bytes, or None for each point's GPU HBM size."""
        return None if self.memory_cap_gib is None else self.memory_cap_gib * _GIB


def parse_plan_request(payload: Mapping[str, Any]) -> PlanQuery:
    """Validate a ``POST /v1/plan`` body into a :class:`PlanQuery`.

    Raises :class:`ValueError` with a pointed message on unknown fields,
    unknown presets or malformed values -- the HTTP layer maps those to
    400 responses verbatim.
    """
    return PlanQuery(**_parse(payload, PLAN_FIELDS, "plan"))


def parse_sweep_request(
    payload: Mapping[str, Any], allowed: frozenset[str] = SWEEP_FIELDS
) -> SweepQuery:
    """Validate a ``POST /v1/sweep`` body into a :class:`SweepQuery`.

    Raises :class:`ValueError` as :func:`parse_plan_request` does, and
    also when no point of the grid can run; the message is then the
    first point's reason.  ``allowed`` is the set of fields the front end
    takes (``tune`` passes :data:`TUNE_GRID_FIELDS`).
    """
    parsed = _parse(payload, allowed, "sweep")
    grid = WorkloadGrid(**{name: parsed.pop(name) for name in _GRID_FIELDS})
    # A point runs when both its sequence length and its pipeline size
    # can, so each axis is checked once: a body of 1 MiB can name about
    # 10**9 points.
    if not (
        any(grid.seq_len_reason(s) is None for s in grid.seq_lens)
        and any(grid.pipeline_size_reason(p) is None for p in grid.pipeline_sizes)
    ):
        raise ValueError(next(grid.iter_points()).reason)
    return SweepQuery(grid, **parsed)
