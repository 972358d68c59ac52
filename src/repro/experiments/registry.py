"""Experiment registry: every paper figure/table as a registered spec.

The reproduction's evidence is a battery of figures and tables, each
previously a hand-rolled module with its own driving code.  This module
gives them one uniform shape -- :class:`ExperimentSpec` -- and one entry
point, mirroring :mod:`repro.schedules.registry` for schedules:

>>> from repro.experiments.registry import get_experiment
>>> result = get_experiment("fig8_throughput").run(smoke=True)
>>> result.rows[0]["method"]
'1f1b'

A spec carries the experiment's name, description, parameter schema
(introspected from the runner's keyword defaults) and a ``smoke``
override set -- the seconds-fast configuration CI and the parity tests
drive.  Running a spec returns an :class:`ExperimentResult`: the
resolved parameters plus structured rows (list of flat dicts, one per
figure data point) that serialise losslessly to JSON and CSV -- the
figure suite as a programmable subsystem instead of a pile of scripts.

Serialisation is *canonical*: rows and parameter keys order
deterministically, floats are rounded to 12 significant digits (enough
for every figure, few enough to absorb accumulation-order jitter in the
last bits) and the artifact header embeds the cost-model source
fingerprint (:func:`repro.tuner.cache.costmodel_fingerprint`) the run
was computed under.  Two runs of the same spec on the same code produce
byte-identical artifacts, which is what makes golden-baseline diffing
(:mod:`repro.experiments.diffing`) byte-stable.

Experiment modules self-register with :func:`register_experiment` on
their ``run`` function (and optionally :func:`attach_renderer` on an
ASCII renderer); the registry imports the built-in modules lazily on
first lookup so import order never matters.
"""

from __future__ import annotations

import csv
import dataclasses
import importlib
import inspect
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

__all__ = [
    "ExperimentResult",
    "ExperimentSpec",
    "canonical_cell",
    "register_experiment",
    "attach_renderer",
    "get_experiment",
    "available_experiments",
    "run_experiment",
]


def _sort_token(row: Mapping[str, Any], col: str) -> tuple:
    """Total-order token for one cell in the canonical row sort.

    Distinct leading tags keep mixed cell kinds comparable and keep a
    missing cell from sorting equal to an explicit ``None`` (which
    would let production order leak through the stable sort into the
    artifact bytes); numbers compare *numerically*, so integer axis
    columns (``seq_len`` 32768 < 131072) serialise in sweep order, not
    repr-lexicographic order.  NaN gets its own tag: comparing through
    a NaN would make the sort order input-dependent.
    """
    if col not in row:
        return (0, "")
    value = row[col]
    if isinstance(value, float) and math.isnan(value):
        return (1, "")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return (2, value)
    return (3, repr(value))


def canonical_cell(value: Any) -> Any:
    """Normalise one row cell for serialisation.

    Finite floats round to 12 significant digits -- full figure
    precision, but the last couple of bits (where summation order and
    platform libm differences live) are folded away -- and ``-0.0``
    collapses into ``0.0``.  The literal strings ``"NaN"``,
    ``"Infinity"`` and ``"-Infinity"`` fold into their float values:
    they are the strict-JSON spelling of non-finite cells, so keeping
    both forms distinct would make artifacts that cannot round-trip.
    Everything else (ints, other strings) passes through unchanged.
    """
    if isinstance(value, float) and math.isfinite(value):
        return float(f"{value:.12g}") + 0.0
    if isinstance(value, str) and value in _NONFINITE_DECODE:
        return _NONFINITE_DECODE[value]
    return value


@dataclass(frozen=True)
class ExperimentResult:
    """Structured output of one experiment run.

    ``rows`` is a list of flat dicts -- one per figure/table data point,
    every value a JSON-serialisable scalar -- and ``params`` records the
    exact parameters the run resolved, so a result file is reproducible
    from its own header.  ``costmodel`` is the cost-model source
    fingerprint the rows were computed under (``""`` for hand-built
    results); artifact consumers use it to warn when comparing results
    across cost-model versions.
    """

    name: str
    params: Mapping[str, Any]
    rows: list[dict]
    costmodel: str = ""

    @property
    def columns(self) -> list[str]:
        """Union of row keys, first-seen order (rows may be ragged)."""
        cols: dict[str, None] = {}
        for row in self.rows:
            for key in row:
                cols.setdefault(key)
        return list(cols)

    def canonical_columns(self) -> list[str]:
        """Column union in an order independent of row production order.

        First-seen order like :attr:`columns`, but collected over the
        rows in a canonical sequence (sorted by their key-ordered
        items), so ragged artifacts -- where first-seen depends on
        which row shape comes first -- still serialise byte-stably.
        For homogeneous rows this equals :attr:`columns`.
        """
        ordered = sorted(self.rows, key=lambda r: repr(sorted(r.items())))
        cols: dict[str, None] = {}
        for row in ordered:
            for key in row:
                cols.setdefault(key)
        return list(cols)

    def canonical_rows(self) -> list[dict]:
        """Rows in canonical artifact form.

        Cells are normalised with :func:`canonical_cell`, keys follow
        :meth:`canonical_columns` order, and rows sort by their
        rendered cells -- so the serialised bytes depend only on the
        row *values*, never on the order the runner happened to produce
        them in.
        """
        cols = self.canonical_columns()
        rows = [
            {c: canonical_cell(row[c]) for c in cols if c in row}
            for row in self.rows
        ]
        rows.sort(key=lambda r: tuple(_sort_token(r, c) for c in cols))
        return rows

    def to_json(self, indent: int | None = 2) -> str:
        """Canonical JSON artifact (byte-stable for identical results).

        Strictly standard JSON: non-finite floats are encoded as the
        strings ``"NaN"``/``"Infinity"``/``"-Infinity"`` (and decoded
        back by :meth:`from_json`), never as Python's bare tokens.
        """
        payload = {
            "experiment": self.name,
            "costmodel": self.costmodel,
            "params": {
                k: _jsonable(self.params[k]) for k in sorted(self.params)
            },
            "columns": self.canonical_columns(),
            "rows": [
                {k: _encode_nonfinite(v) for k, v in row.items()}
                for row in self.canonical_rows()
            ],
        }
        return json.dumps(payload, indent=indent, allow_nan=False)

    def to_csv(self) -> str:
        """Canonical CSV rows (same row order and cell values as JSON)."""
        buf = io.StringIO()
        writer = csv.DictWriter(
            buf, fieldnames=self.canonical_columns(), restval=""
        )
        writer.writeheader()
        writer.writerows(self.canonical_rows())
        return buf.getvalue()

    @classmethod
    def from_json(cls, text: str) -> "ExperimentResult":
        """Parse a JSON artifact written by :meth:`to_json`.

        Pre-canonicalisation artifacts (no ``costmodel``/``columns``
        header) load too; their fingerprint reads back as ``""``
        (unstamped).
        """
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as err:
            raise ValueError(f"not an experiment artifact: {err}") from None
        if (
            not isinstance(payload, dict)
            or not isinstance(payload.get("experiment"), str)
            or not isinstance(payload.get("rows"), list)
        ):
            raise ValueError(
                "not an experiment artifact (missing 'experiment'/'rows')"
            )
        if not all(isinstance(row, dict) for row in payload["rows"]):
            raise ValueError(
                "not an experiment artifact (rows must be JSON objects)"
            )
        rows = [
            {k: _decode_nonfinite(v) for k, v in row.items()}
            for row in payload["rows"]
        ]
        return cls(
            name=payload["experiment"],
            params={
                k: _decode_value(v)
                for k, v in dict(payload.get("params", {})).items()
            },
            rows=rows,
            costmodel=str(payload.get("costmodel", "")),
        )

    @classmethod
    def from_file(cls, path: str | os.PathLike) -> "ExperimentResult":
        """Load a JSON artifact from ``path``."""
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        try:
            return cls.from_json(text)
        except ValueError as err:
            raise ValueError(f"{os.fspath(path)}: {err}") from None


#: Strict-JSON spellings of the non-finite floats.  Python's json module
#: would otherwise emit bare ``NaN``/``Infinity`` tokens that standard
#: parsers (jq, JavaScript) reject.
_NONFINITE_DECODE = {
    "NaN": float("nan"),
    "Infinity": math.inf,
    "-Infinity": -math.inf,
}


def _encode_nonfinite(value: Any) -> Any:
    """Non-finite floats -> their strict-JSON string spelling."""
    if isinstance(value, float) and not math.isfinite(value):
        return "NaN" if math.isnan(value) else (
            "Infinity" if value > 0 else "-Infinity"
        )
    return value


def _decode_nonfinite(value: Any) -> Any:
    """Inverse of :func:`_encode_nonfinite` (a literal string cell that
    spells a non-finite float reads back as the float)."""
    if isinstance(value, str) and value in _NONFINITE_DECODE:
        return _NONFINITE_DECODE[value]
    return value


def _decode_value(value: Any) -> Any:
    """Recursive :func:`_decode_nonfinite` for nested parameter values."""
    if isinstance(value, list):
        return [_decode_value(v) for v in value]
    if isinstance(value, dict):
        return {k: _decode_value(v) for k, v in value.items()}
    return _decode_nonfinite(value)


def _jsonable(value: Any) -> Any:
    """Strict-JSON form for a parameter/report value (tuples -> lists,
    non-finite floats -> strings, rich objects -> repr)."""
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, float):
        return _encode_nonfinite(value)
    if value is None or isinstance(value, (bool, int, str)):
        return value
    return repr(value)


@dataclass(frozen=True)
class ExperimentSpec:
    """Description of one registered experiment.

    Parameters
    ----------
    name:
        Registry key (the figure/table identifier, e.g.
        ``"fig8_throughput"``).
    runner:
        ``runner(**params) -> list[dict]``: the experiment's row
        producer (the module's historical ``run`` entry point).
    description:
        One-line summary for listings.
    params:
        Parameter schema: every keyword the runner accepts with its
        paper-protocol default, introspected from the runner signature.
        Unknown overrides are rejected before the runner is called.
    smoke_params:
        Overrides for a seconds-fast run (small grids), used by CI and
        the registry parity tests; empty when the defaults are already
        fast.
    renderer:
        Optional ``renderer() -> str`` producing an ASCII figure
        (timeline Gantt charts) alongside the structured rows.
    """

    name: str
    runner: Callable[..., list[dict]]
    description: str = ""
    params: Mapping[str, Any] = field(default_factory=dict)
    smoke_params: Mapping[str, Any] = field(default_factory=dict)
    renderer: Callable[..., str] | None = None

    def resolve_params(
        self, smoke: bool = False, overrides: Mapping[str, Any] | None = None
    ) -> dict[str, Any]:
        """Schema defaults, then smoke overrides, then explicit overrides."""
        overrides = dict(overrides or {})
        unknown = sorted(set(overrides) - set(self.params))
        if unknown:
            raise ValueError(
                f"{self.name}: unknown parameter(s) {unknown}; "
                f"schema: {sorted(self.params)}"
            )
        resolved = dict(self.params)
        if smoke:
            resolved.update(self.smoke_params)
        resolved.update(overrides)
        return resolved

    def run(self, smoke: bool = False, **overrides: Any) -> ExperimentResult:
        """Run the experiment and wrap its rows in an :class:`ExperimentResult`."""
        # Local import: the fingerprint walks the cost-model packages,
        # which the runner pulls in anyway; registry import stays light.
        from repro.tuner.cache import costmodel_fingerprint

        params = self.resolve_params(smoke, overrides)
        rows = self.runner(**params)
        return ExperimentResult(
            name=self.name,
            params=params,
            rows=rows,
            costmodel=costmodel_fingerprint(),
        )

    def render(self) -> str:
        if self.renderer is None:
            raise ValueError(f"experiment {self.name!r} has no renderer")
        return self.renderer()


_REGISTRY: dict[str, ExperimentSpec] = {}

#: Modules whose import registers the built-in experiments.  Imported
#: lazily on first lookup, exactly like the schedule registry's builder
#: modules, so this module has no import-time dependency on them.
_BUILTIN_MODULES = (
    "repro.experiments.chunked_mlp",
    "repro.experiments.fig2_fig7_schedules",
    "repro.experiments.fig3_breakdown",
    "repro.experiments.fig4_memory_imbalance",
    "repro.experiments.fig5_partition",
    "repro.experiments.fig6_overlap",
    "repro.experiments.fig8_throughput",
    "repro.experiments.fig9_comm",
    "repro.experiments.fig10_memory_footprint",
    "repro.experiments.fig11_recompute",
    "repro.experiments.table1",
    "repro.experiments.table2",
)
_builtin_loaded = False


def _ensure_builtin() -> None:
    global _builtin_loaded
    if _builtin_loaded:
        return
    for mod in _BUILTIN_MODULES:
        importlib.import_module(mod)
    # Set only after every import succeeded: a failed module must fail
    # again (loudly) on the next lookup, not leave a silently partial
    # registry.  Re-imports of the successful modules are no-ops.
    _builtin_loaded = True


def _signature_params(fn: Callable[..., Any]) -> dict[str, Any]:
    """The runner's keyword-with-default parameters, as the schema."""
    schema: dict[str, Any] = {}
    for name, param in inspect.signature(fn).parameters.items():
        if param.kind in (
            inspect.Parameter.VAR_POSITIONAL,
            inspect.Parameter.VAR_KEYWORD,
        ):
            raise ValueError(
                f"experiment runner {fn.__qualname__} must not use *args/**kwargs"
            )
        if param.default is inspect.Parameter.empty:
            raise ValueError(
                f"experiment runner {fn.__qualname__}: parameter {name!r} "
                "needs a default (the paper-protocol value)"
            )
        schema[name] = param.default
    return schema


def register_experiment(
    name: str,
    *,
    description: str = "",
    smoke: Mapping[str, Any] | None = None,
) -> Callable[[Callable[..., list[dict]]], Callable[..., list[dict]]]:
    """Decorator registering an experiment runner under ``name``.

    The parameter schema is introspected from the runner's keyword
    defaults; ``smoke`` overrides (which must name schema parameters)
    define the fast configuration.  The decorated function is returned
    unchanged, so the module's direct ``run(...)`` entry point keeps
    working -- the registry parity tests assert both paths agree.  A
    runner from outside ``_BUILTIN_MODULES`` loads the built-ins first,
    so taking a built-in name fails here instead of on every later
    lookup; the built-ins' own registrations do not, so loading never
    re-enters itself.
    """

    def deco(fn: Callable[..., list[dict]]) -> Callable[..., list[dict]]:
        if fn.__module__ not in _BUILTIN_MODULES:
            _ensure_builtin()
        if name in _REGISTRY:
            raise ValueError(f"experiment {name!r} already registered")
        schema = _signature_params(fn)
        smoke_params = dict(smoke or {})
        unknown = sorted(set(smoke_params) - set(schema))
        if unknown:
            raise ValueError(
                f"{name}: smoke parameter(s) {unknown} not in the "
                f"schema {sorted(schema)}"
            )
        _REGISTRY[name] = ExperimentSpec(
            name=name,
            runner=fn,
            description=description,
            params=schema,
            smoke_params=smoke_params,
        )
        return fn

    return deco


def attach_renderer(name: str) -> Callable[[Callable[..., str]], Callable[..., str]]:
    """Decorator attaching an ASCII renderer to an already-registered spec."""

    def deco(fn: Callable[..., str]) -> Callable[..., str]:
        try:
            spec = _REGISTRY[name]
        except KeyError:
            raise ValueError(
                f"cannot attach renderer: experiment {name!r} not registered"
            ) from None
        if spec.renderer is not None:
            raise ValueError(f"experiment {name!r} already has a renderer")
        _REGISTRY[name] = dataclasses.replace(spec, renderer=fn)
        return fn

    return deco


def get_experiment(name: str) -> ExperimentSpec:
    """Look up a registered experiment by name."""
    _ensure_builtin()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; registered: {available_experiments()}"
        ) from None


def available_experiments() -> list[str]:
    """Sorted names of every registered experiment."""
    _ensure_builtin()
    return sorted(_REGISTRY)


def run_experiment(name: str, smoke: bool = False, **overrides: Any) -> ExperimentResult:
    """One-shot convenience: ``get_experiment(name).run(...)``."""
    return get_experiment(name).run(smoke=smoke, **overrides)
