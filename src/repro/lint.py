"""Registry-wide static analysis sweep behind ``repro lint``.

:func:`lint_schedules` builds every requested registered schedule for a
preset workload at each pipeline size, runs the full analysis pipeline
(:data:`~repro.schedules.analysis.SCHEDULE_PASSES`) with the workload's
static memory and HBM cap as context, and aggregates the findings into
one :class:`LintReport`.  The CLI renders it as aligned tables or JSON;
exit status is non-zero only on ERROR findings (``strict=True`` promotes
warnings to failures).

A registered schedule whose micro-batch divisor precludes the requested
count is recorded as a *skipped* cell with its build reason -- the same
policy the tuner uses for infeasible candidates -- rather than a lint
failure: lint checks schedules, not workload shapes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.passkit import Report
from repro.schedules.analysis import (
    SCHEDULE_PASSES,
    AnalysisContext,
    PassIssue,
)
from repro.schedules.analysis.memory import static_peak_memory
from repro.schedules.registry import (
    ScheduleBuildError,
    available_schedules,
    get_schedule,
    workload_option_defaults,
)
from repro.workloads import Workload

__all__ = ["LintCell", "LintReport", "lint_schedules", "default_micro_batches"]

_GIB = float(1 << 30)


def default_micro_batches(spec: Any, p: int) -> int:
    """The 2p protocol budget rounded up onto the spec's divisor grid."""
    d = spec.micro_batch_divisor(p)
    return ((2 * p + d - 1) // d) * d


@dataclass
class LintCell:
    """One analyzed (schedule, p, m, recompute) cell of the sweep."""

    schedule: str
    p: int
    m: int
    recompute: str
    report: Report[PassIssue] | None = None
    static_peaks: list[float] = field(default_factory=list)
    skip_reason: str | None = None

    @property
    def errors(self) -> int:
        return 0 if self.report is None else len(self.report.errors)

    @property
    def warnings(self) -> int:
        return 0 if self.report is None else len(self.report.warnings)

    @property
    def peak_gib(self) -> float | None:
        return max(self.static_peaks) / _GIB if self.static_peaks else None

    def to_json_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "schedule": self.schedule,
            "p": self.p,
            "m": self.m,
            "recompute": self.recompute,
        }
        if self.skip_reason is not None:
            out["skipped"] = self.skip_reason
            return out
        assert self.report is not None
        out.update(self.report.to_json_dict())
        out["static_peak_bytes"] = list(self.static_peaks)
        return out


@dataclass
class LintReport:
    """The aggregated result of one :func:`lint_schedules` sweep."""

    cells: list[LintCell]
    workload_label: str
    strict: bool = False

    @property
    def total_errors(self) -> int:
        return sum(c.errors for c in self.cells)

    @property
    def total_warnings(self) -> int:
        return sum(c.warnings for c in self.cells)

    @property
    def ok(self) -> bool:
        """Gate status: errors always fail; warnings only under strict."""
        if self.total_errors:
            return False
        return not (self.strict and self.total_warnings)

    def format(self, verbose: bool = False) -> str:
        lines = [f"lint sweep: {self.workload_label}"]
        width = max(len(c.schedule) for c in self.cells) if self.cells else 8
        for c in self.cells:
            head = f"  {c.schedule:<{width}}  p={c.p} m={c.m:<3d} {c.recompute:<14}"
            if c.skip_reason is not None:
                lines.append(f"{head} skipped: {c.skip_reason}")
                continue
            peak = f"peak {c.peak_gib:6.2f} GiB" if c.peak_gib is not None else ""
            status = "ok" if not c.errors else f"{c.errors} ERROR(S)"
            if c.warnings:
                status += f", {c.warnings} warning(s)"
            lines.append(f"{head} {peak}  {status}")
            assert c.report is not None
            shown = c.report.issues if verbose else c.report.errors
            if not verbose and self.strict:
                shown = c.report.issues
            if shown:
                table = PassIssue.table(sorted(shown, key=PassIssue.sort_key))
                lines.extend("    " + ln for ln in table.splitlines())
        gate = "strict (warnings fail)" if self.strict else "errors fail"
        lines.append(
            f"lint: {self.total_errors} error(s), "
            f"{self.total_warnings} warning(s) across {len(self.cells)} "
            f"cell(s) [{gate}] -> {'PASS' if self.ok else 'FAIL'}"
        )
        return "\n".join(lines)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "workload": self.workload_label,
            "strict": self.strict,
            "ok": self.ok,
            "errors": self.total_errors,
            "warnings": self.total_warnings,
            "cells": [c.to_json_dict() for c in self.cells],
        }


def lint_schedules(
    schedules: Sequence[str] | None = None,
    pp_sizes: Sequence[int] = (2, 4),
    num_micro_batches: int | None = None,
    model: str = "1.3B",
    gpu: str = "H20",
    seq_len: int = 8192,
    passes: Sequence[str] | None = None,
    strict: bool = False,
) -> LintReport:
    """Run the analysis pipeline over registered schedules x ``pp_sizes``.

    ``num_micro_batches=None`` gives every schedule the 2p-protocol
    budget rounded onto its own divisor grid; an explicit count is used
    verbatim (schedules it precludes become skipped cells).  ``passes``
    restricts the pipeline to the named passes (default: all).
    """
    names = list(schedules) if schedules else available_schedules()
    cells: list[LintCell] = []
    for p in pp_sizes:
        wl = Workload.paper(model, gpu, p, seq_len)
        static = wl.static_memory()
        cap = wl.cluster.node.gpu.hbm_bytes
        for name in names:
            spec = get_schedule(name)
            m = (
                num_micro_batches
                if num_micro_batches is not None
                else default_micro_batches(spec, p)
            )
            cell = LintCell(
                schedule=name, p=p, m=m, recompute=spec.default_recompute.value
            )
            opts = workload_option_defaults(spec, wl)
            try:
                # verify=False: the analysis pipeline *contains* the
                # verification passes; running them twice per cell would
                # only slow the sweep, and a failing schedule should
                # produce a report, not a build exception.
                sched = spec.build(
                    (p, m), wl.costs(spec.default_recompute), verify=False, **opts
                )
            except ScheduleBuildError as err:
                cell.skip_reason = str(err)
                cells.append(cell)
                continue
            # A context per cell: its channel-graph memo holds the
            # cell's schedule, and dies when the run returns.
            cell.report = SCHEDULE_PASSES.run(
                sched,
                passes=passes,
                context=AnalysisContext(
                    static_memory_bytes=static, memory_cap_bytes=cap
                ),
            )
            cell.static_peaks = static_peak_memory(sched, static)
            cells.append(cell)
    label = (
        f"{model} on {gpu}, seq {seq_len}, "
        f"p in {{{', '.join(str(p) for p in pp_sizes)}}}, "
        f"{len(names)} schedule(s)"
    )
    return LintReport(cells=cells, workload_label=label, strict=strict)
