"""Static peak-memory must equal the simulator's measured peak exactly.

Memory only changes at stage-local compute instructions, which execute
serially in program order, so the forward dataflow in
:func:`repro.schedules.analysis.memory.static_peak_memory` is timing-independent
and must reproduce the simulator's per-stage peak bit-for-bit -- for
every registered schedule, every admissible recompute strategy, and a
(p, m) grid.  Any divergence means one of the two accountings drifted.
"""

import pytest

from repro.schedules.analysis.memory import static_peak_memory
from repro.schedules.registry import (
    ScheduleBuildError,
    available_schedules,
    get_schedule,
    workload_option_defaults,
)
from repro.sim import simulate
from repro.workloads import Workload

PP_SIZES = (2, 4)
M_FACTORS = (1, 2)


def _workload(p: int) -> Workload:
    return Workload.paper("1.3B", "H20", p, 8192)


def _base_micro_batches(spec, p: int) -> int:
    d = spec.micro_batch_divisor(p)
    return ((2 * p + d - 1) // d) * d


def _cases():
    for p in PP_SIZES:
        for name in available_schedules():
            spec = get_schedule(name)
            for strategy in spec.recompute_choices:
                for factor in M_FACTORS:
                    yield name, p, strategy, factor


@pytest.mark.parametrize(
    "name,p,strategy,factor",
    list(_cases()),
    ids=lambda v: getattr(v, "value", v),
)
def test_static_peak_equals_simulated_peak(name, p, strategy, factor):
    wl = _workload(p)
    spec = get_schedule(name)
    m = factor * _base_micro_batches(spec, p)
    opts = workload_option_defaults(spec, wl)
    try:
        sched = spec.build((p, m), wl.costs(strategy), **opts)
    except ScheduleBuildError as err:
        pytest.skip(f"infeasible grid combo: {err}")
    static = wl.static_memory()

    peaks = static_peak_memory(sched, static)
    result = simulate(
        sched, wl.cluster, static_memory_bytes=static, record_trace=False
    )
    measured = [stage.peak_memory_bytes for stage in result.stages]
    # Bit-exact, not approximate: same floats in the same order.
    assert peaks == measured


def test_per_stage_static_memory_list_supported():
    wl = _workload(2)
    spec = get_schedule("1f1b")
    m = _base_micro_batches(spec, 2)
    sched = spec.build(
        (2, m),
        wl.costs(spec.default_recompute),
        **workload_option_defaults(spec, wl),
    )
    statics = [1.0 * (1 << 30), 2.0 * (1 << 30)]
    peaks = static_peak_memory(sched, statics)
    result = simulate(
        sched, wl.cluster, static_memory_bytes=statics, record_trace=False
    )
    assert peaks == [s.peak_memory_bytes for s in result.stages]


def test_wrong_static_length_rejected():
    wl = _workload(2)
    spec = get_schedule("1f1b")
    sched = spec.build(
        (2, _base_micro_batches(spec, 2)),
        wl.costs(spec.default_recompute),
        **workload_option_defaults(spec, wl),
    )
    with pytest.raises(ValueError, match="entries for"):
        static_peak_memory(sched, [0.0, 0.0, 0.0])
