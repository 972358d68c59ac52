"""Shared list-scheduler tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.schedules.planner import PlannedTask, list_schedule


def _chain(n, stage=0):
    return [
        PlannedTask(tid=i, stage=stage, key=(i,), duration=1.0,
                    deps=[] if i == 0 else [i - 1])
        for i in range(n)
    ]


class TestListSchedule:
    def test_chain_serialises(self):
        order = list_schedule(_chain(4), 1)
        assert [t.tid for t in order[0]] == [0, 1, 2, 3]
        assert [t.start for t in order[0]] == [0.0, 1.0, 2.0, 3.0]

    def test_priority_breaks_ties(self):
        tasks = [
            PlannedTask(tid=0, stage=0, key=(2,), duration=1.0, deps=[]),
            PlannedTask(tid=1, stage=0, key=(1,), duration=1.0, deps=[]),
        ]
        order = list_schedule(tasks, 1)
        assert [t.tid for t in order[0]] == [1, 0]

    def test_cross_stage_dependency_gaps(self):
        tasks = [
            PlannedTask(tid=0, stage=0, key=(0,), duration=2.0, deps=[]),
            PlannedTask(tid=1, stage=1, key=(1,), duration=1.0, deps=[0]),
        ]
        order = list_schedule(tasks, 2)
        assert order[1][0].start == pytest.approx(2.0)

    def test_cycle_detected(self):
        tasks = [
            PlannedTask(tid=0, stage=0, key=(0,), duration=1.0, deps=[1]),
            PlannedTask(tid=1, stage=0, key=(1,), duration=1.0, deps=[0]),
        ]
        with pytest.raises(RuntimeError, match="cycle"):
            list_schedule(tasks, 1)

    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=4))
    @settings(max_examples=25, deadline=None)
    def test_work_conservation(self, n, p):
        """Independent equal tasks over p stages finish in ceil(n_s) time
        per stage (no idle while work is ready)."""
        tasks = [
            PlannedTask(tid=i, stage=i % p, key=(i,), duration=1.0, deps=[])
            for i in range(n)
        ]
        order = list_schedule(tasks, p)
        for s in range(p):
            count = len(order[s])
            if count:
                assert order[s][-1].start == pytest.approx(count - 1.0)
