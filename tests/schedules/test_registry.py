"""Schedule registry: specs, constraints, uniform build signature."""

import pytest

from repro.costmodel.memory import RecomputeStrategy
from repro.schedules.costs import UnitCosts
from repro.schedules.registry import (
    ScheduleBuildError,
    available_schedules,
    build_schedule,
    get_schedule,
    register_schedule,
)
from repro.schedules.registry import as_shape

EXPECTED = {
    "gpipe",
    "1f1b",
    "interleaved",
    "zb1p",
    "zb-milp",
    "adapipe",
    "helix",
    "helix-naive",
    "helix-no-recompute",
}


def _costs(L=8, recompute=RecomputeStrategy.NONE):
    return UnitCosts(num_layers=L, recompute=recompute)


class TestRegistry:
    def test_all_builtin_registered(self):
        assert EXPECTED <= set(available_schedules())

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown schedule"):
            get_schedule("pipedream")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_schedule("1f1b")(lambda *a, **k: None)

    def test_specs_have_descriptions(self):
        for name in EXPECTED:
            assert get_schedule(name).description

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    @pytest.mark.parametrize("p", [2, 4])
    def test_every_schedule_builds_pass_clean(self, name, p):
        """Small workload grid: every registered schedule verifies."""
        spec = get_schedule(name)
        m = max(spec.micro_batch_divisor(p), 2 * p)
        sched = spec.build((p, m), _costs(L=8))
        assert sched.num_stages == p
        sched.validate()

    def test_unknown_option_rejected(self):
        with pytest.raises(ScheduleBuildError, match="unknown option"):
            build_schedule("gpipe", (2, 4), _costs(), bogus=True)

    def test_builder_error_wrapped_with_reason(self):
        with pytest.raises(ScheduleBuildError, match="multiple of fold"):
            build_schedule("helix", (4, 6), _costs(L=4))
        try:
            build_schedule("helix", (4, 6), _costs(L=4))
        except ScheduleBuildError as err:
            assert err.schedule == "helix"
            assert "multiple" in err.reason

    def test_builder_raised_build_error_not_double_wrapped(self):
        """A builder that raises ScheduleBuildError itself (nested
        registry build, explicit constraint check) must keep its message
        as-is -- regression: it used to re-wrap into "name: name: reason"
        because ScheduleBuildError is a ValueError."""
        from repro.schedules.registry import ScheduleSpec

        def bad_builder(p, m, costs, **opts):
            raise ScheduleBuildError("inner-sched", "the real reason")

        spec = ScheduleSpec(name="outer-sched", builder=bad_builder)
        with pytest.raises(ScheduleBuildError) as exc_info:
            spec.build((2, 4), _costs())
        err = exc_info.value
        assert str(err) == "inner-sched: the real reason"
        assert err.schedule == "inner-sched"
        assert "outer-sched" not in str(err)
        assert str(err).count("inner-sched") == 1

    def test_options_override_bound_defaults(self):
        """The helix spec binds fold=2; fold=1 rebuilds the naive schedule."""
        naive = build_schedule("helix", (4, 8), _costs(L=4), fold=1)
        bound = build_schedule("helix-naive", (4, 8), _costs(L=4))
        assert naive.name == bound.name
        assert naive.meta["fold"] == 1


class TestConstraints:
    def test_helix_divisor_is_loop_size(self):
        assert get_schedule("helix").micro_batch_divisor(4) == 8
        assert get_schedule("helix-naive").micro_batch_divisor(4) == 4
        assert get_schedule("helix").micro_batch_divisor(4, fold=1) == 4

    def test_layerwise_divisor_is_p(self):
        for name in ("gpipe", "1f1b", "zb1p", "zb-milp", "adapipe"):
            assert get_schedule(name).micro_batch_divisor(8) == 8

    def test_round_micro_batches(self):
        spec = get_schedule("helix")
        assert spec.round_micro_batches(43, 4) == 40
        assert spec.round_micro_batches(7, 4) == 0
        assert get_schedule("1f1b").round_micro_batches(43, 4) == 40
        assert get_schedule("1f1b").round_micro_batches(43, 8) == 40


class TestShapeCoercion:
    def test_tuple(self):
        assert as_shape((4, 8)) == (4, 8)

    def test_object_with_num_stages(self):
        class Shape:
            num_stages = 2
            num_micro_batches = 6

        assert as_shape(Shape()) == (2, 6)

    def test_object_with_p(self):
        class WorkloadLike:
            p = 3
            num_micro_batches = 12

        assert as_shape(WorkloadLike()) == (3, 12)

    def test_rejects_garbage(self):
        with pytest.raises(TypeError):
            as_shape("nope")
        with pytest.raises(TypeError):
            as_shape((1, 2, 3))

    def test_build_accepts_workload_like(self):
        class WorkloadLike:
            p = 2
            num_micro_batches = 4

        sched = build_schedule("1f1b", WorkloadLike(), _costs())
        assert sched.num_micro_batches == 4


class TestSpecMetadata:
    def test_default_recompute(self):
        assert (
            get_schedule("helix").default_recompute
            is RecomputeStrategy.WITHOUT_ATTENTION
        )
        assert get_schedule("1f1b").default_recompute is RecomputeStrategy.NONE
        assert (
            get_schedule("helix-no-recompute").default_recompute
            is RecomputeStrategy.NONE
        )

    def test_alias_not_tunable(self):
        assert not get_schedule("helix-no-recompute").tunable
        assert get_schedule("helix").tunable

    def test_adapipe_declares_workload_options(self):
        spec = get_schedule("adapipe")
        assert "memory_cap_bytes" in spec.workload_options
        assert "static_memory_bytes" in spec.workload_options

    def test_helix_naive_is_untunable_alias_of_fold_grid(self):
        assert not get_schedule("helix-naive").tunable


class TestTuneOptionGrids:
    def test_static_grid_resolved(self):
        grid = get_schedule("interleaved").option_grid(8)
        assert grid == {"num_chunks_per_stage": (2, 4)}

    def test_callable_grid_receives_pipeline_size(self):
        grid = get_schedule("zb1p").option_grid(8)
        assert grid == {"max_outstanding": (None, 8)}
        assert get_schedule("zb1p").option_grid(4) == {
            "max_outstanding": (None, 4)
        }

    def test_grid_always_contains_schema_default(self):
        from repro.schedules.registry import ScheduleSpec

        spec = ScheduleSpec(
            name="grid-sched",
            builder=lambda *a, **k: None,
            options={"knob": 1},
            tune_options={"knob": (2, 3)},
        )
        assert spec.option_grid(4) == {"knob": (1, 2, 3)}

    def test_grid_for_unknown_option_rejected_at_registration(self):
        from repro.schedules.registry import ScheduleSpec

        with pytest.raises(ValueError, match="not in the option schema"):
            ScheduleSpec(
                name="bad-grid",
                builder=lambda *a, **k: None,
                options={"knob": 1},
                tune_options={"other": (2,)},
            )

    def test_specs_without_grids_have_empty_grid(self):
        assert get_schedule("1f1b").option_grid(8) == {}
