"""Per-phase telemetry for auto-tune sweeps.

The cold sweep decomposes into four phases -- candidate *build* (IR
construction), *bound* pricing (closed-form throughput upper bounds for
pruning), *simulate* (discrete-event evaluation of the built IR), and
residual *cache/bookkeeping* overhead.  :class:`SweepTelemetry`
accumulates wall time and counters for each, so a sweep can report where
its time went, per phase rather than only end to end.

Pass an instance to :func:`repro.tuner.autotune` (or
:func:`repro.tuner.tune_grid`, which shares one across its points); the
same object can be reused across several sweeps to aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SweepTelemetry"]


@dataclass
class SweepTelemetry:
    """Wall-clock seconds and counters per sweep phase.

    ``built`` counts every build and ``simulated`` every simulation: a
    cold candidate is built once and simulated once, in full, and
    nothing is memoized.
    """

    build_s: float = 0.0
    simulate_s: float = 0.0
    bound_s: float = 0.0
    eval_s: float = 0.0  # total evaluation-loop wall (cold + cached)
    candidates: int = 0
    built: int = 0
    simulated: int = 0

    @property
    def cache_s(self) -> float:
        """Evaluation-loop time not attributed to build or simulate.

        Cost-cache lookups, result assembly and pruning bookkeeping;
        clamped at zero (the phases are timed independently, so rounding
        can push the residual marginally negative).
        """
        residual = self.eval_s - self.build_s - self.simulate_s
        return residual if residual > 0.0 else 0.0

    def as_dict(self) -> dict:
        """JSON-ready snapshot (``/v1/stats`` embeds this)."""
        return {
            "build_s": self.build_s,
            "simulate_s": self.simulate_s,
            "bound_s": self.bound_s,
            "cache_s": self.cache_s,
            "eval_s": self.eval_s,
            "candidates": self.candidates,
            "built": self.built,
            "simulated": self.simulated,
        }
