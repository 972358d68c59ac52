"""Per-request rate/usage telemetry for the planner service.

:class:`ServiceTelemetry` is the request-side companion of
:class:`repro.tuner.telemetry.SweepTelemetry` and follows the same
shape discipline -- a flat counter dataclass with ``as_dict()`` -- so
the ``/v1/stats`` payload nests both without translation: request
counters here, per-phase sweep wall-clock there.

Unlike its tuner sibling (which is fed by one serial sweep at a time),
this object is incremented from every handler thread of the
:class:`http.server.ThreadingHTTPServer`, so mutations go through the
small internal lock.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

__all__ = ["ServiceTelemetry"]


@dataclass
class ServiceTelemetry:
    """Thread-safe request counters for one planner service process."""

    requests: int = 0  # guarded-by: _lock
    errors: int = 0  # guarded-by: _lock
    #: Plan requests, split by how they were served: a *cold* request
    #: ran at least one candidate evaluation; a *warm* one was answered
    #: entirely from the cost cache; a *coalesced* one piggybacked on an
    #: identical in-flight evaluation (plans == cold + warm + coalesced).
    plans: int = 0  # guarded-by: _lock
    plans_cold: int = 0  # guarded-by: _lock
    plans_warm: int = 0  # guarded-by: _lock
    plans_coalesced: int = 0  # guarded-by: _lock
    #: Total wall-clock seconds spent answering plan requests.
    plan_s: float = 0.0  # guarded-by: _lock
    sweeps_started: int = 0  # guarded-by: _lock
    sweeps_completed: int = 0  # guarded-by: _lock
    sweeps_failed: int = 0  # guarded-by: _lock
    by_endpoint: dict = field(default_factory=dict)  # guarded-by: _lock
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def record_request(self, endpoint: str) -> None:
        with self._lock:
            self.requests += 1
            self.by_endpoint[endpoint] = self.by_endpoint.get(endpoint, 0) + 1

    def record_error(self) -> None:
        with self._lock:
            self.errors += 1

    def record_plan(self, outcome: str, elapsed_s: float) -> None:
        """Count one answered plan request.

        ``outcome`` is ``"cold"``, ``"warm"`` or ``"coalesced"``.
        """
        field_name = f"plans_{outcome}"
        with self._lock:
            self.plans += 1
            setattr(self, field_name, getattr(self, field_name) + 1)
            self.plan_s += elapsed_s

    def record_sweep(self, outcome: str) -> None:
        """Count one background sweep ``"started"``/``"completed"``/``"failed"``."""
        field_name = f"sweeps_{outcome}"
        with self._lock:
            setattr(self, field_name, getattr(self, field_name) + 1)

    def as_dict(self) -> dict:
        """JSON-ready snapshot (``/v1/stats`` embeds this)."""
        with self._lock:
            return {
                "requests": self.requests,
                "errors": self.errors,
                "plans": self.plans,
                "plans_cold": self.plans_cold,
                "plans_warm": self.plans_warm,
                "plans_coalesced": self.plans_coalesced,
                "plan_s": self.plan_s,
                "sweeps_started": self.sweeps_started,
                "sweeps_completed": self.sweeps_completed,
                "sweeps_failed": self.sweeps_failed,
                "by_endpoint": dict(self.by_endpoint),
            }
