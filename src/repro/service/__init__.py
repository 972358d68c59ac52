"""Planner-as-a-service: an HTTP plan API over the shared cost cache.

The offline story -- ``repro tune`` sweeping a grid, saving a cost
cache -- answers "which schedule should *this* job use" one shell
invocation at a time.  This package turns the same tuner into a
long-running service: ``repro serve`` starts a stdlib HTTP/JSON server
(:mod:`repro.service.api`) whose ``POST /v1/plan`` resolves a workload
(preset names + shape) through :func:`repro.tuner.autotune` against one
shared, typically sqlite-backed :class:`~repro.tuner.cache.CostCache`.
Identical in-flight requests coalesce onto a single evaluation
(:mod:`repro.service.planner`), background sweeps pre-fill workload
neighbourhoods, and ``GET /v1/stats`` exposes per-request telemetry
(:mod:`repro.service.telemetry`) alongside the cache's hit/miss split.

>>> from repro.service import PlannerService, create_server
>>> from repro.tuner import CostCache
>>> service = PlannerService(CostCache.open("plans.sqlite"))
>>> server = create_server("127.0.0.1", 0, service)   # port 0 = ephemeral
>>> server.serve_forever()                            # doctest: +SKIP

The service adds no dependencies: transport is
:class:`http.server.ThreadingHTTPServer`, storage is :mod:`sqlite3`.
"""

from repro.service.api import PlannerAPIHandler, PlannerServer, create_server
from repro.service.planner import PlannerService, plan_payload
from repro.service.telemetry import ServiceTelemetry

__all__ = [
    "PlannerAPIHandler",
    "PlannerServer",
    "PlannerService",
    "ServiceTelemetry",
    "create_server",
    "plan_payload",
]
