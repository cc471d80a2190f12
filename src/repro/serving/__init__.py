"""``repro.serving`` — the analytics serving tier.

A read path over the study's products: :class:`AnalyticsStore` is a
query-optimized projection of a dataset (sorted percentile indexes,
per-app aggregates, friend adjacency, precomputed tail fits and
homophily correlations), built through the stage engine so warm
rebuilds are pure cache hits; :class:`AnalyticsService` routes HTTP
queries to it with fingerprint-keyed response caching; and
``repro serve-analytics`` puts it on a socket.  DESIGN.md §11.

The read path is overload-protected (DESIGN.md §14): an
:class:`AdmissionController` bounds in-flight concurrency and sheds
excess with seeded ``Retry-After`` 429s, per-route circuit breakers
trip on consecutive deadline blowouts, and
:class:`~repro.serving.chaos.ChaosDispatch` injects seeded read-path
faults for deterministic storm tests.

Request-level observability (DESIGN.md §15): attach a
:class:`~repro.obs.reqlog.RequestLog` and an
:class:`~repro.obs.slo.SLOTracker` to the service (or via
``repro serve-analytics --request-log/--slo-*``) and every dispatched
data request leaves one canonical record with a per-layer latency
breakdown, inspectable live at ``/debug/requests`` and ``/debug/slo``.
"""

from repro.serving.admission import (
    AdmissionConfig,
    AdmissionController,
    CircuitBreaker,
)
from repro.serving.api import AnalyticsService, serve_analytics
from repro.serving.cache import ResponseCache
from repro.serving.chaos import (
    ChaosAnalyticsService,
    ChaosDispatch,
    ServingFaultSpec,
)
from repro.serving.store import (
    AnalyticsStore,
    AppStats,
    DistributionIndex,
    build_serving_graph,
)

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "AnalyticsService",
    "AnalyticsStore",
    "AppStats",
    "ChaosAnalyticsService",
    "ChaosDispatch",
    "CircuitBreaker",
    "DistributionIndex",
    "ResponseCache",
    "ServingFaultSpec",
    "build_serving_graph",
    "serve_analytics",
]
