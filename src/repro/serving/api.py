"""HTTP routing for the analytics serving tier.

:class:`AnalyticsService` turns an :class:`AnalyticsStore` into a
``dispatch(path, params) -> payload`` callable — the same contract the
mock Steam Web API speaks — so it plugs straight into
:func:`repro.steamapi.http_server.serve_dispatch` and inherits the
whole HTTP substrate: typed-error → status mapping, per-route request
and latency metrics, trace-context propagation, ``GET /metrics``, and
the draining shutdown path.

Routes::

    GET /healthz
    GET /readyz
    GET /users/<steamid>/summary
    GET /users/<steamid>/neighborhood?limit=N
    GET /apps/<appid>/stats
    GET /distributions/<attr>/percentile?q=Q
    GET /distributions/<attr>/rank?value=V
    GET /tailfit/<attr>
    GET /homophily/<attr>

Every cacheable response is memoized in a
:class:`~repro.serving.cache.ResponseCache` keyed by request (path and
sorted parameters).  The cache is invalidated in one place, the store
swap: ``swap_store`` moves the cache to the new store's fingerprint
before publishing the store, and a body read from a retired store is
dropped at ``put``.

Entries carry dependency tags (which user, which app, which attributes
the body read), so ``swap_store`` with a
:class:`~repro.delta.model.DatasetDelta` linking the two stores
evicts only entries touching the delta's changed users, apps, or
attribute columns; every other entry keeps serving hits (DESIGN.md
§12).  A swap without such a delta empties the cache.

Overload protection (DESIGN.md §14): every data route passes through
an :class:`~repro.serving.admission.AdmissionController` — a bounded
in-flight budget, per-route concurrency caps, and a per-route circuit
breaker that trips on consecutive deadline blowouts — and checks the
ambient request deadline at each layer boundary.  ``/healthz``
(liveness) and ``/readyz`` (readiness) bypass admission entirely so
probes keep answering under a storm; during a store swap reads stay on
the old store (*stale-while-swap*) and payloads carry a
``"degraded": true`` marker until the swap completes.
"""

from __future__ import annotations

import math
import re
import sys
import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING

from repro.core.percentiles import ATTRIBUTES
from repro.obs import Obs, RequestLog, SLOTracker
from repro.obs.reqlog import RecordBuilder
from repro.serving.admission import AdmissionConfig, AdmissionController
from repro.serving.cache import ResponseCache
from repro.serving.store import AnalyticsStore
from repro.steamapi.deadline import check_deadline, current_deadline
from repro.steamapi.errors import (
    ApiError,
    BadRequestError,
    DeadlineExceededError,
    NotFoundError,
    OverloadedError,
    ServiceUnavailableError,
)
from repro.steamapi.faults import AbortedResponse
from repro.steamapi.http_server import (
    ApiHttpServer,
    HttpLimits,
    serve_dispatch,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.delta.model import DatasetDelta

__all__ = ["AnalyticsService", "serve_analytics"]


def _int_param(params: dict, name: str, default: int | None = None) -> int:
    raw = params.get(name, default)
    if raw is None:
        raise BadRequestError(f"missing required parameter {name!r}")
    try:
        return int(raw)
    except (TypeError, ValueError):
        raise BadRequestError(
            f"parameter {name!r} must be an integer, got {raw!r}"
        ) from None


def _float_param(params: dict, name: str) -> float:
    raw = params.get(name)
    if raw is None:
        raise BadRequestError(f"missing required parameter {name!r}")
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise BadRequestError(
            f"parameter {name!r} must be a number, got {raw!r}"
        ) from None
    if math.isinf(value):
        raise BadRequestError(f"parameter {name!r} must be finite")
    return value


#: (compiled pattern, metric-label template, handler method name).
#: Every data route's body is cached; probe routes (``_PROBE_METHODS``)
#: answer before the cache: their bodies carry live telemetry, and
#: probes should never be stale.
_ROUTES: tuple[tuple[re.Pattern, str, str], ...] = (
    (re.compile(r"^/healthz$"), "/healthz", "_healthz"),
    (re.compile(r"^/readyz$"), "/readyz", "_readyz"),
    (
        re.compile(r"^/debug/requests$"),
        "/debug/requests",
        "_debug_requests",
    ),
    (re.compile(r"^/debug/slo$"), "/debug/slo", "_debug_slo"),
    (
        re.compile(r"^/users/(?P<steamid>\d+)/summary$"),
        "/users/<id>/summary",
        "_user_summary",
    ),
    (
        re.compile(r"^/users/(?P<steamid>\d+)/neighborhood$"),
        "/users/<id>/neighborhood",
        "_user_neighborhood",
    ),
    (
        re.compile(r"^/apps/(?P<appid>\d+)/stats$"),
        "/apps/<id>/stats",
        "_app_stats",
    ),
    (
        re.compile(r"^/distributions/(?P<attr>[A-Za-z0-9_]+)/percentile$"),
        "/distributions/<attr>/percentile",
        "_distribution_percentile",
    ),
    (
        re.compile(r"^/distributions/(?P<attr>[A-Za-z0-9_]+)/rank$"),
        "/distributions/<attr>/rank",
        "_distribution_rank",
    ),
    (
        re.compile(r"^/tailfit/(?P<attr>[A-Za-z0-9_]+)$"),
        "/tailfit/<attr>",
        "_tailfit",
    ),
    (
        re.compile(r"^/homophily/(?P<attr>[A-Za-z0-9_]+)$"),
        "/homophily/<attr>",
        "_homophily",
    ),
)


def _route(path: str) -> tuple[str, str | None, re.Match | None]:
    """``(template, handler method name, match)`` for a request path;
    ``("<unmatched>", None, None)`` when no route matches."""
    for pattern, template, method in _ROUTES:
        match = pattern.match(path)
        if match:
            return template, method, match
    return "<unmatched>", None, None


# -- response dependency tags -------------------------------------------------
#
# One derivation per cacheable route, mirroring what the handler read.
# These must stay conservative: a missing tag means a stale body
# survives a delta swap, an extra tag only costs a recompute.


_ALL_ATTR_TAGS = frozenset(f"attr:{a}" for a in ATTRIBUTES)


def _user_tag(steamid) -> str:
    # Interned: a popular user's tag recurs across many cached entries.
    return sys.intern(f"user:{int(steamid)}")


def _tags_user_summary(match, payload) -> frozenset[str]:
    # Percentile standings consult every attribute's sorted index, so
    # any attribute-column change invalidates all summaries.
    return _ALL_ATTR_TAGS | {_user_tag(match["steamid"])}


def _tags_user_neighborhood(match, payload) -> frozenset[str]:
    # Depends on the user's own friend list plus the returned friends'
    # headline attributes; a changed edge marks both endpoints changed,
    # so the union of user tags covers every way the body can move.
    return frozenset(
        {_user_tag(match["steamid"])}
        | {_user_tag(f["steamid"]) for f in payload["friends"]}
    )


def _tags_app_stats(match, payload) -> frozenset[str]:
    # The ownership percentile ranks this app against every other, so
    # the global app_stats tag joins the per-app one.
    return frozenset({f"app:{int(match['appid'])}", "app_stats"})


def _tags_attribute(match, payload) -> frozenset[str]:
    return frozenset({f"attr:{match['attr']}"})


def _tags_homophily(match, payload) -> frozenset[str]:
    # Correlates the attribute against friends' averages: stale when
    # either the attribute's columns or the friend graph move.
    return frozenset({f"attr:{match['attr']}", "attr:friends"})


_ROUTE_TAGS = {
    "_user_summary": _tags_user_summary,
    "_user_neighborhood": _tags_user_neighborhood,
    "_app_stats": _tags_app_stats,
    "_distribution_percentile": _tags_attribute,
    "_distribution_rank": _tags_attribute,
    "_tailfit": _tags_attribute,
    "_homophily": _tags_homophily,
}


#: Probe routes answer before admission control — an overloaded server
#: that fails its probes gets restarted into a worse storm.  The debug
#: endpoints share the bypass for the same reason: they exist to
#: explain an overload incident, so they must answer *during* one.
_PROBE_METHODS = frozenset(
    {"_healthz", "_readyz", "_debug_requests", "_debug_slo"}
)

#: Default admission budget for embedded services (tests, notebooks):
#: generous enough that nothing sheds unless a caller opts into real
#: limits, but still bounded so a runaway client can't thread-bomb the
#: store.
_DEFAULT_EMBEDDED_INFLIGHT = 256


class AnalyticsService:
    """Routes analytics queries to an :class:`AnalyticsStore`."""

    def __init__(
        self,
        store: AnalyticsStore,
        obs: Obs | None = None,
        cache_size: int = 4096,
        admission: AdmissionController | AdmissionConfig | None = None,
        request_log: RequestLog | None = None,
        slo: SLOTracker | None = None,
    ) -> None:
        self._store = store
        self.obs = obs
        #: One canonical record per dispatched data request (DESIGN.md
        #: §15); probes and debug endpoints are exempt so introspecting
        #: the ring doesn't fill it with introspection traffic.
        self.request_log = request_log
        #: Error-budget accounting per route template, fed on every
        #: data-dispatch exit path.
        self.slo = slo
        self.cache = ResponseCache(
            store.fingerprint, maxsize=cache_size, obs=obs
        )
        if admission is None:
            admission = AdmissionConfig(
                max_inflight=_DEFAULT_EMBEDDED_INFLIGHT
            )
        if isinstance(admission, AdmissionConfig):
            admission = AdmissionController(admission, obs=obs)
        self.admission = admission
        # Store swaps (dataset reloads) happen-before subsequent reads.
        self._swap_lock = threading.Lock()
        #: >0 while a swap (or caller-declared rebuild window) is in
        #: progress; reads keep serving the old store, flagged degraded.
        self._degraded_depth = 0
        self._degraded_lock = threading.Lock()
        self._m_degraded = (
            obs.counter(
                "serving_degraded_responses",
                "Responses served stale-while-swap, flagged degraded",
            )
            if obs is not None
            else None
        )

    @property
    def store(self) -> AnalyticsStore:
        return self._store

    @property
    def degraded(self) -> bool:
        """True while a swap/rebuild window is open (stale reads)."""
        return self._degraded_depth > 0

    @contextmanager
    def degraded_mode(self):
        """Declare a degraded window: reads keep flowing against the
        current (stale) store, payloads carry ``"degraded": true``, and
        ``/readyz`` answers 503.  ``swap_store`` opens one implicitly;
        callers rebuilding a store out-of-band can hold one across the
        whole rebuild so probes and clients see the truth.
        """
        with self._degraded_lock:
            self._degraded_depth += 1
        try:
            yield
        finally:
            with self._degraded_lock:
                self._degraded_depth -= 1

    def swap_store(
        self, store: AnalyticsStore, delta: "DatasetDelta | None" = None
    ) -> dict[str, int] | None:
        """Atomically replace the read model (e.g. after a dataset
        reload).

        The cache moves first, the store is published second.  With a
        :class:`~repro.delta.model.DatasetDelta` connecting the old
        store to the new one, entries tagged with the delta's changed
        users/apps/attributes are evicted and everything else stays,
        serving hits; the retarget stats are returned.  Without a
        delta, or with one that does not link the two fingerprints,
        the cache is emptied and ``None`` is returned.

        Readers never block on a swap: dispatch snapshots the store
        reference once, so in-flight requests finish against the old
        store (stale-while-swap) and responses served inside the swap
        window carry ``"degraded": true``.  A body one of them reads
        from the old store after the cache has moved is not cached.
        """
        with self.degraded_mode(), self._swap_lock:
            linked = (
                delta is not None
                and delta.prior_fingerprint == self._store.fingerprint
                and delta.fingerprint == store.fingerprint
            )
            stats = self.cache.retarget(
                store.fingerprint, delta.stale_tags() if linked else None
            )
            self._store = store
            return stats if linked else None

    # -- http_server integration ---------------------------------------------

    def route_of(self, path: str) -> str:
        """Collapse an id-bearing path to its route template, keeping
        metric label cardinality bounded by the route table."""
        return _route(path)[0]

    def open_record(self, path: str) -> RecordBuilder | None:
        """Open the request record for one data request: ``None`` for
        probe and debug routes, or when neither a request log nor an
        SLO tracker is attached.  The opener passes it to
        :meth:`dispatch` and hands it to :meth:`commit_record` once."""
        if self.request_log is None and self.slo is None:
            return None
        template, method, _ = _route(path)
        if method in _PROBE_METHODS:
            return None
        return self._open(path, template)

    def _open(self, path: str, template: str) -> RecordBuilder | None:
        if self.request_log is not None:
            builder = self.request_log.start(path)
        elif self.slo is not None:
            builder = RecordBuilder(self.slo.clock, path)
        else:
            return None
        builder.route = template
        return builder

    def commit_record(self, builder: RecordBuilder) -> int | None:
        """The one commit point: the ring and the SLO tracker see the
        same status and total time.  Returns the record's ``seq``
        (``None`` with no request log attached)."""
        seq = None
        if self.request_log is not None:
            seq = self.request_log.commit(builder)
            total = builder.total_s
        else:
            total = builder.clock() - builder.start_s
        if self.slo is not None:
            self.slo.record(builder.route, builder.status or 0, total)
        return seq

    def dispatch(
        self, path: str, params: dict, builder: RecordBuilder | None = None
    ) -> dict:
        """The handler contract: a JSON-shaped payload, or a typed
        :class:`~repro.steamapi.errors.ApiError`.

        Data routes run behind admission control and under the ambient
        request deadline; probe routes (``/healthz``, ``/readyz``, the
        ``/debug/*`` introspection endpoints) bypass both so they keep
        answering during a storm.  A deadline blowout is reported to
        the route's circuit breaker before the 504 propagates; a clean
        completion resets it; any other failure releases a held
        half-open probe slot without moving the breaker.

        When a :class:`~repro.obs.reqlog.RequestLog` or an
        :class:`~repro.obs.slo.SLOTracker` is attached, every data
        dispatch — success, shed, crash, abort, blown deadline — fills
        in one request record with its exit status.  Without a
        ``builder`` the record is opened and committed here; a caller
        that passes one (the HTTP handler, from :meth:`open_record`)
        commits it itself, after the reply is written.
        """
        template, method, match = _route(path)
        if method in _PROBE_METHODS:
            return getattr(self, method)(self._store, match, params)
        owned = builder is None
        if owned:
            builder = self._open(path, template)
        if builder is None:
            return self._dispatch_data(
                path, params, match, template, method, None
            )
        status = 200
        try:
            return self._dispatch_data(
                path, params, match, template, method, builder
            )
        except AbortedResponse:
            # The wire will say 200 and cut the body; telemetry (and
            # the record) carry the 499 sentinel, like the HTTP layer.
            status = 499
            raise
        except OverloadedError as exc:
            status = exc.status
            builder.admission = f"shed:{exc.reason}"
            raise
        except ApiError as exc:
            status = exc.status
            raise
        except (KeyError, ValueError, TypeError):
            # The HTTP layer maps these to a 400; mirror it so the
            # record's status matches the wire.
            status = 400
            raise
        except BaseException:
            status = 500
            raise
        finally:
            deadline = current_deadline()
            if deadline is not None:
                builder.deadline_remaining_s = deadline.remaining()
            builder.status = status
            if owned:
                self.commit_record(builder)

    def _dispatch_data(
        self,
        path: str,
        params: dict,
        match,
        template: str,
        method: str | None,
        builder: RecordBuilder | None,
    ) -> dict:
        """Admission, deadline, serve, degrade — one data request."""
        if method is None:
            raise NotFoundError(f"no analytics route matches {path!r}")
        with self.admission.admit(template, builder):
            try:
                check_deadline("dispatch")
                args = (path, params, match, method, builder)
                payload = (
                    self._serve(*args)
                    if builder is None
                    else builder.timed("handler_s", self._serve, *args)
                )
            except DeadlineExceededError:
                self.admission.record_timeout(template)
                raise
            except BaseException:
                # A 404, bad parameter, or handler bug says nothing
                # about the route's latency: the breaker state stays
                # put, but a half-open probe slot this request held is
                # freed — otherwise one failing probe wedges the route
                # into endless breaker 429s.
                self.admission.record_abandoned(template)
                raise
            self.admission.record_success(template)
        if self._degraded_depth > 0:
            # Never mutate the cached body; decorate an outgoing copy.
            payload = {**payload, "degraded": True}
            if self._m_degraded is not None:
                self._m_degraded.inc()
            if builder is not None:
                builder.degraded = True
        return payload

    def _serve(
        self,
        path: str,
        params: dict,
        match,
        method: str,
        builder: RecordBuilder | None,
    ) -> dict:
        store = self._store  # one read; immune to concurrent swaps
        key = (path, tuple(sorted(params.items())))
        if builder is None:
            hit = self.cache.get(key)
        else:
            hit = builder.timed("cache_s", self.cache.get, key)
            builder.cache = "miss" if hit is None else "hit"
        if hit is not None:
            return hit
        read = getattr(self, method)
        payload = (
            read(store, match, params)
            if builder is None
            else builder.timed("store_s", read, store, match, params)
        )
        tag_fn = _ROUTE_TAGS.get(method)
        self.cache.put(
            key,
            payload,
            store.fingerprint,
            tags=tag_fn(match, payload) if tag_fn else None,
        )
        return payload

    # -- route handlers ------------------------------------------------------

    def _healthz(self, store, match, params) -> dict:
        payload = store.describe()
        payload["cache"] = self.cache.stats()
        payload["admission"] = self.admission.stats()
        payload["degraded"] = self.degraded
        return payload

    def _readyz(self, store, match, params) -> dict:
        """Readiness: 200 only when fresh reads are possible.  Liveness
        (``/healthz``) stays green through a swap window; readiness
        drops to 503 so load balancers stop routing new traffic while
        stale-while-swap covers the in-flight tail."""
        if self.degraded:
            raise ServiceUnavailableError(
                "store swap in progress; serving stale reads"
            )
        return {
            "status": "ready",
            "fingerprint": store.fingerprint,
            "degraded": False,
            "breakers": {
                route: state
                for route, state in self.admission.breaker_states().items()
                if state != "closed"
            },
        }

    def _debug_requests(self, store, match, params) -> dict:
        """The request-record ring, filtered — an operator's first stop
        during an incident, which is exactly why it bypasses admission.
        """
        if self.request_log is None:
            raise NotFoundError("request logging is not enabled")
        n = _int_param(params, "n", default=50)
        status = (
            _int_param(params, "status") if "status" in params else None
        )
        min_s = _float_param(params, "min_s") if "min_s" in params else None
        return {
            "stats": self.request_log.stats(),
            "requests": self.request_log.tail(
                n,
                route=params.get("route"),
                status=status,
                min_seconds=min_s,
            ),
        }

    def _debug_slo(self, store, match, params) -> dict:
        """Error budgets and burn-rate alert state, live."""
        if self.slo is None:
            raise NotFoundError("slo tracking is not enabled")
        return self.slo.snapshot()

    def _user_summary(self, store, match, params) -> dict:
        return store.user_summary(int(match["steamid"]))

    def _user_neighborhood(self, store, match, params) -> dict:
        limit = _int_param(params, "limit", default=50)
        return store.user_neighborhood(int(match["steamid"]), limit=limit)

    def _app_stats(self, store, match, params) -> dict:
        return store.app_stats_payload(int(match["appid"]))

    def _distribution_percentile(self, store, match, params) -> dict:
        return store.distribution_percentile(
            match["attr"], _float_param(params, "q")
        )

    def _distribution_rank(self, store, match, params) -> dict:
        return store.distribution_rank(
            match["attr"], _float_param(params, "value")
        )

    def _tailfit(self, store, match, params) -> dict:
        return store.tailfit_payload(match["attr"])

    def _homophily(self, store, match, params) -> dict:
        return store.homophily_payload(match["attr"])


def serve_analytics(
    store: AnalyticsStore | AnalyticsService,
    host: str = "127.0.0.1",
    port: int = 0,
    obs: Obs | None = None,
    access_log: bool = False,
    cache_size: int = 4096,
    admission: AdmissionController | AdmissionConfig | None = None,
    limits: HttpLimits | None = None,
    request_log: RequestLog | None = None,
    slo: SLOTracker | None = None,
) -> ApiHttpServer:
    """Serve an analytics store over HTTP; returns the running server.

    Accepts a prebuilt :class:`AnalyticsService` for callers that need
    to hold onto it (store swaps, cache introspection).  ``admission``
    tunes the overload guard on a service built here; ``limits``
    configures socket-level protections and the default request budget
    (see :class:`~repro.steamapi.http_server.HttpLimits`);
    ``request_log`` / ``slo`` attach request-level observability
    (DESIGN.md §15) to a service built here."""
    if isinstance(store, AnalyticsService):
        service = store
        obs = obs if obs is not None else service.obs
    else:
        service = AnalyticsService(
            store,
            obs=obs,
            cache_size=cache_size,
            admission=admission,
            request_log=request_log,
            slo=slo,
        )
    return serve_dispatch(
        service.dispatch,
        host=host,
        port=port,
        obs=obs,
        access_log=access_log,
        route_of=service.route_of,
        limits=limits,
        records=service,
    )
