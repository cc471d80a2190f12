"""``serve_keepalive``: analytics reads over persistent HTTP/1.1 connections.

A closed loop: two client threads, each with one persistent
``http.client`` connection to ``serve_analytics(AnalyticsService(store))``,
send the next request as soon as the previous response is read.  Each
client walks its own seeded route mix (``bench_serving``'s routes, user
and app keys weighted by the world's degree and ownership tails), so the
response cache sees repeated keys (hits) and first reads (misses).
Op = one response.

A response is correct when it is a 200 whose body bytes equal
``json.dumps`` of an in-process dispatch of the same path on a separate
service over a separately built store; bodies are collected during the
window and compared once it ends.  A request that raises (a dropped
connection, a bad status line, a short body) is a failed op; the client
reconnects and goes on.  A client thread that ends before the window
does fails the run.
"""

from __future__ import annotations

import http.client
import json
import sys
import threading
import time
from collections import Counter, defaultdict

from repro import SteamWorld
from repro.serving import AnalyticsService, AnalyticsStore, serve_analytics

from pb.inputs import key_popularity, request_stream, url_of, world_config
from pb.measure import HostWindow, Phase

N_USERS = 5_000
N_PRODUCTS = 500
#: Client connections: one per CPU of the 2-vCPU machine the benchmark
#: is sized for.
CLIENTS = 2


class ServeKeepalive:
    clients = CLIENTS

    def __init__(self, seed: int, tracer, trace: bool, work_dir=None) -> None:
        self.tracer = tracer
        world = SteamWorld.generate(world_config(seed, N_USERS, N_PRODUCTS))
        dataset = world.dataset
        self.service = AnalyticsService(AnalyticsStore.build(dataset))
        self.reference = AnalyticsService(AnalyticsStore.build(dataset))
        keys = key_popularity(dataset)
        self.streams = [request_stream(seed, c, keys) for c in range(CLIENTS)]
        #: handler thread ident -> client port, to parent server spans.
        self.port_of_thread: dict[int, int] = {}
        self.accepted: list[int] = []
        if trace:
            self.service.dispatch = tracer.wrap(
                self.service.dispatch,
                "serving.dispatch",
                parent_of=lambda: tracer.published(
                    self.port_of_thread.get(threading.get_ident())
                ),
            )
        self.server = serve_analytics(self.service)
        handle = self.server.server.process_request_thread

        def counted(request, client_address):
            self.port_of_thread[threading.get_ident()] = client_address[1]
            self.accepted.append(client_address[1])
            return handle(request, client_address)

        self.server.server.process_request_thread = counted
        host, port = self.server.server.server_address[:2]
        self.conns = []
        for _ in range(CLIENTS):
            conn = http.client.HTTPConnection(host, port, timeout=60)
            conn.connect()
            self.conns.append(conn)
        #: Per client: (path, params) -> Counter of (status, body).
        self.bodies: list[dict] = [defaultdict(Counter) for _ in range(CLIENTS)]
        self.nbytes = [0] * CLIENTS
        #: Per client: requests that raised.
        self.errors = [0] * CLIENTS
        #: Per client: the exception that ended its thread, if any.
        self.crashed: list[BaseException | None] = [None] * CLIENTS
        # Warm-up: seven requests from a third stream on every
        # connection (socket, handler thread, route code and store
        # indexes first-touched), outside the timed window.
        warm = request_stream(seed, CLIENTS, keys)
        for conn in self.conns:
            for _ in range(7):
                path, params = next(warm)
                conn.request("GET", url_of(path, params))
                conn.getresponse().read()

    def close(self) -> None:
        for conn in self.conns:
            conn.close()
        self.server.close()

    def _client(self, c: int, window, stop: threading.Event, out: list) -> None:
        try:
            self._client_loop(c, window, stop, out)
        except BaseException as exc:  # noqa: BLE001 - reported by run_phase
            self.crashed[c] = exc

    def _client_loop(self, c: int, window, stop: threading.Event,
                     out: list) -> None:
        tracer, conn, stream = self.tracer, self.conns[c], self.streams[c]
        bodies = self.bodies[c]
        nbytes = errors = 0
        while not stop.is_set():
            path, params = next(stream)
            url = url_of(path, params)
            t0 = time.perf_counter()
            try:
                if tracer.on:
                    # The server thread finds this span by the client's
                    # port; read it per request, as a reconnect changes it.
                    with tracer.span(
                        "serving.http.request",
                        op=len(out) * CLIENTS + c,
                        publish_as=conn.sock.getsockname()[1],
                    ):
                        status, body = _get(conn, url)
                else:
                    status, body = _get(conn, url)
            except (OSError, http.client.HTTPException) as exc:
                out.append((*window.stamp(), time.perf_counter() - t0))
                errors += 1
                if errors <= 3:
                    print(f"serve_keepalive: client {c}: {exc!r}",
                          file=sys.stderr)
                conn.close()  # the next request opens a new connection
                conn.connect()
                continue
            out.append((*window.stamp(), time.perf_counter() - t0))
            bodies[(path, tuple(sorted(params.items())))][(status, body)] += 1
            nbytes += len(body)
        self.nbytes[c] = nbytes
        self.errors[c] = errors

    def run_phase(self, seconds: float) -> Phase:
        stop = threading.Event()
        outs: list[list[tuple]] = [[] for _ in range(CLIENTS)]
        self.nbytes = [0] * CLIENTS
        self.errors = [0] * CLIENTS
        for bodies in self.bodies:
            bodies.clear()
        cache0 = self.service.cache.stats()
        shed0 = sum(self.service.admission.stats()["shed"].values())
        accepted0 = len(self.accepted)
        window = HostWindow()
        threads = [
            threading.Thread(target=self._client, args=(c, window, stop, outs[c]))
            for c in range(CLIENTS)
        ]
        window.start()
        for thread in threads:
            thread.start()
        time.sleep(seconds)
        stop.set()
        for thread in threads:
            thread.join(timeout=120)
        window.stop()
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("a keep-alive client did not stop")
        for exc in self.crashed:
            if exc is not None:
                raise RuntimeError("a keep-alive client ended early") from exc
        cache1 = self.service.cache.stats()
        log = sorted(row for out in outs for row in out)
        failed = self._check() + sum(self.errors)
        counters = {
            "serving.cache.hits": cache1["hits"] - cache0["hits"],
            "serving.cache.misses": cache1["misses"] - cache0["misses"],
            "serving.admission.shed": sum(
                self.service.admission.stats()["shed"].values()
            ) - shed0,
            "serving.bytes": sum(self.nbytes),
            "connections": len(self.accepted) - accepted0,
        }
        return Phase(window, log, failed, CLIENTS, counters)

    def _check(self) -> int:
        """Responses that were not a 200 with the reference's bytes."""
        failed = 0
        expected: dict = {}
        for bodies in self.bodies:
            for key, seen in bodies.items():
                if key not in expected:
                    path, params = key
                    expected[key] = json.dumps(
                        self.reference.dispatch(path, dict(params))
                    ).encode("utf-8")
                failed += sum(
                    n
                    for (status, body), n in seen.items()
                    if status != 200 or body != expected[key]
                )
        return failed


def _get(conn: http.client.HTTPConnection, url: str) -> tuple[int, bytes]:
    conn.request("GET", url)
    response = conn.getresponse()
    return response.status, response.read()
