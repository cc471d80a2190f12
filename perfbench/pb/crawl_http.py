"""``crawl_http``: the paper's measurement apparatus over real HTTP.

One serial client runs ``run_full_crawl(HttpTransport(url))`` against
``serve(SteamApiService)`` for a seeded world, crawl after crawl, until
the window is spent.  Op = one API request (one transport call).  Each
crawl's dataset must fingerprint-equal an in-process crawl of the same
world made in setup; every request of a crawl that does not counts as
failed, and so does every request that raised (a refused, failed or
malformed response the crawler's retry policy then retried).

The process is pinned to one CPU.  Client and server take turns (one
request in flight, one interpreter lock), so a second CPU adds no
parallelism, only cross-CPU wake-ups: on a shared VM each wake-up aimed
at a CPU the host has taken away waits out the host's slice, which made
every metric of this workload 1.4-2x worse in steal episodes.
"""

from __future__ import annotations

import os
import sys
import time

from repro import SteamWorld
from repro.crawler.runner import run_full_crawl
from repro.steamapi.http_client import HttpTransport
from repro.steamapi.http_server import serve
from repro.steamapi.service import DEFAULT_API_KEY, SteamApiService
from repro.steamapi.transport import InProcessTransport

from pb.inputs import world_config
from pb.measure import HostWindow, Phase

N_USERS = 1_000
N_PRODUCTS = 300
#: Key under which the client publishes its open request span, so the
#: server thread answering it can name its parent.
CLIENT_KEY = "crawl-client"


class CrawlHttp:
    clients = 1

    def __init__(self, seed: int, tracer, trace: bool, work_dir=None) -> None:
        # Threads started from here on (server, handlers) inherit this.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.tracer = tracer
        world = SteamWorld.generate(world_config(seed, N_USERS, N_PRODUCTS))
        self.reference = run_full_crawl(
            InProcessTransport(SteamApiService(world.dataset))
        ).dataset.fingerprint()

        service = SteamApiService(world.dataset)
        if trace:
            service.dispatch = tracer.wrap(
                service.dispatch,
                "steamapi.service.dispatch",
                parent_of=lambda: tracer.published(CLIENT_KEY),
            )
        self.server = serve(service)
        self.accepted: list[int] = []
        if trace:
            handle = self.server.server.process_request_thread

            def counted(request, client_address):
                self.accepted.append(client_address[1])
                return handle(request, client_address)

            self.server.server.process_request_thread = counted
        # Warm-up: build the service's lazy per-product payloads and
        # first-touch the socket path, outside the timed window.
        appid = int(world.dataset.catalog.appid[0])
        warm = HttpTransport(self.server.base_url)
        for path in ("/appdetails",
                     "/ISteamUserStats/GetGlobalAchievementPercentagesForApp/v2"):
            warm.request(path, {"appids": appid, "gameid": appid,
                                "key": DEFAULT_API_KEY})

    def close(self) -> None:
        self.server.close()

    def run_phase(self, seconds: float) -> Phase:
        tracer = self.tracer
        log: list[tuple] = []
        failed = 0
        counters = {"crawler.requests": [], "crawler.retries": 0}
        accepted0 = len(self.accepted)
        window = HostWindow().start()
        while window.elapsed() < seconds:
            transport = HttpTransport(self.server.base_url)
            inner = transport.request

            def timed(path, params, inner=inner):
                nonlocal raised
                t0 = time.perf_counter()
                try:
                    if tracer.on:
                        with tracer.span(
                            "steamapi.http_client.request",
                            op=len(log),
                            publish_as=CLIENT_KEY,
                        ):
                            return inner(path, params)
                    return inner(path, params)
                except Exception:
                    raised += 1
                    raise
                finally:
                    latency = time.perf_counter() - t0
                    log.append((*window.stamp(), latency))

            transport.request = timed
            first, raised = len(log), 0
            result = None
            try:
                with tracer.span("crawler.run_full_crawl"):
                    result = run_full_crawl(transport)
            except Exception as exc:  # a failed crawl fails its requests
                print(f"crawl_http: crawl failed: {exc!r}", file=sys.stderr)
            window.pause()
            if result is None or result.dataset.fingerprint() != self.reference:
                failed += len(log) - first
            else:
                failed += raised
            if result is not None:
                counters["crawler.requests"].append(result.requests_made)
                counters["crawler.retries"] += result.retries
            window.resume()
        window.stop()
        counters["connections"] = len(self.accepted) - accepted0
        return Phase(window, log, failed, self.clients, counters)
