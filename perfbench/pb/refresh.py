"""``refresh``: the incremental path, one evolution step at a time.

Setup crawls a seeded world in process, runs the study cold into a
stage cache, builds the serving store from the same cache and starts a
live ``AnalyticsService`` whose response cache holds a fixed read
sample.  Each op then applies one seeded ``evolve`` step:

    run_delta_crawl (in-process transport; calls dataset_delta)
    -> SteamStudy.run with the warm stage cache
    -> AnalyticsStore.build with the same cache
    -> AnalyticsService.swap_store(store, delta)
    -> the fixed read sample, in process

Op = one step.  Generating a step's input and checking its result are
taken out of the timed window.  A step is correct when the delta crawl
needed no retries, its merged dataset fingerprint-equals an in-process
full crawl of the evolved world (the reference), the warm study's
report renders the same as a cold, cache-less study of the reference,
and every post-swap read equals, byte for byte, the same read on a
service over a store built cold, with no cache, from the reference.
"""

from __future__ import annotations

import json
import sys
import time
from itertools import islice

import repro.delta.crawl as delta_crawl
from repro import SteamStudy, SteamWorld
from repro.crawler.runner import run_full_crawl
from repro.engine import StageCache
from repro.serving import AnalyticsService, AnalyticsStore
from repro.simworld.evolution import EvolveConfig, evolve
from repro.steamapi.service import SteamApiService
from repro.steamapi.transport import InProcessTransport

from pb.inputs import key_popularity, request_stream, world_config
from pb.measure import HostWindow, Phase

N_USERS = 8_000
N_PRODUCTS = 800
#: Reads replayed after every swap (``bench_serving``'s route mix).
READ_SAMPLE = 64
#: Evolution rates are the defaults except account growth: at 0.1 % a
#: step the world grows a few percent over a run, so a faster step is
#: not charged for reaching a much larger world within the same window.
ACCOUNT_GROWTH = 0.001
#: Upper bound on the evolution sequence (far beyond one window).
MAX_STEPS = 100_000


class Refresh:
    clients = 1

    def __init__(self, seed: int, tracer, trace: bool, work_dir) -> None:
        self.tracer, self.trace = tracer, trace
        world = SteamWorld.generate(world_config(seed, N_USERS, N_PRODUCTS))
        self.prior = run_full_crawl(
            InProcessTransport(SteamApiService(world.dataset))
        ).dataset
        self.cache = StageCache(work_dir / "stages")
        SteamStudy.from_dataset(self.prior).run(cache=self.cache)
        self.service = AnalyticsService(
            AnalyticsStore.build(self.prior, cache=self.cache)
        )
        self.sample = list(
            islice(
                request_stream(seed, 0, key_popularity(self.prior)),
                READ_SAMPLE,
            )
        )
        # Warm-up: the read sample fills the response cache the first
        # swap retargets.
        for path, params in self.sample:
            self.service.dispatch(path, params)
        self.steps = evolve(
            world,
            steps=MAX_STEPS,
            seed=seed + 1,
            config=EvolveConfig(account_growth=ACCOUNT_GROWTH),
        )

        self._delta_crawl = delta_crawl.run_delta_crawl
        self._build = AnalyticsStore.build
        self._restore = None
        if trace:
            self._delta_crawl = tracer.wrap(
                self._delta_crawl, "delta.run_delta_crawl"
            )
            self._build = tracer.wrap(self._build, "serving.store.build")
            self.service.dispatch = tracer.wrap(
                self.service.dispatch, "serving.dispatch"
            )
            self.service.swap_store = tracer.wrap(
                self.service.swap_store, "serving.swap_store"
            )
            # run_delta_crawl calls dataset_delta through its module.
            original = delta_crawl.dataset_delta
            delta_crawl.dataset_delta = tracer.wrap(
                original, "delta.dataset_delta"
            )
            self._restore = (delta_crawl, original)

    def close(self) -> None:
        if self._restore is not None:
            module, original = self._restore
            module.dataset_delta = original
            self._restore = None

    def run_phase(self, seconds: float) -> Phase:
        tracer = self.tracer
        log: list[tuple] = []
        failed = 0
        lists = ("delta.requests", "crawler.requests",
                 "engine.stages_executed", "engine.stages_cached",
                 "serving.store.stages_executed",
                 "serving.store.stages_cached",
                 "serving.swap.retained", "serving.swap.evicted")
        counters = {name: [] for name in lists}
        counters.update({"crawler.retries": 0, "serving.cache.hits": 0,
                         "serving.cache.misses": 0})
        window = HostWindow().start()
        window.pause()
        while window.elapsed() < seconds:
            step = next(self.steps)
            api = SteamApiService(step.dataset)
            if self.trace:
                api.dispatch = tracer.wrap(
                    api.dispatch, "steamapi.service.dispatch"
                )
            transport = InProcessTransport(api)
            window.resume()
            t0 = time.perf_counter()
            try:
                with tracer.span("op:refresh.step", op=len(log)):
                    result = self._delta_crawl(transport, self.prior, step.delta)
                    study = SteamStudy.from_dataset(result.dataset)
                    run = study.run
                    if self.trace:
                        run = tracer.wrap(run, "engine.study_run")
                    report = run(cache=self.cache)
                    store = self._build(result.dataset, cache=self.cache)
                    swap = self.service.swap_store(store, result.delta)
                    cache0 = self.service.cache.stats()
                    reads = [
                        self.service.dispatch(path, params)
                        for path, params in self.sample
                    ]
                    cache1 = self.service.cache.stats()
            except Exception as exc:  # the chain cannot go on from here
                print(f"refresh: step failed: {exc!r}", file=sys.stderr)
                log.append((*window.stamp(), time.perf_counter() - t0))
                window.stop()
                return Phase(window, log, failed + 1, 1, counters)
            log.append((*window.stamp(), time.perf_counter() - t0))
            window.pause()
            if result.retries or not self._correct(
                step, result.dataset, report, reads
            ):
                failed += 1
            engine_run = study.last_engine_run
            counters["engine.stages_executed"].append(len(engine_run.executed))
            counters["engine.stages_cached"].append(len(engine_run.cached))
            counters["serving.store.stages_executed"].append(
                len(store.build_run.executed)
            )
            counters["serving.store.stages_cached"].append(
                len(store.build_run.cached)
            )
            swap = swap or {"retargeted": 0, "evicted": 0}
            counters["serving.swap.retained"].append(swap["retargeted"])
            counters["serving.swap.evicted"].append(swap["evicted"])
            counters["delta.requests"].append(result.requests_made)
            counters["crawler.requests"].append(result.requests_made)
            counters["crawler.retries"] += result.retries
            counters["serving.cache.hits"] += cache1["hits"] - cache0["hits"]
            counters["serving.cache.misses"] += (
                cache1["misses"] - cache0["misses"]
            )
            self.prior = result.dataset
        window.stop()
        return Phase(window, log, failed, 1, counters)

    def _correct(self, step, merged, report, reads) -> bool:
        reference = run_full_crawl(
            InProcessTransport(SteamApiService(step.dataset))
        ).dataset
        if merged.fingerprint() != reference.fingerprint():
            return False
        cold = SteamStudy.from_dataset(reference).run()
        if report.render() != cold.render():
            return False
        fresh = AnalyticsService(AnalyticsStore.build(reference))
        return all(
            json.dumps(read) == json.dumps(fresh.dispatch(path, params))
            for read, (path, params) in zip(reads, self.sample)
        )
