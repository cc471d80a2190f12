"""Command-line interface: ``condensing-steam <command>``.

Commands
--------
- ``generate`` — build a synthetic Steam universe and save the dataset.
- ``analyze``  — run every table/figure on a dataset (or a fresh world)
  and print / save the text report; ``--jobs N`` runs independent
  stages across a process pool and ``--cache-dir PATH`` (or
  ``REPRO_CACHE_DIR``) memoizes stage results so a warm rerun executes
  zero stages (``--no-cache`` opts out).
- ``crawl``    — re-collect a generated world through the simulated API
  (optionally over real localhost HTTP) and save the crawled dataset.
- ``serve``    — expose a generated world as a Steam-Web-API HTTP server.
- ``serve-analytics`` — serve precomputed analytics (percentiles, tail
  fits, homophily, per-app stats, friend neighborhoods) over HTTP from
  a query-optimized store; the store builds through the stage engine,
  so ``--cache-dir`` makes a warm restart execute zero stages, and
  responses are memoized keyed on the dataset fingerprint.
- ``pipeline`` — run generate→serve→crawl→analyze end-to-end under one
  supervisor with a persistent run manifest: a killed run (even
  ``kill -9``) resumes from the last completed step on rerun, reusing
  the crawl checkpoint and the engine stage cache for in-step recovery.
- ``obs``      — observability utilities (``obs summarize <snapshot>``,
  ``obs bench-diff <new> <baseline-dir>``).

``generate``, ``analyze``, ``crawl``, and ``pipeline`` accept
``--metrics-out PATH`` to save a JSON metrics/span snapshot of the run
and ``--trace-out PATH`` to save a merged Chrome-trace/Perfetto file
(open it in chrome://tracing or https://ui.perfetto.dev); ``serve``
exposes live Prometheus metrics at ``GET /metrics``.  Either flag
attaches a deterministic :class:`~repro.obs.TraceContext` — seeded
from ``--seed``, or joined from an ambient ``REPRO_TRACE`` environment
variable so a parent process's trace extends into this run.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro import __version__
from repro.core.study import SteamStudy
from repro.obs import Obs, TraceContext
from repro.simworld.config import WorldConfig
from repro.simworld.world import SteamWorld
from repro.store.io import DatasetIntegrityError, load_dataset, save_dataset

__all__ = ["main"]


def _add_world_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--users", type=int, default=100_000, help="accounts to simulate"
    )
    parser.add_argument("--seed", type=int, default=1603, help="world seed")


def _add_dataset_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset",
        metavar="DIR",
        help=(
            "use a saved dataset directory (checksum-verified on load) "
            "instead of generating a world"
        ),
    )


class _DatasetArgError(Exception):
    """A ``--dataset`` that cannot be read: one error line, exit 2."""


def _load_dataset_arg(path: str):
    try:
        return load_dataset(path)
    except FileNotFoundError:
        raise _DatasetArgError(f"{path}: no such dataset directory") from None
    except DatasetIntegrityError as exc:
        raise _DatasetArgError(f"{path}: {exc}") from None


def _add_engine_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run independent stages across N processes",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="PATH",
        help=(
            "memoize stage results in a content-addressed cache at PATH "
            "(default: $REPRO_CACHE_DIR if set, else no caching); a warm "
            "cache makes a rerun on unchanged data execute zero stages"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the stage cache even when REPRO_CACHE_DIR is set",
    )


def _add_metrics_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write a JSON metrics/span snapshot of this run to PATH",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        help=(
            "write a merged Chrome-trace JSON of this run to PATH "
            "(view in chrome://tracing or Perfetto)"
        ),
    )


def _make_obs(args: argparse.Namespace) -> Obs | None:
    wants_obs = (
        getattr(args, "metrics_out", None)
        or getattr(args, "trace_out", None)
        or getattr(args, "profile", None)
    )
    if not wants_obs:
        return None
    # Join the ambient trace when a parent exported one; otherwise root
    # a fresh deterministic trace on the world seed.
    trace = TraceContext.from_env() or TraceContext.new(
        seed=getattr(args, "seed", None)
    )
    return Obs(trace=trace)


def _finish_obs(obs: Obs | None, args: argparse.Namespace) -> None:
    if obs is None:
        return
    if getattr(args, "metrics_out", None):
        path = obs.write(args.metrics_out)
        print(f"metrics snapshot written to {path}")
    if getattr(args, "trace_out", None):
        path = obs.write_trace(args.trace_out)
        print(f"chrome trace written to {path}")


def _cmd_generate(args: argparse.Namespace) -> int:
    obs = _make_obs(args)
    t0 = time.time()
    world = SteamWorld.generate(
        WorldConfig(n_users=args.users, seed=args.seed), obs=obs
    )
    path = save_dataset(world.dataset, args.output)
    summary = world.dataset.summary()
    print(f"generated {args.users:,} accounts in {time.time() - t0:.1f}s")
    print(
        f"  friendships={summary['friendships']:,.0f} "
        f"owned={summary['owned_games']:,.0f} "
        f"groups={summary['groups']:,.0f}"
    )
    print(f"saved dataset to {path}")
    _finish_obs(obs, args)
    return 0


def _cmd_evolve(args: argparse.Namespace) -> int:
    from repro.simworld.evolution import EvolveConfig, evolve

    obs = _make_obs(args)
    if args.dataset:
        source = _load_dataset_arg(args.dataset)
    else:
        source = SteamWorld.generate(
            WorldConfig(n_users=args.users, seed=args.seed), obs=obs
        )
    config = EvolveConfig(
        account_growth=args.account_growth,
        buy_rate=args.buy_rate,
        play_rate=args.play_rate,
        friend_form_rate=args.friend_form_rate,
        friend_drop_rate=args.friend_drop_rate,
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    last = None
    for step in evolve(
        source, steps=args.steps, config=config, seed=args.evolve_seed
    ):
        delta = step.delta
        manifest = delta.save(out_dir / f"step_{step.step}.delta.json")
        print(
            f"step {step.step}: {delta.n_changed:,} changed, "
            f"{delta.n_new:,} new accounts "
            f"({len(delta.touched_columns)} columns); "
            f"manifest {manifest}"
        )
        last = step
    if last is not None:
        path = save_dataset(last.dataset, out_dir / "evolved")
        print(
            f"evolved {args.steps} step(s) to {last.dataset.n_users:,} "
            f"accounts in {time.time() - t0:.1f}s"
        )
        print(f"saved evolved dataset to {path}")
    _finish_obs(obs, args)
    return 0


def _resolve_cache(args: argparse.Namespace):
    """The analyze stage cache: --cache-dir / REPRO_CACHE_DIR, else off."""
    import os

    if args.no_cache:
        return None
    cache_dir = args.cache_dir or os.environ.get("REPRO_CACHE_DIR")
    if not cache_dir:
        return None
    from repro.engine import StageCache

    return StageCache(Path(cache_dir))


def _cmd_analyze(args: argparse.Namespace) -> int:
    obs = _make_obs(args)
    if args.dataset:
        study = SteamStudy.from_dataset(_load_dataset_arg(args.dataset))
    else:
        study = SteamStudy.generate(
            n_users=args.users, seed=args.seed, obs=obs
        )
    cache = _resolve_cache(args)
    t0 = time.time()
    report = study.run(
        include_table4=not args.skip_table4,
        obs=obs,
        jobs=args.jobs,
        cache=cache,
        profile=bool(args.profile),
    )
    elapsed = time.time() - t0
    engine_run = study.last_engine_run
    if args.profile and engine_run is not None and engine_run.profiles:
        from repro.obs.profiling import write_profile_report

        profile_path = write_profile_report(
            args.profile,
            engine_run.profiles,
            run_id=obs.trace.trace_id if obs and obs.trace else None,
        )
        print(f"profile report written to {profile_path}")
    if engine_run is not None and (args.jobs > 1 or cache is not None):
        line = (
            f"analyzed {engine_run.n_stages} stages in {elapsed:.1f}s "
            f"(jobs={args.jobs}, {len(engine_run.executed)} executed, "
            f"{len(engine_run.cached)} cached)"
        )
        if engine_run.cache_stats is not None:
            stats = engine_run.cache_stats
            line += (
                f"; cache: {stats['hits']} hits / {stats['misses']} misses"
            )
            if stats["corrupt"]:
                line += f" / {stats['corrupt']} corrupt (recomputed)"
        print(line)
    text = report.render()
    if args.figures:
        text += "\n\n" + report.render_figures()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"report written to {args.output}")
    else:
        print(text)
    _finish_obs(obs, args)
    return 0


def _cmd_crawl(args: argparse.Namespace) -> int:
    obs = _make_obs(args)
    study = SteamStudy.generate(n_users=args.users, seed=args.seed, obs=obs)
    t0 = time.time()
    if args.http:
        from repro.crawler.runner import run_full_crawl
        from repro.steamapi.http_client import HttpTransport
        from repro.steamapi.http_server import serve
        from repro.steamapi.service import SteamApiService

        service = SteamApiService.from_world(study.world, obs=obs)
        with serve(service, obs=obs) as server, HttpTransport(
            server.base_url,
            trace=obs.trace if obs else None,
            tracer=obs.tracer if obs else None,
        ) as transport:
            result = run_full_crawl(
                transport, snapshot2=study.dataset.snapshot2, obs=obs
            )
        crawled = SteamStudy(world=study.world, _dataset=result.dataset)
        requests = result.requests_made
    else:
        crawled = study.crawl(obs=obs)
        requests = -1
    elapsed = time.time() - t0
    path = save_dataset(crawled.dataset, args.output)
    mode = "HTTP" if args.http else "in-process"
    print(
        f"crawled {args.users:,} accounts via {mode} transport in "
        f"{elapsed:.1f}s"
        + (f" ({requests:,} requests)" if requests >= 0 else "")
    )
    print(f"saved crawled dataset to {path}")
    _finish_obs(obs, args)
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.core.figures_io import export_figure_data

    if args.dataset:
        study = SteamStudy.from_dataset(_load_dataset_arg(args.dataset))
    else:
        study = SteamStudy.generate(n_users=args.users, seed=args.seed)
    report = study.run(include_table4=False)
    outdir = export_figure_data(report, args.outdir)
    print(f"figure data written to {outdir}/")
    for name in sorted(path.name for path in outdir.iterdir()):
        print(f"  {name}")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.store.export import export_dataset

    if args.dataset:
        dataset = _load_dataset_arg(args.dataset)
    else:
        world = SteamWorld.generate(
            WorldConfig(n_users=args.users, seed=args.seed)
        )
        dataset = world.dataset
    outdir = export_dataset(dataset, args.outdir)
    print(f"exported plain-text dumps to {outdir}/")
    for name in sorted(p.name for p in outdir.iterdir()):
        print(f"  {name}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import logging

    from repro.steamapi.http_server import serve
    from repro.steamapi.service import SteamApiService

    if not args.quiet:
        logging.basicConfig(
            level=logging.INFO, format="%(asctime)s %(name)s %(message)s"
        )
    obs = Obs()
    world = SteamWorld.generate(WorldConfig(n_users=args.users, seed=args.seed))
    service = SteamApiService.from_world(world, obs=obs)
    server = serve(
        service, port=args.port, obs=obs, access_log=not args.quiet
    )
    print(f"Steam Web API simulator listening on {server.base_url}")
    print("endpoints: /ISteamUser/GetPlayerSummaries/v2, "
          "/ISteamUser/GetFriendList/v1, /IPlayerService/GetOwnedGames/v1, ...")
    print(f"Prometheus metrics at {server.base_url}/metrics")
    print("press Ctrl-C to stop")
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        server.close()
    return 0


def _cmd_serve_analytics(args: argparse.Namespace) -> int:
    import logging

    from repro.serving import (
        AdmissionConfig,
        AnalyticsService,
        AnalyticsStore,
        serve_analytics,
    )
    from repro.steamapi.http_server import HttpLimits

    if not args.quiet:
        logging.basicConfig(
            level=logging.INFO, format="%(asctime)s %(name)s %(message)s"
        )
    obs = _make_obs(args)
    if obs is None:
        # Serving always runs instrumented: /metrics is part of the API.
        obs = Obs(
            trace=TraceContext.from_env()
            or TraceContext.new(seed=getattr(args, "seed", None))
        )
    if args.dataset:
        dataset = _load_dataset_arg(args.dataset)
        print(f"loaded dataset from {args.dataset} ({dataset.n_users:,} users)")
    else:
        world = SteamWorld.generate(
            WorldConfig(n_users=args.users, seed=args.seed), obs=obs
        )
        dataset = world.dataset
    cache = _resolve_cache(args)
    t0 = time.time()
    store = AnalyticsStore.build(
        dataset,
        jobs=args.jobs,
        cache=cache,
        obs=obs,
        max_tail=args.max_tail,
    )
    run = store.build_run
    print(
        f"analytics store built in {time.time() - t0:.1f}s "
        f"(stages: {len(run.executed)} executed, {len(run.cached)} cached, "
        f"jobs={run.jobs})"
    )
    admission = AdmissionConfig(
        max_inflight=args.max_inflight,
        seed=args.seed,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
    )
    limits = HttpLimits(
        socket_timeout=args.socket_timeout,
        request_budget=args.request_budget,
    )
    request_log = None
    if args.request_log is not None:
        from repro.obs import RequestLog

        request_log = RequestLog(
            capacity=args.request_log_capacity,
            clock=obs.clock,
            jsonl_path=args.request_log or None,
        )
    slo = None
    if args.slo_target is not None:
        from repro.obs import SLOSpec, SLOTracker

        slo = SLOTracker(
            [
                SLOSpec(
                    route="*",
                    target=args.slo_target,
                    latency_threshold_s=args.slo_latency_threshold,
                )
            ],
            clock=obs.clock,
        )
    service = AnalyticsService(
        store,
        obs=obs,
        cache_size=args.response_cache_size,
        admission=admission,
        request_log=request_log,
        slo=slo,
    )
    server = serve_analytics(
        service,
        port=args.port,
        obs=obs,
        access_log=not args.quiet,
        limits=limits,
    )
    print(f"analytics API listening on {server.base_url}")
    print(
        f"overload guard: {admission.max_inflight} in-flight, "
        f"breaker threshold {admission.breaker_threshold}, "
        f"socket timeout {limits.socket_timeout or 'off'}, "
        f"request budget {limits.request_budget or 'off'}"
    )
    print(
        "routes: /users/<id>/summary /users/<id>/neighborhood "
        "/apps/<id>/stats"
    )
    print(
        "        /distributions/<attr>/percentile?q=Q "
        "/distributions/<attr>/rank?value=V"
    )
    print(
        "        /tailfit/<attr> /homophily/<attr> "
        "/healthz /readyz /metrics"
    )
    if request_log is not None or slo is not None:
        extras = []
        if request_log is not None:
            extras.append("/debug/requests?n=N")
        if slo is not None:
            extras.append("/debug/slo")
        print("        " + " ".join(extras))
    if request_log is not None and request_log.jsonl_path is not None:
        print(f"request log (JSONL): {request_log.jsonl_path}")
    print("press Ctrl-C to stop")
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        stuck = server.close()
        if stuck:
            print(
                f"warning: {len(stuck)} handler thread(s) still busy at "
                "shutdown (daemonic; the process exits anyway)",
                file=sys.stderr,
            )
    if request_log is not None:
        request_log.close()
    _finish_obs(obs, args)
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    import shutil

    from repro.pipeline import PipelineSupervisor

    workdir = Path(args.workdir)
    if args.fresh and workdir.exists():
        shutil.rmtree(workdir)
    obs = _make_obs(args)
    supervisor = PipelineSupervisor(
        workdir=workdir,
        users=args.users,
        seed=args.seed,
        jobs=args.jobs,
        include_table4=not args.skip_table4,
        http=not args.no_http,
        obs=obs,
    )
    t0 = time.time()
    manifest = supervisor.run()
    elapsed = time.time() - t0
    print(f"pipeline complete in {elapsed:.1f}s (workdir: {workdir})")
    for name in ("generate", "serve", "crawl", "analyze"):
        record = manifest.steps.get(name)
        if record is None:
            continue
        extra = f"  [{record.note}]" if record.note else ""
        artifact = f"  -> {record.artifact}" if record.artifact else ""
        print(f"  {name:<9} {record.status:<8}{artifact}{extra}")
    if supervisor.resumed_this_run:
        print(
            "resumed from previous run: "
            + ", ".join(supervisor.resumed_this_run)
        )
    print(f"manifest: {workdir / 'manifest.json'}")
    print(f"report:   {workdir / 'report.txt'}")
    _finish_obs(obs, args)
    return 0


def _cmd_obs_summarize(args: argparse.Namespace) -> int:
    import json

    from repro.obs import console_summary

    with open(args.snapshot, encoding="utf-8") as handle:
        snapshot = json.load(handle)
    if not isinstance(snapshot, dict):
        print(f"error: {args.snapshot} is not a metrics snapshot")
        return 1
    print(console_summary(snapshot), end="")
    return 0


#: Compact layer tags for the ``obs tail`` breakdown column, in
#: pipeline order (matching ``repro.obs.reqlog.LAYERS``).
_TAIL_LAYER_TAGS = (
    ("admission", "adm"),
    ("handler", "hand"),
    ("cache", "cache"),
    ("store", "store"),
    ("serialize", "ser"),
    ("write", "wr"),
)


def _format_request_record(record: dict) -> str:
    layers = record.get("layers", {})
    breakdown = " ".join(
        f"{tag}={layers.get(name, 0.0) * 1000:.2f}ms"
        for name, tag in _TAIL_LAYER_TAGS
        if layers.get(name, 0.0) > 0.0
    )
    extras = []
    if record.get("cache") not in (None, "bypass"):
        extras.append(f"cache={record['cache']}")
    if record.get("admission") not in (None, "bypass", "admitted"):
        extras.append(record["admission"])
    if record.get("fault"):
        extras.append(f"fault={record['fault']}")
    if record.get("degraded"):
        extras.append("degraded")
    suffix = (" " + " ".join(extras)) if extras else ""
    return (
        f"{record.get('seq', 0):>6} "
        f"{record.get('status', 0):>3} "
        f"{record.get('total_s', 0.0) * 1000:>9.2f}ms "
        f"{record.get('path', '?'):<40} "
        f"trace={record.get('trace_id', '-')} "
        f"[{breakdown}]{suffix}"
    )


def _cmd_obs_tail(args: argparse.Namespace) -> int:
    from repro.obs.reqlog import read_jsonl

    try:
        records = list(read_jsonl(args.log))
    except OSError as exc:
        print(f"error: {exc}")
        return 2
    matched = [
        record
        for record in records
        if (args.route is None or record.get("route") == args.route)
        and (args.status is None or record.get("status") == args.status)
        and (
            args.min_latency is None
            or record.get("total_s", 0.0) >= args.min_latency
        )
    ]
    for record in matched[-args.n :]:
        print(_format_request_record(record))
    print(
        f"-- {len(matched)} of {len(records)} records matched "
        f"(showing last {min(args.n, len(matched))})"
    )
    return 0


def _cmd_obs_slo(args: argparse.Namespace) -> int:
    import json

    from repro.obs.reqlog import read_jsonl
    from repro.obs.slo import SLOSpec, SLOTracker

    try:
        records = list(read_jsonl(args.log))
    except OSError as exc:
        print(f"error: {exc}")
        return 2
    if not records:
        print("no records in log")
        return 0
    # Offline replay: drive the tracker's clock from the recorded
    # timestamps so windows and burn rates match what a live tracker
    # would have seen at the end of the run.
    now = [0.0]
    tracker = SLOTracker(
        [
            SLOSpec(
                route="*",
                target=args.target,
                latency_threshold_s=args.latency_threshold,
            )
        ],
        clock=lambda: now[0],
    )
    for record in records:
        now[0] = record.get("start_s", 0.0) + record.get("total_s", 0.0)
        tracker.record(
            record.get("route", "<unmatched>"),
            record.get("status", 0),
            record.get("total_s", 0.0),
        )
    snapshot = tracker.snapshot()
    if args.json:
        print(json.dumps(snapshot, sort_keys=True, indent=2))
        return 0
    print(f"== SLO (target={args.target}, "
          f"latency<={args.latency_threshold}s) ==")
    for route, entry in snapshot["routes"].items():
        print(
            f"  {route:<36} good={entry['good']:,} bad={entry['bad']:,} "
            f"budget_remaining={entry['budget_remaining']:+.3f}"
        )
    firing = [a for a in snapshot["alerts"] if a["firing"]]
    print("== burn-rate alerts ==")
    if not firing:
        print("  (none firing)")
    for alert in firing:
        print(
            f"  [{alert['severity']}] {alert['route']} "
            f"window={alert['window']} "
            f"long={alert['long_burn']:.1f}x short={alert['short_burn']:.1f}x "
            f"(threshold {alert['threshold']}x)"
        )
    return 1 if firing else 0


def _cmd_obs_bench_diff(args: argparse.Namespace) -> int:
    from repro.obs.benchdiff import (
        compare_dirs,
        load_thresholds,
        render_diffs,
    )

    try:
        diffs = compare_dirs(
            args.new, args.baseline, load_thresholds(args.thresholds)
        )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}")
        return 2
    print(render_diffs(diffs), end="")
    regressed = sum(len(d.regressions) for d in diffs)
    return 1 if regressed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="condensing-steam",
        description=(
            "Reproduction of 'Condensing Steam: Distilling the Diversity "
            "of Gamer Behavior' (IMC 2016)"
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="generate a synthetic world")
    _add_world_args(p_gen)
    p_gen.add_argument("--output", default="steam_world")
    _add_metrics_arg(p_gen)
    p_gen.set_defaults(func=_cmd_generate)

    p_ev = sub.add_parser(
        "evolve",
        help="advance a world by delta steps, emitting change manifests",
    )
    _add_world_args(p_ev)
    _add_dataset_arg(p_ev)
    p_ev.add_argument(
        "--out-dir",
        default="evolved",
        help="directory for the evolved dataset and per-step manifests",
    )
    p_ev.add_argument(
        "--steps", type=int, default=1, help="evolution steps to run"
    )
    p_ev.add_argument(
        "--evolve-seed",
        type=int,
        default=None,
        help="evolution RNG seed (default: the dataset's world seed)",
    )
    p_ev.add_argument(
        "--account-growth",
        type=float,
        default=0.01,
        help="new accounts per step, as a fraction of the population",
    )
    p_ev.add_argument(
        "--buy-rate",
        type=float,
        default=0.02,
        help="fraction of users buying games each step",
    )
    p_ev.add_argument(
        "--play-rate",
        type=float,
        default=0.05,
        help="fraction of owners accruing playtime each step",
    )
    p_ev.add_argument(
        "--friend-form-rate",
        type=float,
        default=0.01,
        help="new friendships per step, as a fraction of current edges",
    )
    p_ev.add_argument(
        "--friend-drop-rate",
        type=float,
        default=0.002,
        help="dropped friendships per step, as a fraction of current edges",
    )
    _add_metrics_arg(p_ev)
    p_ev.set_defaults(func=_cmd_evolve)

    p_an = sub.add_parser("analyze", help="run all tables and figures")
    _add_world_args(p_an)
    _add_dataset_arg(p_an)
    p_an.add_argument("--output", help="write the report to a file")
    p_an.add_argument(
        "--skip-table4",
        action="store_true",
        help="skip the (slower) distribution classification",
    )
    p_an.add_argument(
        "--figures",
        action="store_true",
        help="append ASCII renderings of the figures",
    )
    _add_engine_args(p_an)
    p_an.add_argument(
        "--profile",
        metavar="PATH",
        help=(
            "cProfile every stage and write a top-N cumulative-time "
            "report (JSON) to PATH"
        ),
    )
    _add_metrics_arg(p_an)
    p_an.set_defaults(func=_cmd_analyze)

    p_cr = sub.add_parser("crawl", help="re-collect via the simulated API")
    _add_world_args(p_cr)
    p_cr.add_argument("--output", default="steam_crawl")
    p_cr.add_argument(
        "--http",
        action="store_true",
        help="crawl over a real localhost HTTP server",
    )
    _add_metrics_arg(p_cr)
    p_cr.set_defaults(func=_cmd_crawl)

    p_ex = sub.add_parser(
        "export", help="write plain-text dumps (JSONL/CSV) of a dataset"
    )
    _add_world_args(p_ex)
    _add_dataset_arg(p_ex)
    p_ex.add_argument("--outdir", default="steam_export")
    p_ex.set_defaults(func=_cmd_export)

    p_fig = sub.add_parser(
        "figures", help="export every figure's data series as CSV"
    )
    _add_world_args(p_fig)
    _add_dataset_arg(p_fig)
    p_fig.add_argument("--outdir", default="steam_figures")
    p_fig.set_defaults(func=_cmd_figures)

    p_sv = sub.add_parser("serve", help="run the API simulator over HTTP")
    _add_world_args(p_sv)
    p_sv.add_argument("--port", type=int, default=8790)
    p_sv.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-request access logging",
    )
    p_sv.set_defaults(func=_cmd_serve)

    p_sa = sub.add_parser(
        "serve-analytics",
        help="serve precomputed analytics over HTTP (read path)",
    )
    _add_world_args(p_sa)
    _add_dataset_arg(p_sa)
    p_sa.add_argument("--port", type=int, default=8791)
    _add_engine_args(p_sa)
    p_sa.add_argument(
        "--max-tail",
        type=int,
        default=60_000,
        metavar="N",
        help="tail-sample cap for the /tailfit distribution fits",
    )
    p_sa.add_argument(
        "--response-cache-size",
        type=int,
        default=4096,
        metavar="N",
        help="LRU capacity of the fingerprint-keyed response cache",
    )
    p_sa.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        metavar="N",
        help=(
            "admission budget: concurrent requests served before excess "
            "is shed with 429 + Retry-After"
        ),
    )
    p_sa.add_argument(
        "--breaker-threshold",
        type=int,
        default=5,
        metavar="N",
        help=(
            "consecutive deadline blowouts that trip a route's circuit "
            "breaker (0 disables breakers)"
        ),
    )
    p_sa.add_argument(
        "--breaker-cooldown",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="open-breaker cooldown before a half-open probe is allowed",
    )
    p_sa.add_argument(
        "--socket-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-socket read/write timeout; slow-loris clients are "
            "disconnected after this long stalled (default: no timeout)"
        ),
    )
    p_sa.add_argument(
        "--request-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "default per-request deadline budget; requests exceeding it "
            "get a typed 504 (X-Repro-Deadline can only tighten it)"
        ),
    )
    p_sa.add_argument(
        "--request-log",
        nargs="?",
        const="",
        default=None,
        metavar="PATH",
        help=(
            "keep one canonical record per dispatched request in a "
            "bounded in-memory ring (inspect at /debug/requests); with "
            "PATH, also append every record as JSONL for repro obs tail"
        ),
    )
    p_sa.add_argument(
        "--request-log-capacity",
        type=int,
        default=2048,
        metavar="N",
        help="ring capacity of the in-memory request log",
    )
    p_sa.add_argument(
        "--slo-target",
        type=float,
        default=None,
        metavar="FRACTION",
        help=(
            "track a per-route SLO with this availability target "
            "(e.g. 0.999); enables /debug/slo and burn-rate alerts"
        ),
    )
    p_sa.add_argument(
        "--slo-latency-threshold",
        type=float,
        default=0.25,
        metavar="SECONDS",
        help="latency above which a successful request still counts bad",
    )
    p_sa.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-request access logging",
    )
    _add_metrics_arg(p_sa)
    p_sa.set_defaults(func=_cmd_serve_analytics)

    p_pl = sub.add_parser(
        "pipeline",
        help="run generate->serve->crawl->analyze under one supervisor",
    )
    _add_world_args(p_pl)
    p_pl.add_argument(
        "--workdir",
        default="steam_pipeline",
        help="working directory holding the manifest and all artifacts",
    )
    p_pl.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="analysis parallelism (forwarded to the stage engine)",
    )
    p_pl.add_argument(
        "--skip-table4",
        action="store_true",
        help="skip the (slower) distribution classification",
    )
    p_pl.add_argument(
        "--no-http",
        action="store_true",
        help="crawl through the in-process transport instead of localhost HTTP",
    )
    p_pl.add_argument(
        "--fresh",
        action="store_true",
        help="discard the workdir (and all resume state) before running",
    )
    _add_metrics_arg(p_pl)
    p_pl.set_defaults(func=_cmd_pipeline)

    p_obs = sub.add_parser("obs", help="observability utilities")
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    p_sum = obs_sub.add_parser(
        "summarize", help="pretty-print a saved metrics snapshot"
    )
    p_sum.add_argument("snapshot", help="path to a --metrics-out JSON file")
    p_sum.set_defaults(func=_cmd_obs_summarize)
    p_tail = obs_sub.add_parser(
        "tail",
        help="show the last request records from a JSONL request log",
    )
    p_tail.add_argument(
        "log", help="path to a --request-log JSONL file"
    )
    p_tail.add_argument(
        "-n", type=int, default=50, help="records to show (default 50)"
    )
    p_tail.add_argument(
        "--route", help="only records for this route template"
    )
    p_tail.add_argument(
        "--status", type=int, help="only records with this status"
    )
    p_tail.add_argument(
        "--min-latency",
        type=float,
        metavar="SECONDS",
        help="only records at least this slow end to end",
    )
    p_tail.set_defaults(func=_cmd_obs_tail)
    p_slo = obs_sub.add_parser(
        "slo",
        help=(
            "replay a JSONL request log through the SLO tracker: "
            "error budgets per route and burn-rate alerts "
            "(exit 1 when an alert fires)"
        ),
    )
    p_slo.add_argument("log", help="path to a --request-log JSONL file")
    p_slo.add_argument(
        "--target",
        type=float,
        default=0.999,
        help="availability target (default 0.999)",
    )
    p_slo.add_argument(
        "--latency-threshold",
        type=float,
        default=0.25,
        metavar="SECONDS",
        help="latency above which a success still counts bad",
    )
    p_slo.add_argument(
        "--json", action="store_true", help="emit the raw JSON snapshot"
    )
    p_slo.set_defaults(func=_cmd_obs_slo)
    p_diff = obs_sub.add_parser(
        "bench-diff",
        help=(
            "compare BENCH_*.json benchmark results against baselines; "
            "exit 1 when a gated metric regresses beyond its threshold"
        ),
    )
    p_diff.add_argument(
        "new", help="a BENCH_*.json file, or a directory of them"
    )
    p_diff.add_argument(
        "baseline", help="directory holding baseline BENCH_*.json files"
    )
    p_diff.add_argument(
        "--thresholds",
        metavar="PATH",
        help=(
            "JSON of per-metric overrides "
            '({"<bench>.<metric>": {"max_ratio": 2.5}} or {"gate": false})'
        ),
    )
    p_diff.set_defaults(func=_cmd_obs_bench_diff)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _DatasetArgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
