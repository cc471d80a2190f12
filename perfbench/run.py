"""The repository benchmark: three workloads, end-to-end and per-layer.

Usage::

    python3 perfbench/run.py --workload crawl_http --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --spans .perfbench-out/spans-refresh-seed1.json

Workloads (see ``BENCHMARK.json`` for why each was chosen):

- ``crawl_http`` — serial ``run_full_crawl`` over real HTTP; op = one
  API request.
- ``serve_keepalive`` — two persistent HTTP/1.1 connections reading the
  analytics API in a closed loop; op = one response.
- ``refresh`` — evolve, delta-crawl, re-analyze, rebuild and swap the
  serving store, read; op = one step.

Each run sets up ``SETUPS`` times (``setup_s`` is their median: world
generation, reference computations, the cold analysis/store build,
server start and a warm-up pass), then measures one window of
``--seconds`` seconds.  With ``--trace 0`` it prints the end-to-end
metrics; with ``--trace 1`` it runs the first third of the window
untraced and the rest with a span around every wrapped call into the
program, then prints the per-layer metrics and the self-time table,
and writes the spans to ``.perfbench-out/``.  ``--spans FILE`` prints
the table of a written span file.

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
when every op was correct, 1 when any was not, and 2 when the
benchmark could not run (for instance without the repository's
``src/`` next to it).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from pb import spans as spanlib  # noqa: E402
from pb.measure import (  # noqa: E402
    STEAL_WARN_SHARE,
    median,
    peak_rss_mb,
    segment_rates,
    tail_latency,
)

WORKLOADS = ("crawl_http", "serve_keepalive", "refresh")
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: ``ops_per_s`` and ``cpu_ms_per_op`` are medians over this many
#: consecutive segments of a window's ops, so a burst of host steal or
#: a noisy neighbour inside a few segments does not move them.
RATE_SEGMENTS = 25
#: Share of a traced run's window measured untraced, for the overhead.
UNTRACED_SHARE = 1 / 3

#: Per-layer metrics: (name, unit).  Every workload reports all of
#: them; a layer a workload bypasses reads 0.
PER_LAYER = (
    ("steamapi.http_client.request_p50_ms", "ms"),
    ("steamapi.http_client.request_p99_ms", "ms"),
    ("steamapi.service.dispatch_ms", "ms"),
    ("steamapi.wire_ms", "ms"),
    ("steamapi.http_server.connections_per_op", "count"),
    ("crawler.self_s", "s"),
    ("crawler.requests", "count"),
    ("crawler.retries", "count"),
    ("serving.dispatch_p50_ms", "ms"),
    ("serving.dispatch_p99_ms", "ms"),
    ("serving.wire_ms", "ms"),
    ("serving.http.request_p99_ms", "ms"),
    ("serving.cache.hit_ratio", "ratio"),
    ("serving.cache.lookups", "count"),
    ("serving.admission.shed", "count"),
    ("serving.bytes_per_op", "B"),
    ("delta.crawl_s", "s"),
    ("delta.requests", "count"),
    ("delta.diff_s", "s"),
    ("engine.study_s", "s"),
    ("engine.stages_executed", "count"),
    ("engine.stages_cached", "count"),
    ("serving.store.build_s", "s"),
    ("serving.store.stages_executed", "count"),
    ("serving.store.stages_cached", "count"),
    ("serving.swap_s", "s"),
    ("serving.swap.retained", "count"),
    ("serving.swap.evicted", "count"),
    ("serving.cache.post_swap_hit_ratio", "ratio"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("host.steal_s", "s"),
    ("proc.cpu_s", "s"),
)


def _workload_class(workload: str):
    """The workload's class.  Each is built as
    ``cls(seed, tracer, trace, work_dir)`` (one set-up; ``work_dir`` is
    private scratch space inside the checkout) and offers ``clients``,
    ``run_phase(seconds) -> Phase`` and ``close()``."""
    if workload == "crawl_http":
        from pb.crawl_http import CrawlHttp

        return CrawlHttp
    if workload == "serve_keepalive":
        from pb.serve_keepalive import ServeKeepalive

        return ServeKeepalive
    from pb.refresh import Refresh

    return Refresh


def _setup(args, tracer, work_dir: Path):
    """Set up ``SETUPS`` times; keep the last, return it and the times.

    The workload's modules are imported first, so module import (process
    start-up) is not charged to the first set-up.
    """
    cls = _workload_class(args.workload)
    times = []
    state = None
    for i in range(SETUPS):
        if state is not None:
            state.close()
            state = None
            gc.collect()
        t0 = time.perf_counter()
        state = cls(args.seed, tracer, bool(args.trace), work_dir / f"setup{i}")
        times.append(time.perf_counter() - t0)
    return state, times


def end_to_end(phase, setup_times) -> tuple[dict, list[str]]:
    lat = phase.latencies
    tail, tail_note = tail_latency(lat)
    rates, cpu_per_op = segment_rates(phase.log, RATE_SEGMENTS)
    seg_note = f"median of {len(rates)} segments of {phase.ops} ops"
    values = {
        "setup_s": (median(setup_times), "s", f"median of {len(setup_times)} set-ups"),
        "ops_per_s": (median(rates), "1/s", seg_note),
        "op_p50_ms": (median(lat) * 1e3, "ms", f"{len(lat)} ops"),
        "op_p90_ms": (tail * 1e3, "ms", f"{len(lat)} ops, {tail_note}"),
        "cpu_ms_per_op": (median(cpu_per_op) * 1e3, "ms",
                          f"{seg_note}; {phase.window.cpu_s:.3f} s process CPU"),
        "ok_share": ((phase.ops - phase.failed) / phase.ops, "ratio",
                     f"{phase.ops - phase.failed}/{phase.ops} correct"),
        "peak_rss_mb": (peak_rss_mb(), "MB", "ru_maxrss"),
    }
    lines = [
        f"  {name:24s} {value:14.4f} {unit:6s} ({note})"
        for name, (value, unit, note) in values.items()
    ]
    return {n: (v, u) for n, (v, u, _) in values.items()}, lines


def _durations(spans, names) -> list[float]:
    return [end - start for _, _, name, _, start, end in spans if name in names]


def _self_of(spans, selfs, names) -> list[float]:
    return [selfs[sid] for sid, _, name, _, _, _ in spans if name in names]


def per_layer(phase, spans, untraced_ops_per_s: float) -> dict:
    """Every per-layer metric from the traced phase's spans and counters."""
    c = phase.counters
    ops = max(phase.ops, 1)
    selfs = spanlib.self_times(spans)
    ms = 1e3

    def med(values, scale=1.0):
        return median(values) * scale

    def tail(values, scale=1.0):
        # The p99, or the highest percentile the sample supports.
        return tail_latency(values, 99)[0] * scale if values else 0.0

    def counted(name):
        value = c.get(name, 0)
        return median(value) if isinstance(value, list) else value

    request = _durations(spans, {"steamapi.http_client.request"})
    serving = _durations(spans, {"serving.dispatch"})
    lookups = c.get("serving.cache.hits", 0) + c.get("serving.cache.misses", 0)
    hit_ratio = c.get("serving.cache.hits", 0) / lookups if lookups else 0.0
    total_s = phase.window.wall_s * phase.clients
    _, unattributed = spanlib.layer_table(spans, total_s)
    traced_ops_per_s = phase.ops / phase.window.wall_s
    values = {
        "steamapi.http_client.request_p50_ms": med(request, ms),
        "steamapi.http_client.request_p99_ms": tail(request, ms),
        "steamapi.service.dispatch_ms": med(
            _durations(spans, {"steamapi.service.dispatch"}), ms),
        "steamapi.wire_ms": med(
            _self_of(spans, selfs, {"steamapi.http_client.request"}), ms),
        "steamapi.http_server.connections_per_op": c.get("connections", 0) / ops,
        "crawler.self_s": med(_self_of(
            spans, selfs, {"crawler.run_full_crawl", "delta.run_delta_crawl"})),
        "crawler.requests": counted("crawler.requests"),
        "crawler.retries": c.get("crawler.retries", 0),
        "serving.dispatch_p50_ms": med(serving, ms),
        "serving.dispatch_p99_ms": tail(serving, ms),
        "serving.wire_ms": med(
            _self_of(spans, selfs, {"serving.http.request"}), ms),
        "serving.http.request_p99_ms": tail(
            _durations(spans, {"serving.http.request"}), ms),
        "serving.cache.hit_ratio": hit_ratio,
        "serving.cache.lookups": lookups,
        "serving.admission.shed": c.get("serving.admission.shed", 0),
        "serving.bytes_per_op": c.get("serving.bytes", 0) / ops,
        "delta.crawl_s": med(_durations(spans, {"delta.run_delta_crawl"})),
        "delta.requests": counted("delta.requests"),
        "delta.diff_s": med(_durations(spans, {"delta.dataset_delta"})),
        "engine.study_s": med(_durations(spans, {"engine.study_run"})),
        "engine.stages_executed": counted("engine.stages_executed"),
        "engine.stages_cached": counted("engine.stages_cached"),
        "serving.store.build_s": med(_durations(spans, {"serving.store.build"})),
        "serving.store.stages_executed": counted("serving.store.stages_executed"),
        "serving.store.stages_cached": counted("serving.store.stages_cached"),
        "serving.swap_s": med(_durations(spans, {"serving.swap_store"})),
        "serving.swap.retained": counted("serving.swap.retained"),
        "serving.swap.evicted": counted("serving.swap.evicted"),
        "serving.cache.post_swap_hit_ratio": (
            hit_ratio if "serving.swap.retained" in c else 0.0
        ),
        "trace.unattributed_share": unattributed / total_s if total_s else 0.0,
        "trace.overhead_ratio": (
            untraced_ops_per_s / traced_ops_per_s if traced_ops_per_s else 0.0
        ),
        "host.steal_s": phase.window.steal_s or 0.0,
        "proc.cpu_s": phase.window.cpu_s,
    }
    units = dict(PER_LAYER)
    return {name: (float(values[name]), units[name]) for name, _ in PER_LAYER}


def _host_line(phase) -> str:
    w = phase.window
    steal = "n/a" if w.steal_s is None else f"{w.steal_s:.3f}"
    return (
        f"host: steal_s={steal} ({w.steal_share():.1%} of "
        f"{os.cpu_count()} CPUs x {w.total_s:.1f} s) proc_cpu_s={w.cpu_s:.3f} "
        f"nproc={os.cpu_count()} "
        f"PYTHONHASHSEED={os.environ.get('PYTHONHASHSEED', 'unset')}"
    )


def _print_result(attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))


def run(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}; nothing to measure",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work_dir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    tracer = spanlib.Tracer()
    state = None
    try:
        state, setup_times = _setup(args, tracer, work_dir)
        calibration = None
        if args.trace:
            calibration = state.run_phase(args.seconds * UNTRACED_SHARE)
            tracer.on = True
            phase = state.run_phase(args.seconds * (1 - UNTRACED_SHARE))
            tracer.on = False
        else:
            phase = state.run_phase(args.seconds)
    finally:
        if state is not None:
            state.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    phases = [phase] if calibration is None else [calibration, phase]
    attempted = sum(p.ops for p in phases)
    failed = sum(p.failed for p in phases)
    print(f"workload {args.workload} seed {args.seed}: {attempted} ops, "
          f"{failed} failed, window {phase.window.wall_s:.3f} s")
    print(_host_line(phase))
    if phase.window.steal_share() > STEAL_WARN_SHARE:
        print(f"warning: host steal was {phase.window.steal_share():.0%} of "
              "CPU capacity during the window; wall-clock metrics of this "
              "run are inflated (the run is kept)", file=sys.stderr)
    if args.trace:
        total_s = phase.window.wall_s * phase.clients
        out = ROOT / ".perfbench-out"
        out.mkdir(exist_ok=True)
        path = out / f"spans-{args.workload}-seed{args.seed}.json"
        spanlib.write_spans(path, tracer.spans, total_s, phase.ops,
                            {"workload": args.workload, "seed": args.seed})
        print(f"spans: {len(tracer.spans)} written to {path}")
        print(spanlib.render_table(tracer.spans, total_s, phase.ops))
        untraced = calibration.ops / calibration.window.wall_s
        metrics = per_layer(phase, tracer.spans, untraced)
        for name, (value, unit) in metrics.items():
            print(f"  {name:42s} {value:14.4f} {unit}")
    else:
        metrics, lines = end_to_end(phase, setup_times)
        print("\n".join(lines))
    _print_result(attempted, failed, metrics)
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="print the self-time table of a span file")
    args = parser.parse_args(argv)
    if args.spans:
        payload = spanlib.read_spans(args.spans)
        print(spanlib.render_table(payload["spans"], payload["total_s"],
                                   payload["ops"]))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
