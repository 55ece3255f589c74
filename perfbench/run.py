"""The repository benchmark: one seeded workload, end-to-end or per-layer.

Run from the root of a checkout (the program is imported from ``src/``)::

    python3 perfbench/run.py --workload adhoc_cold --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off and faults
disarmed.  ``--trace 1`` runs the workload twice, untraced and then with
the layer wrappers of ``layers.py`` and a ``repro.obs`` sink, and reports
per-layer self time.  Lines starting with ``#`` are the human-readable
report (every metric with its unit and sample count, the input
properties, any failures); the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit status: 0 when every result was right and nothing was left running,
1 when a result was wrong or a process, socket or spill directory was left
behind (the JSON line still prints), 2 when the benchmark cannot run here
(no ``src/repro``, ``REPRO_FAULTS`` or ``REPRO_TRACE`` set, bad arguments).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import struct
import sys
import tempfile
import time
from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("adhoc_cold", "daemon_warm", "corpus_churn")
#: Set-up runs per benchmark run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def _parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="tiny inputs and one set-up (the self-test)",
    )
    parser.add_argument(
        "--corrupt", type=int, default=0, metavar="K",
        help="falsify the result of the K-th request before it is checked "
        "(the self-test of the checks; 0 = never)",
    )
    return parser.parse_args(argv)


# -- statistics -------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 < q < 1``) of ``values``."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(q * len(ordered) + 0.5)) - 1))
    return ordered[rank]


def tail(values: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-quantile when at least ten samples lie beyond it, else ``None``."""
    if len(values) * (1.0 - q) < 10:
        return None
    return percentile(values, q)


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it reaped (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# -- leftovers ----------------------------------------------------------------------


def leftovers(tmp: str) -> List[str]:
    """Processes, sockets and spill directories a run failed to clean up."""
    import multiprocessing

    from workloads import _alive, _children

    found = [f"child process {p.pid}" for p in multiprocessing.active_children()]
    found += [f"child process {pid}" for pid in _children(os.getpid()) if _alive(pid)]
    for name in os.listdir(tmp):
        found.append(f"temporary entry {name}")
    return found


# -- one measured phase --------------------------------------------------------------


def _setup(factory: Any, seed: int, ctx: Any, rounds: int) -> Tuple[Any, List[float]]:
    """Set up ``rounds`` times from scratch; keep the last system running."""
    times = []
    workload = None
    for round_index in range(rounds):
        round_ctx = replace(ctx, workdir=os.path.join(ctx.workdir, f"r{round_index}"))
        os.makedirs(round_ctx.workdir)
        candidate = factory(seed, round_ctx)
        started = time.perf_counter()
        candidate.setup()
        times.append(time.perf_counter() - started)
        if round_index < rounds - 1:
            candidate.teardown()
            shutil.rmtree(round_ctx.workdir, ignore_errors=True)
        else:
            workload = candidate
    return workload, times


def measure(factory: Any, seed: int, ctx: Any, rounds: int) -> Dict[str, Any]:
    """Set up, run the closed loop, tear down, check: one phase's raw figures."""
    workload, setup_times = _setup(factory, seed, ctx, rounds)
    try:
        workload.references()
        gc.collect()
        phase = workload.run(ctx.seconds)
    finally:
        workload.teardown()
    rss = peak_rss_mb()
    workload.verify(phase)
    return {
        "workload": workload,
        "phase": phase,
        "setup_times": setup_times,
        "rss": rss,
        "orphans": list(getattr(workload, "orphans", [])),
    }


def end_to_end(raw: Dict[str, Any]) -> Tuple[Dict[str, Tuple[float, str]], List[str]]:
    """The contract metrics, and report lines for every end-to-end metric."""
    phase, workload = raw["phase"], raw["workload"]
    ok = [s for s in phase.samples if s.ok]
    latencies = [s.latency * 1000.0 for s in ok] or [0.0]  # nothing completed
    n = len(latencies)
    items_per_s = _items_per_s(phase)
    typical = _typical_latencies(phase)
    metrics = {
        "setup_s": (statistics.median(raw["setup_times"]), "s"),
        "items_per_s": (items_per_s, "1/s"),
        "request_p50_ms": (statistics.median(
            [t * 1000.0 for t in typical or phase.slice_p50] or latencies), "ms"),
        "peak_rss_mb": (raw["rss"], "MiB"),
    }
    lines = [
        f"metric setup_s = {metrics['setup_s'][0]:.4f} s "
        f"(median of {len(raw['setup_times'])} set-ups)",
        f"metric items_per_s = {items_per_s:.4f} 1/s ({_rate_basis(phase, typical)}; "
        f"{sum(s.items for s in ok)} tasks in {phase.elapsed:.3f} s)",
        f"metric request_p50_ms = {metrics['request_p50_ms'][0]:.4f} ms (n={n}"
        + (f", median over {len(typical)} requests of each one's median" if typical else "")
        + (f", median of {len(phase.slice_p50)} windows' medians" if phase.slice_p50 else "")
        + ")",
    ]
    for label, q in (("request_p90_ms", 0.90), ("request_p99_ms", 0.99)):
        value = tail(latencies, q)
        shown = f"{value:.4f} ms" if value is not None else "n/a ms (fewer than 10 samples beyond)"
        lines.append(f"metric {label} = {shown} (n={n})")
    attempted = len(phase.samples)
    failed = attempted - len(ok)
    lines.append(f"metric failed_ratio = {failed / attempted if attempted else 0.0:.6f} ratio "
                 f"({failed} of {attempted})")
    lines.append(f"metric peak_rss_mb = {raw['rss']:.2f} MiB")
    store_bytes = getattr(workload, "store_bytes", None)
    if store_bytes is not None:
        lines.append(f"metric store_mb = {store_bytes / 2**20:.4f} MiB")
    if phase.enum_first:
        firsts = [t * 1000.0 for t in phase.enum_first]
        delays = [t * 1e6 for t in phase.enum_delays]
        lines.append(
            f"metric enum_first_ms_p50 = {statistics.median(firsts):.4f} ms (n={len(firsts)})"
        )
        lines.append(
            f"metric enum_delay_p50_us = {statistics.median(delays):.4f} us (n={len(delays)})"
        )
        p90 = tail(delays, 0.90)
        lines.append(
            f"metric enum_delay_p90_us = "
            f"{'n/a' if p90 is None else f'{p90:.4f}'} us (n={len(delays)})"
        )
    return metrics, lines


# -- the traced run -------------------------------------------------------------------


def per_layer(untraced: Dict[str, Any], traced: Dict[str, Any], sink: str,
              reports: List[Any]) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics from the traced phase's spans and counters.

    Every ``*_ms`` layer metric is self time per request (so the layers
    and ``unattributed_ratio`` add up to the mean request latency), except
    ``core.enumeration.first_ms``, the median time to the first result of
    an enumeration.
    """
    from layers import durations, fold, reachable
    from repro.obs.trace import read_trace

    phase, workload = traced["phase"], traced["workload"]
    spans = reachable(read_trace(sink))
    layers, unattributed, root = fold(spans)
    n = max(1, len(phase.samples))

    def per_request(layer: str) -> float:
        return layers.get(layer, 0.0) * 1000.0 / n

    builds = [s for s in spans if s["name"] == "core.kernels.build"]
    build_seconds = sum(s["end"] - s["start"] for s in builds)
    rules = sum((s.get("tags") or {}).get("rules", 0) for s in builds)
    firsts = durations(spans, "core.enumeration.first")
    counters = workload.layer_counters()
    metrics: Dict[str, Tuple[float, str]] = {
        "slp.compress_s": (workload.compress_s, "s"),
        "slp.prepare_ms": (per_request("slp.prepare"), "ms"),
        "slp.io_load_ms": (per_request("slp.io_load"), "ms"),
        "spanner.prepare_ms": (per_request("spanner.prepare"), "ms"),
        "spanner.q_mean": (workload.properties()["q_mean"], "count"),
        "core.kernels.build_ms": (per_request("core.kernels.build"), "ms"),
        "core.kernels.rules_per_s": (rules / build_seconds if build_seconds else 0.0, "1/s"),
        "core.kernels.builds": (float(len(builds)), "count"),
        "core.counting.tables_ms": (per_request("core.counting.tables"), "ms"),
        "core.computation.compute_ms": (per_request("core.computation.compute"), "ms"),
        "core.enumeration.first_ms": (
            statistics.median(firsts) * 1000.0 if firsts else 0.0, "ms"),
        "core.enumeration.stream_ms": (per_request("core.enumeration.stream"), "ms"),
        "core.membership.ms": (per_request("core.membership"), "ms"),
        "engine.overhead_ms": (per_request("engine"), "ms"),
        "engine.prep_hit_ratio": (counters.get("engine.prep_hit_ratio", 0.0), "ratio"),
        "engine.counting_hit_ratio": (counters.get("engine.counting_hit_ratio", 0.0), "ratio"),
        "store.load_ms": (per_request("store.load"), "ms"),
        "store.save_ms": (per_request("store.save"), "ms"),
        "session.overhead_ms": (per_request("session"), "ms"),
        "worker.dispatch_ms": (per_request("worker.dispatch"), "ms"),
        "service.wire_ms": (per_request("service.wire"), "ms"),
        "service.scheduler.queue_ms": (per_request("service.scheduler.queue"), "ms"),
        "service.scheduler.overhead_ms": (per_request("service.scheduler.overhead"), "ms"),
        "service.worker_shard_ms": (0.0, "ms"),
    }
    metrics.update(_store_and_pool(spans, reports, workload))
    metrics.update(_protocol(workload))
    if workload.name == "daemon_warm":
        shard = sum(durations(spans, "worker.shard"))
        metrics["service.worker_shard_ms"] = (shard * 1000.0 / n, "ms")
    untraced_rate = _items_per_s(untraced["phase"])
    metrics["obs.trace_overhead_ratio"] = (
        _items_per_s(phase) / untraced_rate if untraced_rate else 0.0, "ratio")
    metrics["unattributed_ratio"] = (unattributed / root if root else 0.0, "ratio")
    return metrics


def _typical_latencies(phase: Any) -> List[float]:
    """Each keyed request's median latency over the passes that ran it.

    A pass runs every request once, so a stretch of the run slowed by a
    neighbour on the machine moves a request's median only if it covers
    most of the passes.  Empty when the samples carry no keys.
    """
    by_key: Dict[Any, List[float]] = {}
    for sample in phase.samples:
        if sample.ok and sample.key is not None:
            by_key.setdefault(sample.key, []).append(sample.latency)
    return [statistics.median(times) for times in by_key.values()]


def _items_per_s(phase: Any) -> float:
    """Tasks per second: one pass of typical latencies, the median of the
    phase's per-slice rates, or else its overall rate."""
    typical = _typical_latencies(phase)
    if typical:
        return len(typical) / sum(typical)
    if phase.rates:
        return statistics.median(phase.rates)
    return sum(s.items for s in phase.samples if s.ok) / phase.elapsed


def _rate_basis(phase: Any, typical: Sequence[float]) -> str:
    if typical:
        passes = len(phase.samples) / len(typical)
        return f"{len(typical)} requests at their median latency over {passes:.1f} passes"
    return f"median of {len(phase.rates) or 1} slices"


def _store_and_pool(spans: List[Dict[str, Any]], reports: List[Any],
                    workload: Any) -> Dict[str, Tuple[float, str]]:
    """Store figures from the store spans; pool figures from the spans and
    the ``parallel_batch(report=True)`` reports (whose worker cache counters
    replace the engine hit ratios when there is a pool)."""
    retries = 0
    prep = {"hits": 0, "misses": 0}
    counting = {"hits": 0, "misses": 0}
    for report in reports:
        retries += report.retries
        cache = report.cache_stats
        for key, table in (("preprocessings", prep), ("counting", counting)):
            if key in cache:
                table["hits"] += cache[key].hits
                table["misses"] += cache[key].misses
    calls = [s for s in spans if s["name"] == "parallel.call"]
    shards_by_call: Dict[str, Dict[int, float]] = {s["span"]: {} for s in calls}
    for span in spans:
        busy = shards_by_call.get(span.get("parent"))
        if span["name"] == "worker.shard" and busy is not None:
            busy[span["pid"]] = busy.get(span["pid"], 0.0) + span["end"] - span["start"]
    wall = sum(s["end"] - s["start"] for s in calls)
    overhead = sum(
        (s["end"] - s["start"]) - max(shards_by_call[s["span"]].values(), default=0.0)
        for s in calls
    )
    busy_total = sum(sum(b.values()) for b in shards_by_call.values())
    loads = [s.get("tags") or {} for s in spans if s["name"] == "store.load"]
    saves = [s.get("tags") or {} for s in spans if s["name"] == "store.save"]
    hits = sum(1 for tags in loads if tags.get("hit"))
    metrics: Dict[str, Tuple[float, str]] = {
        "store.hit_ratio": (hits / len(loads) if loads else 0.0, "ratio"),
        "store.bytes_read": (float(sum(t.get("bytes", 0) for t in loads)), "bytes"),
        "store.bytes_written": (float(sum(t.get("bytes", 0) for t in saves)), "bytes"),
        "parallel.overhead_ms": (overhead * 1000.0 / len(calls) if calls else 0.0, "ms"),
        "parallel.worker_busy_ratio": (busy_total / (2 * wall) if wall else 0.0, "ratio"),
        "parallel.retries": (float(retries), "count"),
        "parallel.builds_per_distinct_digest": (0.0, "ratio"),
    }
    if calls:
        new_pairs = len(workload.fresh[0]) // workload.duplication * len(workload.specs)
        builds_in_calls = sum(1 for s in spans if s["name"] == "core.kernels.build")
        metrics["parallel.builds_per_distinct_digest"] = (
            builds_in_calls / (new_pairs * len(calls)), "ratio")
        metrics["engine.prep_hit_ratio"] = (_ratio(prep), "ratio")
        metrics["engine.counting_hit_ratio"] = (_ratio(counting), "ratio")
    return metrics


def _ratio(table: Dict[str, int]) -> float:
    total = table["hits"] + table["misses"]
    return table["hits"] / total if total else 0.0


def _protocol(workload: Any) -> Dict[str, Tuple[float, str]]:
    """Wire codec cost, replayed on the daemon responses the run received."""
    from repro.service import protocol

    payloads = getattr(workload, "payloads", [])[:600]
    encode, decode, sizes = [], [], []
    for task, result in payloads:
        started = time.perf_counter()
        frame = protocol.pack_frame(protocol.ok_response(
            1, {"task": task, "results": [protocol.encode_result(task, result)]}))
        middle = time.perf_counter()
        (length,) = struct.unpack(">I", frame[:4])  # the frame's length prefix
        body = json.loads(frame[4:4 + length].decode("utf-8"))
        decoded = [protocol.decode_result(body["result"]["task"], v)
                   for v in body["result"]["results"]]
        finished = time.perf_counter()
        if decoded != [result]:
            raise AssertionError("protocol replay changed a result")
        encode.append((middle - started) * 1e6)
        decode.append((finished - middle) * 1e6)
        sizes.append(len(frame))
    return {
        "service.protocol.encode_us": (statistics.median(encode) if encode else 0.0, "us"),
        "service.protocol.decode_us": (statistics.median(decode) if decode else 0.0, "us"),
        "service.protocol.frame_bytes": (
            statistics.mean(sizes) if sizes else 0.0, "bytes"),
    }


# -- entry point ---------------------------------------------------------------------


def _refuse(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        return _refuse(f"no program source at {src}/repro: run from a checkout root")
    for var in ("REPRO_FAULTS", "REPRO_TRACE"):
        if os.environ.get(var):
            return _refuse(f"{var} is set; the benchmark measures with faults and tracing off")
    if args.seconds <= 0:
        return _refuse("--seconds must be positive")
    sys.path.insert(0, src)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)

    workdir = os.path.join(root, ".bench_work", f"{args.workload[0]}{os.getpid()}")
    tmp = os.path.join(workdir, "tmp")
    os.makedirs(tmp)
    # Everything the program writes through tempfile (spill directories)
    # stays inside the checkout, where the leftover check can see it.
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = tmp
    try:
        report, metrics, attempted, failed, problems = _run(args, root, workdir, tmp)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, ".bench_work"))
        except OSError:
            pass
    for line in report:
        print(f"# {line}")
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def _run(args: argparse.Namespace, root: str, workdir: str,
         tmp: str) -> Tuple[List[str], Dict[str, Tuple[float, str]], int, int, List[str]]:
    from workloads import WORKLOADS, Context

    factory = WORKLOADS[args.workload]
    rounds = 1 if (args.tiny or args.trace) else SETUP_REPEATS
    ctx = Context(root=root, workdir=os.path.join(workdir, "plain"), tiny=args.tiny,
                  seconds=args.seconds, corrupt=args.corrupt)
    if args.trace:
        # The untraced reference for obs.trace_overhead_ratio.
        ctx = replace(ctx, seconds=args.seconds / 2)
    raw = measure(factory, args.seed, ctx, rounds)
    runs = [raw]
    if args.trace:
        from layers import install

        sink = os.path.join(workdir, "trace.jsonl")
        reports: List[Any] = []
        patch = install(reports)
        try:
            traced_ctx = replace(ctx, workdir=os.path.join(workdir, "traced"),
                                 seconds=args.seconds, trace_sink=sink, corrupt=0)
            traced = measure(factory, args.seed, traced_ctx, 1)
        finally:
            patch.undo()
        from repro.obs.trace import get_tracer

        get_tracer().configure(None)
        runs.append(traced)
        metrics = per_layer(raw, traced, sink, reports)
    else:
        metrics, _ = end_to_end(raw)

    workload = raw["workload"]
    report = [f"workload {args.workload} seed {args.seed} trace {args.trace}: {factory.why}"]
    report.append("inputs " + json.dumps(workload.properties(), sort_keys=True))
    _, lines = end_to_end(raw)
    report += lines
    if args.trace:
        report += [f"layer {name} = {value!r} {unit}" for name, (value, unit) in metrics.items()]
    attempted = sum(len(r["phase"].samples) for r in runs)
    failed = sum(sum(1 for s in r["phase"].samples if not s.ok) for r in runs)
    problems = [f"left behind: {item}" for r in runs for item in r["orphans"]]
    problems += [f"left behind: {item}" for item in leftovers(tmp)]
    for r in runs:
        report += [f"failure {text}" for text in r["phase"].failures[:20]]
    report += problems
    return report, metrics, attempted, failed, problems


if __name__ == "__main__":
    sys.exit(main())
