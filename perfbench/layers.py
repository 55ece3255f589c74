"""Per-layer attribution for the traced benchmark run.

Two sources feed the per-layer numbers, and neither needs a change to the
program under test:

* **wrappers** (:func:`install`) around public functions and methods of the
  layers.  Each opens a ``repro.obs`` span, so the wrapper spans land in the
  same JSONL sink, and under the same parents, as the spans the program
  already emits (``session.request``, ``service.run``, ``scheduler.queue``,
  ``worker.shard``, ``engine.store_restore``, ``engine.kernel_build``,
  ``kernel.build_planes``).  Installed before a pool or fleet forks, the
  wrappers are inherited by the worker processes as well;
* **folding** (:func:`fold`): every span's self time is its duration minus
  the part of its interval that its children cover, and each span name
  belongs to one layer (:data:`LAYER_OF`).  Time in the benchmark's own
  root span, or in a span no layer claims, is *unattributed*.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

#: Span name -> layer.  ``None`` marks the benchmark's per-request root.
LAYER_OF: Dict[str, Optional[str]] = {
    "bench.request": None,
    "session.call": "session",
    "session.request": "session",
    "engine.task": "engine",
    "slp.prepare": "slp.prepare",
    "slp.io_load": "slp.io_load",
    "spanner.prepare": "spanner.prepare",
    "engine.kernel_build": "core.kernels.build",
    "core.kernels.build": "core.kernels.build",
    "kernel.build_planes": "core.kernels.build",
    "core.counting.tables": "core.counting.tables",
    "core.computation.compute": "core.computation.compute",
    "core.enumeration.first": "core.enumeration.first",
    "core.enumeration.stream": "core.enumeration.stream",
    "core.membership": "core.membership",
    "engine.store_restore": "store.load",
    "store.load": "store.load",
    "store.save": "store.save",
    "parallel.call": "parallel",
    "worker.shard": "worker.dispatch",
    "service.client": "service.wire",
    "service.run": "service.scheduler.overhead",
    "scheduler.queue": "service.scheduler.queue",
}


class _Patch:
    """Remembers every attribute :func:`install` replaced, to undo it."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        # An inherited method has no entry of its own: undo deletes ours.
        self._saved.append((owner, name, vars(owner).get(name, _INHERITED)))
        setattr(owner, name, value)

    def undo(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            if value is _INHERITED:
                delattr(owner, name)
            else:
                setattr(owner, name, value)


_INHERITED = object()


def _spanned(name: str, fn: Callable[..., Any], tags: Optional[Callable[..., Dict[str, Any]]] = None):
    from repro.obs.trace import get_tracer

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        extra = tags(*args, **kwargs) if tags is not None else {}
        with get_tracer().span(name, **extra):
            return fn(*args, **kwargs)

    return wrapper


def _store_call(name: str, fn: Callable[..., Any], byte_counter: str):
    """A store read or write, its span tagged with this call's bytes (the
    process's own counter delta) and, for a read, whether it hit."""
    from repro.obs.metrics import get_registry
    from repro.obs.trace import get_tracer

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        counter = get_registry().counter(byte_counter)
        before = counter.value
        result = None
        with get_tracer().span(name) as handle:
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span = getattr(handle, "span", None)
                if span is not None:
                    span.tags.update(bytes=counter.value - before, hit=result is not None)

    return wrapper


def _traced_stream(stream: Iterator[Any]) -> Iterator[Any]:
    """Time-to-first-result, then the rest of the stream, as two spans.

    The spans are opened off the thread's span stack: between two results
    control is in the consumer, which must not nest under the stream.
    """
    from repro.obs.trace import get_tracer

    tracer = get_tracer()
    first_span = tracer.begin("core.enumeration.first")
    try:
        first = next(stream)
    except StopIteration:
        return
    finally:
        first_span.finish()
    rest_span = tracer.begin("core.enumeration.stream")
    try:
        yield first
        yield from stream
    finally:
        rest_span.finish()
        close = getattr(stream, "close", None)
        if close is not None:
            close()


def install(reports: Optional[List[Any]] = None) -> _Patch:
    """Wrap the layers' public entry points; returns the undo handle.

    ``reports`` collects the ``ParallelReport`` of every
    ``parallel_batch`` call (the wrapper asks for ``report=True`` and hands
    the caller the items alone, as before).
    """
    import repro.core.prepared as prepared
    import repro.engine.batch as batch
    import repro.engine.engine as engine_mod
    import repro.engine.spec as spec
    import repro.parallel as parallel
    import repro.session as session_mod
    import repro.slp.io as slp_io
    from repro.core.counting import CountingTables
    from repro.service.client import ServiceClient
    from repro.spanner.automaton import SpannerNFA
    from repro.store.prepstore import PreprocessingStore

    patch = _Patch()

    for name in ("ensure_balanced", "pad_slp"):
        patch.set(prepared, name, _spanned("slp.prepare", getattr(prepared, name)))
    for name in ("pad_spanner", "project_to_sigma"):
        patch.set(prepared, name, _spanned("spanner.prepare", getattr(prepared, name)))
    patch.set(
        prepared.PreparedSpanner, "__init__",
        _spanned("spanner.prepare", prepared.PreparedSpanner.__init__),
    )
    for name in ("determinize", "trim"):
        patch.set(SpannerNFA, name, _spanned("spanner.prepare", getattr(SpannerNFA, name)))
    patch.set(slp_io, "load_file", _spanned("slp.io_load", slp_io.load_file))

    def build_tags(slp: Any, automaton: Any, *args: Any, **kwargs: Any) -> Dict[str, Any]:
        return {"rules": slp.size, "q": automaton.num_states}

    patch.set(
        engine_mod, "Preprocessing",
        _spanned("core.kernels.build", engine_mod.Preprocessing, build_tags),
    )
    patch.set(
        CountingTables, "__init__",
        _spanned("core.counting.tables", CountingTables.__init__),
    )
    patch.set(
        engine_mod, "compute_marker_sets",
        _spanned("core.computation.compute", engine_mod.compute_marker_sets),
    )
    for name in ("slp_in_language", "splice_markers"):
        patch.set(engine_mod, name, _spanned("core.membership", getattr(engine_mod, name)))

    enumerate_marker_sets = engine_mod.enumerate_marker_sets

    @functools.wraps(enumerate_marker_sets)
    def traced_enumeration(*args: Any, **kwargs: Any) -> Iterator[Any]:
        return _traced_stream(enumerate_marker_sets(*args, **kwargs))

    patch.set(engine_mod, "enumerate_marker_sets", traced_enumeration)

    run_task = _spanned("engine.task", batch.run_task)
    for module in (batch, session_mod, spec):
        patch.set(module, "run_task", run_task)
    patch.set(
        engine_mod.Engine, "model_check",
        _spanned("engine.task", engine_mod.Engine.model_check),
    )
    patch.set(PreprocessingStore, "load",
              _store_call("store.load", PreprocessingStore.load, "store.restore_bytes"))
    patch.set(PreprocessingStore, "save",
              _store_call("store.save", PreprocessingStore.save, "store.save_bytes"))

    for name in ("count", "evaluate", "enumerate", "is_nonempty", "model_check", "batch"):
        patch.set(
            session_mod.Session, name,
            _spanned("session.call", getattr(session_mod.Session, name)),
        )
    patch.set(ServiceClient, "request", _spanned("service.client", ServiceClient.request))

    parallel_batch = parallel.parallel_batch

    @functools.wraps(parallel_batch)
    def reporting_batch(*args: Any, **kwargs: Any) -> Any:
        from repro.obs.trace import get_tracer

        with get_tracer().span("parallel.call"):
            items, report = parallel_batch(*args, **dict(kwargs, report=True))
        if reports is not None:
            reports.append(report)
        return items

    patch.set(parallel, "parallel_batch", reporting_batch)
    return patch


# -- folding spans into per-layer self time -----------------------------------


def _covered(start: float, end: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[start, end)`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def _reparent(spans: List[Dict[str, Any]]) -> None:
    """Attach daemon-side spans to the client round trip that caused them.

    ``service.run`` parents to the client's ``session.request`` (the
    context that rides the wire), beside the benchmark's ``service.client``
    span that times the round trip; and the ``check`` op opens no span of
    its own, so its wrapper spans in the daemon start new traces.  Both
    move under the innermost ``service.client`` span containing them in
    time, so the round trip's self time is the wire.
    """
    clients = [s for s in spans if s["name"] == "service.client"]
    if not clients:
        return
    clients.sort(key=lambda s: s["start"])
    for span in spans:
        if span["name"] != "service.run" and span.get("parent") is not None:
            continue
        if span["name"] == "bench.request":
            continue
        best = None
        for client in clients:
            if client["start"] > span["start"]:
                break
            if client["end"] >= span["end"] and (
                best is None or client["start"] >= best["start"]
            ):
                best = client
        if best is not None:
            span["parent"] = best["span"]


def reachable(spans: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The finished spans, from every process, under a ``bench.request``.

    Spans outside any request (set-up, warm-up, the benchmark's own
    metrics calls) are left out.
    """
    spans = [s for s in spans if s.get("end") is not None]
    _reparent(spans)
    by_parent: Dict[Optional[str], List[Dict[str, Any]]] = defaultdict(list)
    for span in spans:
        by_parent[span.get("parent")].append(span)
    found: List[Dict[str, Any]] = []
    frontier = [s for s in spans if s["name"] == "bench.request"]
    while frontier:
        found.extend(frontier)
        frontier = [c for s in frontier for c in by_parent.get(s["span"], ())]
    return found


def fold(spans: List[Dict[str, Any]]) -> Tuple[Dict[str, float], float, float]:
    """``(self seconds per layer, unattributed seconds, root seconds)``.

    ``spans`` come from :func:`reachable`.  Root time is the summed
    duration of the benchmark's ``bench.request`` spans: the end-to-end
    time being attributed.
    """
    children: Dict[Optional[str], List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        children[span.get("parent")].append((span["start"], span["end"]))
    layers: Dict[str, float] = defaultdict(float)
    unattributed = 0.0
    root = 0.0
    for span in spans:
        start, end = span["start"], span["end"]
        own = (end - start) - _covered(start, end, children.get(span["span"], ()))
        own = max(own, 0.0)
        name = span["name"]
        if name == "bench.request":
            root += end - start
            unattributed += own
        elif LAYER_OF.get(name) is None:
            unattributed += own
        else:
            layers[LAYER_OF[name]] += own
    return dict(layers), unattributed, root


def durations(spans: List[Dict[str, Any]], name: str) -> List[float]:
    """Durations in seconds of the finished spans called ``name``."""
    return [s["end"] - s["start"] for s in spans if s["name"] == name and s.get("end")]
