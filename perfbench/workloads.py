"""The three benchmark workloads, each a seeded closed loop over the public API.

Every workload generates its inputs from the workload seed during set-up,
hands the program only those inputs (compressed documents, spanners, file
paths), runs passes of requests in seeded, shuffled, iteration-major
order until the run's seconds are spent, and checks every
result against references computed outside the timed phase.

* ``adhoc_cold`` — one caller, a serial in-process ``Session``; every
  request is a (spanner, document) pair the session has not seen, so each
  one pays balancing/padding, automaton preparation, the Lemma 6.5 build
  and the task itself.  Kernel work dominates; wire, scheduler, store and
  pool are idle.  This is where a faster plane build or counting
  recurrence must show.
* ``daemon_warm`` — a ``repro-spanner serve`` daemon with a 2-worker fleet
  and no store, two client connections each running a closed loop of small
  requests over pairs warmed during set-up.  No Lemma 6.5 build runs; the
  cost is client, protocol, server, scheduler and worker dispatch, plus
  the membership products of ``nonempty`` and ``model_check``.
* ``corpus_churn`` — one caller running ``Session(jobs=2,
  store_dir=...).batch(...)`` (the ``repro batch --jobs N`` path) over a
  24-file ``.slpb`` corpus with duplication 3, where a quarter of every
  batch is content the store has never seen: store reads and writes, pool
  spawn, sharding and ``.slpb`` loading in one call.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import Session, compile_spanner, connect
from repro.baselines import UncompressedEvaluator
from repro.engine.spec import SpannerSpec
from repro.slp import io as slp_io
from repro.slp.repair import repair_slp
from repro.spanner.spans import Span, SpanTuple
from repro.workloads.documents import LOG_ALPHABET, block_text, dna, server_log

USERS = ("alice", "bob", "carol", "dave", "erin", "frank", "grace", "heidi")
ACTIONS = ("login", "logout", "read", "write", "delete", "share")
LOG_SIGMA = "".join(sorted(LOG_ALPHABET))
DNA_SIGMA = "acgt"
ENUM_LIMIT_COLD = 200
ENUM_LIMIT_WARM = 100


@dataclass
class Sample:
    """One public call of the timed phase."""

    latency: float
    items: int
    ok: bool
    done: float = 0.0  # completion time (perf_counter), where windows need it
    #: The request repeated once a pass (``adhoc_cold``'s pair), where the
    #: metrics are taken per request across passes.
    key: Any = None


@dataclass
class Phase:
    """What one timed phase measured."""

    samples: List[Sample] = field(default_factory=list)
    elapsed: float = 0.0
    #: Completed tasks per second in each slice of the phase (a call, or a
    #: time window) where slices are many; ``items_per_s`` is their median,
    #: so one slice slowed by a neighbour on the machine does not move it.
    #: Empty when the samples carry keys (``adhoc_cold``).
    rates: List[float] = field(default_factory=list)
    #: The median latency of each time window, where the phase has windows
    #: (``daemon_warm``); ``request_p50_ms`` is their median, for the same reason.
    slice_p50: List[float] = field(default_factory=list)
    enum_first: List[float] = field(default_factory=list)
    enum_delays: List[float] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)


@dataclass
class Context:
    """Where and how a workload runs."""

    root: str
    workdir: str
    tiny: bool
    seconds: float
    corrupt: int = 0
    trace_sink: Optional[str] = None


def _motif(rng: random.Random, length: int) -> str:
    return "".join(rng.choice(DNA_SIGMA) for _ in range(length))


def _pass_order(items: Sequence[Any], iteration: int, seed: int, stream: int = 0) -> List[Any]:
    """One pass, shuffled by ``iteration ^ seed`` (and the client stream)."""
    order = list(items)
    random.Random(f"{iteration ^ seed}/{stream}").shuffle(order)
    return order


def _corrupted(result: Any) -> Any:
    """A deliberately wrong copy of ``result`` (self-test of the checks)."""
    if isinstance(result, bool):
        return not result
    if isinstance(result, int):
        return result + 1
    if isinstance(result, frozenset):
        return frozenset(list(result)[1:]) if result else frozenset({SpanTuple({})})
    if isinstance(result, list):
        return result[1:] if result else [SpanTuple({})]
    return None


def _grammar_properties(slps: Sequence[Any], texts: Sequence[str]) -> Dict[str, Any]:
    return {
        "documents": len(slps),
        "size_S_mean": sum(s.size for s in slps) / len(slps),
        "doc_length_mean": sum(len(t) for t in texts) / len(texts),
        "depth_max": max(s.depth() for s in slps),
    }


def _spanner_properties(spanners: Sequence[Any]) -> Dict[str, Any]:
    from repro.core.prepared import PreparedSpanner

    qs = [PreparedSpanner(sp).padded_dfa.num_states for sp in spanners]
    xs = [len(sp.variables) for sp in spanners]
    return {
        "spanners": len(spanners),
        "q_mean": sum(qs) / len(qs),
        "q_max": max(qs),
        "vars_min": min(xs),
        "vars_max": max(xs),
    }


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int, ctx: Context) -> None:
        self.seed = seed
        self.ctx = ctx
        self.compress_s = 0.0
        self.request_index = 0
        self.counters: Dict[str, float] = {}

    def setup(self) -> None:
        """Generate and compress the inputs and bring the system up."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Stop whatever :meth:`setup` started."""

    def references(self) -> None:
        """Expected results needed during the timed phase (not timed)."""

    def run(self, seconds: float) -> Phase:
        """The closed loop: whole passes until ``seconds`` have elapsed."""
        raise NotImplementedError

    def verify(self, phase: Phase) -> None:
        """Check results kept by :meth:`run`; mark wrong ones failed."""

    def properties(self) -> Dict[str, Any]:
        """The input properties the metrics depend on."""
        raise NotImplementedError

    def layer_counters(self) -> Dict[str, float]:
        """Hit ratios the workload observed through public counters."""
        return dict(self.counters)

    def _compress(self, text: str) -> Any:
        started = time.perf_counter()
        slp = repair_slp(text)
        self.compress_s += time.perf_counter() - started
        return slp

    def _next_index(self) -> int:
        self.request_index += 1
        return self.request_index

    def _maybe_corrupt(self, index: int, result: Any) -> Any:
        return _corrupted(result) if index == self.ctx.corrupt else result

    def _root(self) -> Any:
        """The benchmark's span around one public call (traced runs only)."""
        if self.ctx.trace_sink is None:
            return contextlib.nullcontext()
        from repro.obs.trace import get_tracer

        return get_tracer().span("bench.request", path=self.ctx.trace_sink)

    def _session(self, **overrides: Any) -> Session:
        if self.ctx.trace_sink is not None:
            overrides["trace"] = self.ctx.trace_sink
        return connect(**overrides)


# -- adhoc_cold ----------------------------------------------------------------


class AdhocCold(Workload):
    name = "adhoc_cold"
    why = (
        "serial in-process Session over distinct cold (spanner, document) pairs: "
        "the Lemma 6.5 build and counting dominate, wire/scheduler/store/pool idle"
    )

    @staticmethod
    def _log_slots(rng: random.Random) -> List[Tuple[str, str]]:
        u1, u2 = rng.sample(USERS, 2)
        a1, a2 = rng.sample(ACTIONS, 2)
        key = rng.choice(("user", "action"))
        return [
            ("count", rf".*{key}=(?P<value>[a-z]+) .*"),
            ("enumerate", rf".*user=(?P<user>{u1}) action=(?P<action>[a-z]+) .*"),
            ("count", rf".*user=(?P<user>[a-z]+) action=(?P<action>{a1}) .*"),
            ("enumerate", rf".*action=(?P<action>{a2}) status=(?P<status>[0-9]+).*"),
            ("evaluate", rf".*user=(?P<user>{u2}) .*"),
            ("enumerate", r".*user=(?P<user>[a-z]+) action=(?P<action>[a-z]+) .*"),
        ]

    @staticmethod
    def _dna_slots(rng: random.Random) -> List[Tuple[str, str]]:
        m = [_motif(rng, 4) for _ in range(6)]
        return [
            ("count", rf".*(?P<m>{m[0]}).*"),
            ("enumerate", rf".*(?P<m>{m[1][:2]}[{m[1][2]}{m[1][3]}]{_motif(rng, 2)}).*"),
            ("enumerate", rf".*(?P<m1>{m[2]}).*(?P<m2>{m[3]}).*"),
            ("enumerate", rf".*(?P<m>{m[4]}).*"),
            ("evaluate", rf".*(?P<m>{_motif(rng, 5)}).*"),
            ("count", rf".*(?P<m1>{m[5]}).*(?P<m2>{_motif(rng, 4)}).*"),
        ]

    def setup(self) -> None:
        rng = random.Random(self.seed)
        # Many mid-sized documents rather than a few large ones: a run then
        # averages over enough documents that the seed moves it little.
        n_docs = 1 if self.ctx.tiny else 4
        lines, bases = (60, 2000) if self.ctx.tiny else (400, 12000)
        self.texts: List[str] = []
        self.kinds: List[str] = []
        for _ in range(n_docs):
            self.texts.append(server_log(lines, USERS, ACTIONS, seed=rng.randrange(2**31)))
            self.kinds.append("log")
        for _ in range(n_docs):
            self.texts.append(dna(bases, seed=rng.randrange(2**31)))
            self.kinds.append("dna")
        self.slps = [self._compress(text) for text in self.texts]
        # One (task, spanner) list per document: every pair is distinct.
        # The spanners come from a fixed-seed generator, so every run sees
        # the same mix of q, |X| and selectivity; the seed varies the
        # documents and the order.
        spanner_rng = random.Random(0)
        self.slots: List[List[Tuple[str, Any]]] = []
        for kind in self.kinds:
            if kind == "log":
                table = self._log_slots(spanner_rng)
            else:
                table = self._dna_slots(spanner_rng)
            sigma = LOG_SIGMA if kind == "log" else DNA_SIGMA
            self.slots.append(
                [(task, compile_spanner(rx, alphabet=sigma)) for task, rx in table]
            )
        self.pairs = [
            (d, s) for d in range(len(self.slps)) for s in range(len(self.slots[d]))
        ]

    def run(self, seconds: float) -> Phase:
        phase = Phase()
        self.results: List[Tuple[int, int, int, Any]] = []
        cached = {"prep": [0, 0], "counting": [0, 0]}  # hits, misses
        started = time.perf_counter()
        paused = 0.0
        for iteration in itertools.count():
            # A fresh session per pass: every pair is cold again.  The last
            # pass stops where the seconds run out; each pair's median over
            # the passes that ran it is what the metrics use.
            with self._session() as session:
                for d, s in _pass_order(self.pairs, iteration, self.seed):
                    self._request(session, d, s, phase)
                    if time.perf_counter() - started - paused >= seconds:
                        break
                cache = session.stats()["cache"]
            for key, layer in (("prep", "preprocessings"), ("counting", "counting")):
                cached[key][0] += cache[layer].hits
                cached[key][1] += cache[layer].misses
            del session
            if time.perf_counter() - started - paused >= seconds:
                break
            # Free the finished pass's cache before the next one fills, so
            # the peak resident set is one session's working set; untimed.
            collecting = time.perf_counter()
            gc.collect()
            paused += time.perf_counter() - collecting
        phase.elapsed = time.perf_counter() - started - paused
        self.counters = {
            "engine.prep_hit_ratio": _ratio(*cached["prep"]),
            "engine.counting_hit_ratio": _ratio(*cached["counting"]),
        }
        return phase

    def _request(self, session: Session, d: int, s: int, phase: Phase) -> None:
        task, spanner = self.slots[d][s]
        slp = self.slps[d]
        index = self._next_index()
        ok = True
        result: Any = None
        t0 = time.perf_counter()
        try:
            with self._root():
                result = self._call(session, task, spanner, slp, t0, phase)
        except Exception as exc:  # a failed request is counted, not fatal
            ok = False
            phase.failures.append(f"{task} pair {d}/{s}: {exc!r}")
        latency = time.perf_counter() - t0
        if ok:
            self.results.append((len(phase.samples), d, s, self._maybe_corrupt(index, result)))
        phase.samples.append(Sample(latency, 1, ok, key=(d, s)))

    @staticmethod
    def _call(session: Session, task: str, spanner: Any, slp: Any, t0: float, phase: Phase) -> Any:
        if task == "count":
            return session.count(spanner, slp)
        if task == "evaluate":
            return session.evaluate(spanner, slp)
        stamps = []
        result = []
        for tup in session.enumerate(spanner, slp, limit=ENUM_LIMIT_COLD):
            stamps.append(time.perf_counter())
            result.append(tup)
        if stamps:
            phase.enum_first.append(stamps[0] - t0)
            phase.enum_delays.extend(b - a for a, b in zip(stamps, stamps[1:]))
        return result

    def verify(self, phase: Phase) -> None:
        """Checks every result; a seeded sample against the uncompressed baseline.

        Every result must agree with every other run of the same pair, and
        an enumeration must be duplicate-free and within its limit.  The
        sample (every pair on tiny inputs) is checked exactly: counts and
        relations equal the baseline's, an enumerated prefix is a subset of
        the baseline relation of the right length.
        """
        executed = sorted({(d, s) for _, d, s, _ in self.results})
        sample_size = len(executed) if self.ctx.tiny else (len(executed) + 1) // 2
        sample = set(random.Random(self.seed).sample(executed, sample_size))
        reference: Dict[Tuple[int, int], Any] = {}
        for d, s in sample:
            _, spanner = self.slots[d][s]
            reference[(d, s)] = UncompressedEvaluator(spanner, self.texts[d]).evaluate()
        first_seen: Dict[Tuple[int, int], Any] = {}
        for at, d, s, result in self.results:
            task = self.slots[d][s][0]
            problem = None
            if first_seen.setdefault((d, s), result) != result:
                problem = "differs from another run of the same pair"
            elif task == "enumerate" and (
                len(set(result)) != len(result) or len(result) > ENUM_LIMIT_COLD
            ):
                problem = "enumeration has duplicates or exceeds its limit"
            elif (d, s) in reference:
                expected = reference[(d, s)]
                if task == "count":
                    bad = result != len(expected)
                elif task == "evaluate":
                    bad = result != expected
                else:
                    bad = not set(result) <= expected or len(result) != min(
                        len(expected), ENUM_LIMIT_COLD
                    )
                if bad:
                    problem = "differs from the uncompressed baseline"
            if problem is not None:
                phase.failures.append(f"{task} pair {d}/{s}: {problem}")
                phase.samples[at].ok = False
        self.reference_checked = len(sample)
        self.result_counts = [
            len(r) if not isinstance(r, int) else r for _, _, _, r in self.results
        ]

    def properties(self) -> Dict[str, Any]:
        props = _grammar_properties(self.slps, self.texts)
        props.update(_spanner_properties([sp for row in self.slots for _, sp in row]))
        counts = getattr(self, "result_counts", []) or [0]
        props.update(
            pairs_per_pass=len(self.pairs),
            results_mean=sum(counts) / len(counts),
            results_max=max(counts),
            reference_checked_pairs=getattr(self, "reference_checked", 0),
        )
        return props



def _ratio(hits: float, misses: float) -> float:
    total = hits + misses
    return hits / total if total else 0.0


# -- daemon_warm ---------------------------------------------------------------


class DaemonWarm(Workload):
    name = "daemon_warm"
    why = (
        "two clients of a 2-worker daemon, small requests over warmed pairs: "
        "client, protocol, server, scheduler and dispatch cost, no Lemma 6.5 build"
    )
    clients = 2

    def setup(self) -> None:
        rng = random.Random(self.seed)
        lines, bases = (40, 1500) if self.ctx.tiny else (150, 4000)
        n_docs = 1 if self.ctx.tiny else 3
        docs = os.path.join(self.ctx.workdir, "docs")
        os.makedirs(docs, exist_ok=True)
        self.texts, self.paths, self.slps = [], [], []
        self.specs: List[List[SpannerSpec]] = []
        for kind in ("log",) * n_docs + ("dna",) * n_docs:
            # The spanners are fixed: this workload is about the serving
            # path, and the membership products behind nonempty and
            # model_check grow with q, which a random choice would vary.
            if kind == "log":
                text = server_log(lines, USERS, ACTIONS, seed=rng.randrange(2**31))
                patterns = [
                    (r".*user=(?P<user>carol) action=(?P<action>[a-z]+) .*", LOG_SIGMA),
                    (r".*action=(?P<action>share) status=(?P<status>[0-9]+).*", LOG_SIGMA),
                ]
            else:
                text = dna(bases, seed=rng.randrange(2**31))
                patterns = [
                    (r".*(?P<m>tata).*", DNA_SIGMA),
                    (r".*(?P<m1>gcgc).*(?P<m2>atat).*", DNA_SIGMA),
                ]
            slp = self._compress(text)
            path = os.path.join(docs, f"doc-{len(self.paths)}.slpb")
            slp_io.save_binary(slp, path)
            self.texts.append(text)
            self.slps.append(slp)
            self.paths.append(path)
            self.specs.append([SpannerSpec(pattern=p, alphabet=a) for p, a in patterns])
        self.pairs = [
            (d, s) for d in range(len(self.paths)) for s in range(len(self.specs[d]))
        ]
        self._start_daemon()
        # Warm every pair on the fleet with the timed phase's two
        # concurrent clients, so each worker that will serve a pair has it.
        warmers = [
            threading.Thread(target=self._warm, args=(stream,))
            for stream in range(self.clients)
        ]
        for thread in warmers:
            thread.start()
        for thread in warmers:
            thread.join()

    def _warm(self, stream: int) -> None:
        with connect(self.socket) as session:
            for iteration in range(2):
                for d, s in _pass_order(self.pairs, iteration, self.seed, stream):
                    spec, path = self.specs[d][s], self.paths[d]
                    session.count(spec, path)
                    list(session.enumerate(spec, path, limit=ENUM_LIMIT_WARM))

    def _start_daemon(self) -> None:
        sock_dir = os.path.relpath(self.ctx.workdir, self.ctx.root)
        self.socket = os.path.join(sock_dir, "d.sock")
        argv = [sys.executable]
        if self.ctx.trace_sink is not None:
            # Same CLI, with the layer wrappers installed before the fleet forks.
            argv += [os.path.join(os.path.dirname(__file__), "daemon.py")]
        else:
            argv += ["-m", "repro"]
        argv += ["serve", "--socket", self.socket, "--jobs", "2"]
        if self.ctx.trace_sink is not None:
            argv += ["--trace", self.ctx.trace_sink]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.ctx.root, "src")
        with open(os.path.join(self.ctx.workdir, "daemon.log"), "ab") as log:
            self.proc = subprocess.Popen(
                argv, cwd=self.ctx.root, env=env, stdout=log, stderr=subprocess.STDOUT
            )
        from repro.service.client import wait_ready

        try:
            wait_ready(self.socket, timeout=60.0)
        except Exception:
            self._stop_daemon()
            raise

    def _stop_daemon(self) -> None:
        from repro.service.client import ServiceClient

        fleet = _children(self.proc.pid) if self.proc.poll() is None else []
        try:
            with ServiceClient(self.socket, timeout=10.0, retries=0) as client:
                client.shutdown()
        except Exception:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=30)
        self.orphans = [pid for pid in fleet if _alive(pid)]
        if os.path.exists(self.socket):
            self.orphans.append(f"socket {self.socket}")

    def teardown(self) -> None:
        self._stop_daemon()

    def references(self) -> None:
        """Serial in-process results for every request the loop can send."""
        self.expected: Dict[Tuple[int, int, str], Any] = {}
        self.tuples: Dict[Tuple[int, int, str], SpanTuple] = {}
        with connect() as session:
            for d, s in self.pairs:
                spanner, slp = self.specs[d][s].resolve(), self.slps[d]
                self.expected[(d, s, "count")] = session.count(spanner, slp)
                self.expected[(d, s, "nonempty")] = session.is_nonempty(spanner, slp)
                listed = list(session.enumerate(spanner, slp, limit=ENUM_LIMIT_WARM))
                self.expected[(d, s, "enumerate")] = listed
                member = listed[len(listed) // 2] if listed else _some_tuple(spanner)
                other = _shifted(member, len(self.texts[d]))
                for variant, tup in (("member", member), ("other", other)):
                    key = (d, s, f"check-{variant}")
                    self.tuples[key] = tup
                    self.expected[key] = session.model_check(spanner, slp, tup)
        self.requests = sorted(self.expected)

    def run(self, seconds: float) -> Phase:
        phase = Phase()
        lock = threading.Lock()
        self.payloads: List[Tuple[str, Any]] = []
        before = self._cache_counters()
        started = time.perf_counter()
        threads = [
            threading.Thread(target=self._client, args=(k, seconds, started, phase, lock))
            for k in range(self.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        phase.elapsed = time.perf_counter() - started
        phase.rates, phase.slice_p50 = _windows(phase.samples, started, phase.elapsed, windows=5)
        after = self._cache_counters()
        delta = {k: after[k] - before.get(k, 0) for k in after}
        self.counters = {
            "engine.prep_hit_ratio": _ratio(
                delta["cache.preprocessings.hits"], delta["cache.preprocessings.misses"]
            ),
            "engine.counting_hit_ratio": _ratio(
                delta["cache.counting.hits"], delta["cache.counting.misses"]
            ),
        }
        return phase

    def _cache_counters(self) -> Dict[str, float]:
        from repro.service.client import ServiceClient

        with ServiceClient(self.socket, timeout=30.0) as client:
            workers = client.metrics().get("workers", {})
        counters = workers.get("counters", {})
        return {
            name: counters.get(name, 0)
            for name in (
                "cache.preprocessings.hits",
                "cache.preprocessings.misses",
                "cache.counting.hits",
                "cache.counting.misses",
            )
        }

    def _client(
        self, stream: int, seconds: float, started: float, phase: Phase, lock: threading.Lock
    ) -> None:
        with self._session(socket_path=self.socket) as session:
            for iteration in itertools.count():
                for d, s, kind in _pass_order(self.requests, iteration, self.seed, stream):
                    with lock:
                        index = self._next_index()
                    ok, failure = True, None
                    t0 = time.perf_counter()
                    try:
                        with self._root():
                            result = self._call(session, d, s, kind)
                    except Exception as exc:  # a failed request is counted, not fatal
                        ok, failure = False, f"{kind} pair {d}/{s}: {exc!r}"
                    finished = time.perf_counter()
                    latency = finished - t0
                    if ok:
                        result = self._maybe_corrupt(index, result)
                        if result != self.expected[(d, s, kind)]:
                            ok, failure = False, f"{kind} pair {d}/{s}: differs from serial"
                    with lock:
                        phase.samples.append(Sample(latency, 1, ok, finished))
                        if failure:
                            phase.failures.append(failure)
                        if ok and self.ctx.trace_sink is not None and kind in (
                            "count", "nonempty", "enumerate"
                        ):
                            self.payloads.append((kind, result))
                if time.perf_counter() - started >= seconds:
                    break

    def _call(self, session: Session, d: int, s: int, kind: str) -> Any:
        spec, path = self.specs[d][s], self.paths[d]
        if kind == "count":
            return session.count(spec, path)
        if kind == "nonempty":
            return session.is_nonempty(spec, path)
        if kind == "enumerate":
            return list(session.enumerate(spec, path, limit=ENUM_LIMIT_WARM))
        return session.model_check(spec, path, self.tuples[(d, s, kind)])

    def verify(self, phase: Phase) -> None:
        pass  # every result was compared with the serial reference inline

    def properties(self) -> Dict[str, Any]:
        props = _grammar_properties(self.slps, self.texts)
        props.update(
            _spanner_properties([spec.resolve() for row in self.specs for spec in row])
        )
        counts = [self.expected[(d, s, "count")] for d, s in self.pairs]
        props.update(
            pairs=len(self.pairs),
            requests_per_pass=len(self.requests),
            clients=self.clients,
            fleet_workers=2,
            results_mean=sum(counts) / len(counts),
            results_max=max(counts),
        )
        return props



def _windows(samples: Sequence[Sample], started: float, elapsed: float,
             windows: int) -> Tuple[List[float], List[float]]:
    """Completed tasks per second, and the median latency of the completed
    requests, in each of ``windows`` equal time windows."""
    width = elapsed / windows
    latencies: List[List[float]] = [[] for _ in range(windows)]
    for sample in samples:
        if sample.ok:
            at = min(windows - 1, int((sample.done - started) / width))
            latencies[at].append(sample.latency)
    rates = [len(window) / width for window in latencies]
    return rates, [statistics.median(window) for window in latencies if window]


def _some_tuple(spanner: Any) -> SpanTuple:
    return SpanTuple({x: Span(1, 2) for x in sorted(spanner.variables)})


def _shifted(tup: SpanTuple, length: int) -> SpanTuple:
    """``tup`` moved one position right, or left where right leaves the document."""
    moved = tup.shifted(1)
    return moved if moved.is_valid_for(length) else tup.shifted(-1)


# -- corpus_churn --------------------------------------------------------------


class CorpusChurn(Workload):
    name = "corpus_churn"
    why = (
        "Session(jobs=2, store_dir).batch over 24 .slpb files, duplication 3, a quarter "
        "new content per call: store reads and writes, pool spawn, sharding, loading"
    )
    duplication = 3

    def setup(self) -> None:
        tiny = self.ctx.tiny
        self.doc_length = 600 if tiny else 3000
        self.known_distinct, self.new_distinct = (1, 1) if tiny else (6, 2)
        self.max_calls = 2 if tiny else None
        self.corpus = os.path.join(self.ctx.workdir, "corpus")
        os.makedirs(self.corpus, exist_ok=True)
        self.texts: Dict[str, str] = {}
        self.digests: Dict[str, str] = {}
        self.known = self._write_group("known", self.known_distinct)
        # New content for each call, made before the call and outside its
        # time; the first group is part of set-up.
        self.fresh = [self._write_group("new0", self.new_distinct)]
        # Fixed spanners: the store entry size and build cost grow with q.
        self.specs = [
            SpannerSpec(pattern=r".*(?P<x>abc).*", alphabet="abc"),
            SpannerSpec(pattern=r".*(?P<x>ca)(?P<y>[ab]+)bc.*", alphabet="abc"),
        ]
        self.store = os.path.join(self.ctx.workdir, "store")
        with Session(jobs=2, store_dir=self.store) as session:
            session.batch(self.specs, self.known, task="count")

    def _write_group(self, label: str, count: int) -> List[str]:
        """``count`` new contents, each written ``duplication`` times."""
        rng = random.Random(f"{self.seed}/{label}")
        contents = []
        for _ in range(count):
            text = block_text(self.doc_length, 24, alphabet="abc", seed=rng.randrange(2**31))
            contents.append((text, self._compress(text)))
        paths = []
        for copy in range(self.duplication):
            for k, (text, slp) in enumerate(contents):
                path = os.path.join(self.corpus, f"{label}-{k}-{copy}.slpb")
                slp_io.save_binary(slp, path)
                self.texts[path] = text
                self.digests[path] = slp.structural_digest()
                paths.append(path)
        return paths

    def run(self, seconds: float) -> Phase:
        phase = Phase()
        self.calls: List[Tuple[int, List[str], List[Any]]] = []
        started = time.perf_counter()
        paused = 0.0
        for iteration in itertools.count():
            if iteration == len(self.fresh):
                making, compress_s = time.perf_counter(), self.compress_s
                self.fresh.append(self._write_group(f"new{iteration}", self.new_distinct))
                self.compress_s = compress_s  # slp.compress_s is set-up's RePair time
                paused += time.perf_counter() - making
            paths = _pass_order(self.known + self.fresh[iteration], iteration, self.seed)
            index = self._next_index()
            ok = True
            t0 = time.perf_counter()
            try:
                with self._root(), self._session(jobs=2, store_dir=self.store) as session:
                    items = session.batch(self.specs, paths, task="count")
                results = [item.result for item in items]
            except Exception as exc:  # a failed request is counted, not fatal
                ok = False
                phase.failures.append(f"batch call {iteration}: {exc!r}")
            latency = time.perf_counter() - t0
            if ok:
                self.calls.append((len(phase.samples), paths, self._maybe_corrupt(index, results)))
            items = len(paths) * len(self.specs)
            phase.samples.append(Sample(latency, items, ok))
            if ok:
                phase.rates.append(items / latency)
            if iteration + 1 == self.max_calls:
                break
            if time.perf_counter() - started - paused >= seconds:
                break
        phase.elapsed = time.perf_counter() - started - paused
        self.store_bytes = _tree_bytes(self.store)
        return phase

    def verify(self, phase: Phase) -> None:
        """Every result equals a serial in-process count of the same pair."""
        expected: Dict[Tuple[str, int], int] = {}
        with connect() as session:
            spanners = [spec.resolve() for spec in self.specs]
            for _, paths, _ in self.calls:
                for path in paths:
                    for s, spanner in enumerate(spanners):
                        key = (self.digests[path], s)
                        if key not in expected:
                            expected[key] = session.count(spanner, slp_io.load_file(path))
            for sample, paths, results in self.calls:
                want = [expected[(self.digests[p], s)] for p in paths for s in range(len(spanners))]
                if results != want:
                    phase.failures.append(f"batch call {sample}: differs from serial")
                    phase.samples[sample].ok = False
        self.result_counts = list(expected.values())

    def properties(self) -> Dict[str, Any]:
        paths = self.known + self.fresh[0]
        slps = [slp_io.load_file(p) for p in paths]
        props = _grammar_properties(slps, [self.texts[p] for p in paths])
        props.update(_spanner_properties([spec.resolve() for spec in self.specs]))
        counts = getattr(self, "result_counts", []) or [0]
        props.update(
            files_per_call=len(paths),
            duplication=self.duplication,
            new_content_share=len(self.fresh[0]) / len(paths),
            results_mean=sum(counts) / len(counts),
            results_max=max(counts),
        )
        return props



def _tree_bytes(directory: str) -> int:
    total = 0
    for base, _, files in os.walk(directory):
        for name in files:
            total += os.path.getsize(os.path.join(base, name))
    return total


# -- process bookkeeping ---------------------------------------------------------


def _children(pid: int) -> List[int]:
    """Direct child pids of ``pid`` (from ``/proc``)."""
    found: List[int] = []
    task_dir = f"/proc/{pid}/task"
    try:
        tasks = os.listdir(task_dir)
    except OSError:
        return found
    for tid in tasks:
        try:
            with open(os.path.join(task_dir, tid, "children")) as fh:
                found.extend(int(p) for p in fh.read().split())
        except OSError:
            continue
    return found


def _alive(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


WORKLOADS: Dict[str, Callable[[int, Context], Workload]] = {
    AdhocCold.name: AdhocCold,
    DaemonWarm.name: DaemonWarm,
    CorpusChurn.name: CorpusChurn,
}
