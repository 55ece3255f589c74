"""Store priming: pay for shared preprocessing once, before fan-out.

Workers in a :class:`~repro.parallel.pool.WorkerPool` coordinate only
through the content-addressed :class:`~repro.store.prepstore.PreprocessingStore`
— there is no lock around a table build, so two workers handed
structurally equal grammars in the same instant could both run the
``O(size(S) · q²)`` build and race to write the same entry (harmless:
the store's atomic replace keeps one copy — but one build is wasted).

:func:`prime_store` removes the race *and* the waste for the common
case: scan the corpus digests (cheap ``repro-slpb`` header reads), and
for every digest that is missing from the store, build its tables once
in the parent and persist them.  "Missing" is a header-only check
(:meth:`~repro.engine.engine.Engine.in_store`, which reads 48 bytes and
decodes nothing), so priming a warm store costs one small read per
digest; a corrupt body behind a good header is caught later by the
worker's CRC-checked load, quarantined and rebuilt.

By default only *duplicated* digests are primed — a singleton grammar is
built exactly once by whichever worker receives it anyway.
Digest-affinity sharding keys on (digest, spanner), so within one call
the duplicates of a pair already share one worker and its in-memory
tables; the same digest under two spanners goes to different workers,
but those need different tables anyway.  What priming adds is that the
duplicated pairs' tables are on disk before any worker starts, so a
shard re-planned after a crash restores them instead of rebuilding.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ReproError
from repro.slp import io as slp_io

from repro.store.prepstore import PreprocessingStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.spec import EngineConfig

#: Tasks whose tables need the determinized padded automaton.
_DETERMINISTIC_TASKS = ("enumerate", "count")


def prime_store(
    store: Union[str, PreprocessingStore],
    spanner_paths: Sequence[Tuple[object, Sequence[str]]],
    *,
    task: str = "evaluate",
    config: Optional["EngineConfig"] = None,
    only_duplicated: bool = True,
) -> int:
    """Precompute missing ``.prep`` entries for a corpus; return #built.

    ``spanner_paths`` pairs each spanner (a ``SpannerNFA`` or
    :class:`~repro.engine.spec.SpannerSpec`) with the grammar paths it
    will be evaluated over.  ``task`` picks which tables are needed
    (``enumerate``/``count`` need the determinized automaton, ``count``
    additionally persists counting tables).  ``config`` — an
    :class:`~repro.engine.spec.EngineConfig` — carries the padding
    configuration the fleet will use; its ``store_dir`` is overridden by
    ``store``.  With ``only_duplicated`` (default) singleton digests are
    left for the workers themselves.
    """
    from repro.engine.spec import EngineConfig, SpannerSpec

    directory = store.directory if isinstance(store, PreprocessingStore) else store
    config = EngineConfig() if config is None else config
    engine = replace(config, store_dir=directory).build()
    deterministic = task in _DETERMINISTIC_TASKS
    built = 0
    for spanner, paths in spanner_paths:
        nfa = SpannerSpec.of(spanner).resolve()
        groups: Dict[Optional[str], List[str]] = {}
        for path in paths:
            try:
                digest = slp_io.peek_digest(path)
            except (OSError, ValueError, ReproError):
                continue  # unreadable: the worker will raise properly
            groups.setdefault(digest, []).append(path)
        for digest, group in groups.items():
            if only_duplicated and len(group) < 2:
                continue
            slp = slp_io.load_file(group[0])
            if engine.in_store(nfa, slp, deterministic):
                continue  # already paid for (this run or a previous one)
            if task == "count":
                engine.count(nfa, slp)  # builds + persists tables AND counts
            else:
                engine.preprocessing(nfa, slp, deterministic)
            built += 1
    return built


__all__ = ["prime_store"]
