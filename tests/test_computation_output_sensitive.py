"""Theorem 7.1 tables only the ``R = 1`` triples (repro.core.computation).

An ``R_A[i,j] = ℮`` entry is exactly ``{∅}`` (Definition 6.4), so
``compute_marker_sets`` never descends into one.  These tests pin the
three consequences: the number of tabled triples (the ``triples`` tag of
the ``core.computation.compute`` span) follows the marker positions, not
the marker-free filler; an ``R = 1`` entry that also holds ``∅`` keeps
it; and the descent works on store-restored tables, whose ``I`` vectors
are decoded lazily, under every kernel.
"""

import os
import random

import pytest

from repro.baselines.naive import naive_evaluate
from repro.core.computation import compute, compute_marker_sets
from repro.core.kernels import available_kernels
from repro.core.matrices import Preprocessing
from repro.obs.trace import Tracer, read_trace, set_tracer
from repro.slp.construct import balanced_slp
from repro.slp.repair import repair_slp
from repro.spanner.regex import compile_spanner
from repro.spanner.markers import to_span_tuple
from repro.spanner.spans import Span, SpanTuple
from repro.spanner.transform import pad_slp, pad_spanner
from repro.store import PreprocessingStore
from repro.workloads.documents import LOG_ALPHABET, server_log
from repro.workloads.queries import marker_spanner

KERNELS = list(available_kernels())

#: Schemaless spanners whose ``R = 1`` entries can also hold ``∅``.
SCHEMALESS = [r"b+|(?P<x>a)", r"((?P<x>a)|a)b*", r".*((?P<x>ab)|b).*"]


def padded_prep(slp, spanner, kernel=None):
    """The NFA preprocessing Theorem 7.1 runs on (as ``Engine.evaluate``)."""
    return Preprocessing(
        pad_slp(slp), pad_spanner(spanner.eliminate_epsilon()), kernel=kernel
    )


def traced(prep, tmp_path):
    """``(compute_marker_sets(prep), tags of its span)``."""
    sink = str(tmp_path / "trace.jsonl")
    set_tracer(Tracer(sink))
    try:
        result = compute_marker_sets(prep)
    finally:
        set_tracer(None)
    [span] = [r for r in read_trace(sink) if r["name"] == "core.computation.compute"]
    os.remove(sink)
    return result, span["tags"]


class TestOutputSensitivity:
    def test_planted_match_tables_the_same_triples_for_any_filler(self, tmp_path):
        """One match after ``ab``-filler of growing length (bench E4's
        ``planted_document`` with r = 1): the tabled triples stay within
        ``depth(S) · q²`` and do not change with the filler."""
        spanner = marker_spanner("c", alphabet="abc")
        counts = []
        for block in (16, 64, 256, 1024, 4096):
            prep = padded_prep(repair_slp("ab" * block + "c"), spanner)
            result, tags = traced(prep, tmp_path)
            assert len(result) == tags["results"] == 1
            assert tags["triples"] <= prep.slp.depth() * prep.q ** 2
            counts.append(tags["triples"])
        assert len(set(counts)) == 1, counts

    def test_match_inside_filler_stays_within_the_depth_bound(self, tmp_path):
        spanner = marker_spanner("c", alphabet="abc")
        for block in (16, 256, 4096):
            doc = "ab" * block + "c" + "ab" * block
            prep = padded_prep(repair_slp(doc), spanner)
            result, tags = traced(prep, tmp_path)
            match = SpanTuple({"x": Span(2 * block + 1, 2 * block + 2)})
            assert {to_span_tuple(pairs) for pairs in result} == {match}
            assert tags["triples"] <= prep.slp.depth() * prep.q ** 2

    def test_empty_relation_tables_nothing(self, tmp_path):
        spanner = marker_spanner("c", alphabet="abc")
        prep = padded_prep(repair_slp("ab" * 64), spanner)
        result, tags = traced(prep, tmp_path)
        assert result == frozenset()
        assert tags["triples"] == tags["results"] == 0


class TestEmptyMarkerSetKept:
    def test_one_entry_holding_the_empty_set(self):
        """The root entry is ``R = 1`` and holds ``∅`` beside ``{x}``."""
        spanner = compile_spanner(r"((?P<x>a)|a)b*", alphabet="ab")
        for kernel in KERNELS:
            result = compute(balanced_slp("a" + "b" * 20), spanner, kernel=kernel)
            assert result == frozenset({SpanTuple(), SpanTuple({"x": Span(1, 2)})})

    def test_empty_root_entry(self):
        """``R_S[start, f] = ℮``: the relation is ``{()}``, nothing is tabled."""
        spanner = compile_spanner(r"b+|(?P<x>a)", alphabet="ab")
        for kernel in KERNELS:
            result = compute(balanced_slp("b" * 20), spanner, kernel=kernel)
            assert result == frozenset({SpanTuple()})

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("pattern", SCHEMALESS)
    def test_matches_naive_reference(self, pattern, kernel):
        spanner = compile_spanner(pattern, alphabet="ab")
        rng = random.Random(pattern)
        mixed = 0
        for length in range(1, 25):
            doc = "".join(rng.choice("ab") for _ in range(length))
            expected = naive_evaluate(spanner, doc)
            assert compute(repair_slp(doc), spanner, kernel=kernel) == expected, doc
            mixed += SpanTuple() in expected and len(expected) > 1
        if pattern != SCHEMALESS[0]:  # b+|(?P<x>a) never mixes on a whole document
            assert mixed, "no document exercised an R = 1 entry holding ∅"


class TestStoreRestored:
    @pytest.mark.parametrize("saved_by", KERNELS)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_restored_tables_give_the_same_marker_sets(self, tmp_path, saved_by, kernel):
        sigma = "".join(sorted(LOG_ALPHABET))
        spanner = compile_spanner(r".*user=(?P<user>bob) .*", alphabet=sigma)
        source = repair_slp(server_log(60, seed=3))
        fresh = padded_prep(source, spanner, kernel=saved_by)
        store = PreprocessingStore(str(tmp_path))
        key = (source.structural_digest(), fresh.automaton.structural_digest())
        store.save(*key, fresh)
        restored, _ = store.load(*key, fresh.slp, fresh.automaton, kernel=kernel)
        expected = compute_marker_sets(fresh)
        assert expected
        assert compute_marker_sets(restored) == expected
        # Only the tabled rules' I vectors were decoded.
        inner = [n for n in restored.order if not restored.slp.is_leaf(n)]
        assert 0 < len(dict.keys(restored.I)) < len(inner)

