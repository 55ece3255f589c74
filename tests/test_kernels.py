"""Kernel subsystem tests: registry, selection, and cross-kernel identity.

The contract under test is that kernel backends are *bit-identical*: on
randomised (grammar family × spanner × padding) trials the ``python`` and
``numpy`` kernels must produce equal ``export_planes()`` output, equal
:class:`~repro.core.counting.CountingTables` (totals and per-cell), and
equal ``enumerate_marker_sets`` streams — including planes restored from
a preprocessing store that was *written by the other kernel* (the
``.prep`` format is kernel-independent).  The numpy-only tests skip
cleanly where numpy is absent; the registry/fallback tests run
everywhere.
"""

from __future__ import annotations

import itertools
import pickle

import pytest

from repro.core.counting import CountingTables, RankedAccess
from repro.core.enumeration import enumerate_marker_sets
from repro.core.kernels import (
    KERNEL_CHOICES,
    PYTHON_KERNEL,
    available_kernels,
    default_kernel_name,
    numpy_available,
    resolve_kernel,
)
from repro.core.matrices import Preprocessing
from repro.engine import Engine
from repro.engine.spec import EngineConfig
from repro.errors import EvaluationError
from repro.slp.construct import balanced_slp, bisection_slp
from repro.slp.families import fibonacci_slp, power_slp, thue_morse_slp
from repro.slp.grammar import SLP
from repro.slp.lz import lz_slp
from repro.slp.repair import repair_slp
from repro.spanner.regex import compile_spanner
from repro.spanner.transform import pad_slp, pad_spanner
from repro.store import PreprocessingStore
from repro.workloads.documents import server_log
from repro.workloads.queries import key_value_spanner

from test_differential import random_pairs

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy backend unavailable on this host"
)

BUILDERS = [balanced_slp, repair_slp, bisection_slp, lz_slp]

#: The padding axis: every trial alternates the end sentinel, so the
#: kernels must agree on differently-padded forms of the same document.
END_SYMBOLS = ["#", "$"]


# -- registry / selection ------------------------------------------------------


def test_resolve_python_kernel_everywhere():
    assert resolve_kernel("python") is PYTHON_KERNEL
    assert resolve_kernel(PYTHON_KERNEL) is PYTHON_KERNEL
    assert "python" in available_kernels()
    assert "auto" in KERNEL_CHOICES


def test_resolve_unknown_kernel_raises():
    with pytest.raises(EvaluationError, match="unknown kernel"):
        resolve_kernel("fortran")


def test_auto_detection_matches_availability():
    kernel = resolve_kernel(None)
    assert kernel.name == default_kernel_name()
    assert resolve_kernel("auto") is kernel
    if numpy_available():
        assert kernel.name == "numpy"
        assert available_kernels() == ("python", "numpy")
    else:
        assert kernel is PYTHON_KERNEL


@needs_numpy
def test_explicit_numpy_resolves_and_is_cached():
    assert resolve_kernel("numpy") is resolve_kernel("numpy")
    assert resolve_kernel("numpy").name == "numpy"


def test_engine_records_kernel():
    engine = Engine(kernel="python")
    assert engine.kernel is PYTHON_KERNEL
    assert "kernel=python" in repr(engine)


def test_engine_config_carries_kernel_name_through_pickle():
    config = EngineConfig(kernel="python")
    rebuilt = pickle.loads(pickle.dumps(config)).build()
    assert rebuilt.kernel.name == "python"
    # the default config stays auto: workers re-resolve per environment
    assert EngineConfig().kernel is None


# -- cross-kernel identity (the satellite property test) -----------------------


def _dfa_pair(spanner, slp, end_symbol):
    base = spanner.eliminate_epsilon()
    if not base.is_deterministic:
        base = base.determinize().trim()
    return pad_slp(slp, end_symbol), pad_spanner(base, end_symbol)


def _nfa_pair(spanner, slp, end_symbol):
    return (
        pad_slp(slp, end_symbol),
        pad_spanner(spanner.eliminate_epsilon(), end_symbol),
    )


def assert_kernels_bit_identical(padded_slp, padded_automaton, counting=True):
    """Planes, counts and enumeration equal between the two backends."""
    python_prep = Preprocessing(padded_slp, padded_automaton, kernel="python")
    numpy_prep = Preprocessing(padded_slp, padded_automaton, kernel="numpy")
    assert python_prep.final_states == numpy_prep.final_states
    assert python_prep.export_planes() == numpy_prep.export_planes()
    dedup = not padded_automaton.is_deterministic
    streams = zip(
        itertools.islice(enumerate_marker_sets(python_prep, deduplicate=dedup), 200),
        itertools.islice(enumerate_marker_sets(numpy_prep, deduplicate=dedup), 200),
    )
    for python_item, numpy_item in streams:
        assert python_item == numpy_item
    if counting:
        python_tables = CountingTables(python_prep)
        numpy_tables = CountingTables(numpy_prep)
        assert python_tables.total() == numpy_tables.total()
        assert python_tables.counts == numpy_tables.counts
    return python_prep


@needs_numpy
@pytest.mark.parametrize("seed", range(4))
def test_cross_kernel_randomized_trials(seed):
    """Randomised (grammar family × spanner × padding) bit-identity."""
    for index, (pattern, spanner, doc, _alphabet) in enumerate(random_pairs(seed)):
        builder = BUILDERS[(seed + index) % len(BUILDERS)]
        end_symbol = END_SYMBOLS[index % len(END_SYMBOLS)]
        slp = builder(doc)
        assert_kernels_bit_identical(*_dfa_pair(spanner, slp, end_symbol))
        # the evaluation path uses the (possibly nondeterministic) NFA
        # planes; counting is DFA-only, so compare planes + streams only
        assert_kernels_bit_identical(
            *_nfa_pair(spanner, slp, end_symbol), counting=False
        )


@needs_numpy
def test_cross_kernel_directly_constructed_families():
    """The exponential-regime families (huge documents, small grammars)."""
    spanner = compile_spanner(r"(a|b)*(?P<x>ab)(a|b)*", alphabet="ab")
    for slp in (power_slp("ab", 30), thue_morse_slp(8)):
        assert_kernels_bit_identical(*_dfa_pair(spanner, slp, "#"))
    fib_spanner = compile_spanner(r".*(?P<x>ab).*", alphabet="ab")
    assert_kernels_bit_identical(*_dfa_pair(fib_spanner, fibonacci_slp(18), "#"))


@needs_numpy
def test_cross_kernel_wide_automaton_q_over_64():
    """q > 64 exercises the multi-word rows (no native ndarray planes)."""
    spanner = compile_spanner(r".*(?P<x>a{65}).*", alphabet="ab")
    padded_slp, padded_dfa = _dfa_pair(spanner, power_slp("a", 8), "#")
    assert padded_dfa.num_states > 64
    prep = assert_kernels_bit_identical(padded_slp, padded_dfa)
    assert CountingTables(prep).total() == 256 - 65 + 1


@needs_numpy
@pytest.mark.parametrize("writer,reader", [("python", "numpy"), ("numpy", "python")])
def test_store_written_by_one_kernel_restores_under_the_other(
    writer, reader, tmp_path
):
    """The .prep format is kernel-independent: cross-restore bit-identically."""
    pattern, spanner, doc, _alphabet = random_pairs(991)[0]
    slp = repair_slp(doc)
    padded_slp, padded_dfa = _dfa_pair(spanner, slp, "#")
    built = Preprocessing(padded_slp, padded_dfa, kernel=writer)
    tables = CountingTables(built)

    store = PreprocessingStore(str(tmp_path))
    slp_digest = slp.structural_digest()
    auto_digest = padded_dfa.structural_digest()
    store.save(slp_digest, auto_digest, built, tables.counts)

    restored = store.load(
        slp_digest, auto_digest, padded_slp, padded_dfa, kernel=reader
    )
    assert restored is not None
    restored_prep, restored_counts = restored
    assert restored_prep.kernel.name == reader
    assert restored_prep.export_planes() == built.export_planes()
    assert restored_counts == tables.counts
    restored_tables = CountingTables.from_counts(restored_prep, restored_counts)
    assert restored_tables.total() == tables.total()
    assert list(enumerate_marker_sets(restored_prep)) == list(
        enumerate_marker_sets(built)
    )


@needs_numpy
def test_engines_with_different_kernels_share_one_store(tmp_path):
    """A python-kernel engine's store entries warm a numpy-kernel engine."""
    pattern, spanner, doc, _alphabet = random_pairs(117)[1]
    store_dir = str(tmp_path)

    writer_engine = Engine(
        store=PreprocessingStore(store_dir), structural_keys=True, kernel="python"
    )
    expected = writer_engine.evaluate(spanner, balanced_slp(doc))
    expected_count = writer_engine.count(spanner, balanced_slp(doc))

    reader_store = PreprocessingStore(store_dir)
    reader_engine = Engine(
        store=reader_store, structural_keys=True, kernel="numpy"
    )
    assert reader_engine.evaluate(spanner, balanced_slp(doc)) == expected
    assert reader_engine.count(spanner, balanced_slp(doc)) == expected_count
    assert reader_store.stats.hits >= 1
    assert reader_engine.cache_stats()["counting"].misses == 0


# -- CLI -----------------------------------------------------------------------


@pytest.mark.parametrize("kernel", ["auto", "python"])
def test_cli_kernel_flag_and_profile(kernel, tmp_path, capsys):
    from repro.cli import main
    from repro.slp import io as slp_io

    path = str(tmp_path / "doc.slp.json")
    slp_io.save_file(balanced_slp("ababab"), path)
    assert main(["query", path, r".*(?P<x>ab).*", "--task", "count",
                 "--kernel", kernel]) == 0
    assert capsys.readouterr().out.strip() == "3"

    assert main(["stats", path, "--profile", "--kernel", kernel]) == 0
    out = capsys.readouterr().out
    assert "kernel" in out and "prep_build" in out and "store_restore" in out
    expected_name = default_kernel_name() if kernel == "auto" else kernel
    assert expected_name in out


# -- counts beyond int64 -------------------------------------------------------

#: x on an ``a``, y on a later ``b``: over ``(ab)^n`` there are n(n+1)/2 pairs.
PAIR_PATTERN = r"(a|b)*(?P<x>a)(a|b)*(?P<y>b)(a|b)*"


def _pair_total(doublings):
    n = 2**doublings
    return n * (n + 1) // 2


@needs_numpy
@pytest.mark.parametrize("doublings,bits", [(40, 80), (70, 140)])
def test_counts_beyond_int64_bit_identical(doublings, bits):
    spanner = compile_spanner(PAIR_PATTERN, alphabet="ab")
    pair = _dfa_pair(spanner, power_slp("ab", doublings), "#")
    prep = assert_kernels_bit_identical(*pair)
    total = CountingTables(prep).total()
    assert total == _pair_total(doublings)
    assert total.bit_length() == bits


def _mixed_height_slp(doublings):
    """``(ab)^(2^k)`` beside a caterpillar ``C_h = C_(h-1)·ab`` of equal height.

    ``C_(h+1)`` has the height of the doubling ``P_h`` but derives only
    ``(ab)^(h+2)``, so every level mixes huge counts with tiny ones.
    """
    base = power_slp("ab", doublings)
    ab = base.children("P0")[0]
    inner = dict(base.inner_rules)
    previous = ab
    for h in range(1, doublings + 1):
        inner[f"C{h}"] = (previous, ab)
        previous = f"C{h}"
    inner["S"] = (f"P{doublings - 1}", previous)
    return SLP(inner, base.leaf_rules, "S")


@needs_numpy
def test_counts_overflow_starting_at_a_middle_level():
    """The exact-bigint fallback starts mid-grammar, inside a mixed level."""
    from repro.core.kernels.numpy_kernel import FLOAT_EXACT

    spanner = compile_spanner(PAIR_PATTERN, alphabet="ab")
    pair = _dfa_pair(spanner, _mixed_height_slp(40), "#")
    prep = assert_kernels_bit_identical(*pair)
    tables = CountingTables(prep)
    levels = prep.levels
    q = prep.q

    def largest(name):
        return max(tables.count(name, i, j) for i in range(q) for j in range(q))

    peaks = [
        [largest(name) for name in levels.names[lo:hi]]
        for lo, hi in zip(levels.bounds, levels.bounds[1:])
    ]
    first = next(h for h, level in enumerate(peaks) if max(level) >= FLOAT_EXACT)
    assert 1 < first < len(peaks) - 1
    assert min(peaks[first]) < FLOAT_EXACT  # the level is mixed
    assert max(peaks[-1]) >= 2**63


@needs_numpy
@pytest.mark.parametrize("kernel", ["python", "numpy"])
def test_count_returns_python_int(kernel):
    spanner = compile_spanner(PAIR_PATTERN, alphabet="ab")
    for doublings in (3, 40):
        padded_slp, padded_dfa = _dfa_pair(spanner, power_slp("ab", doublings), "#")
        prep = Preprocessing(padded_slp, padded_dfa, kernel=kernel)
        tables = CountingTables(prep)
        values = [
            tables.count(name, i, j)
            for name in prep.order
            for i in range(prep.q)
            for j in range(prep.q)
        ]
        assert all(type(value) is int for value in values)
        assert type(tables.total()) is int
        assert all(type(value) is int for value in tables.counts.values())


@needs_numpy
def test_ranked_access_around_rank_2_pow_63():
    spanner = compile_spanner(PAIR_PATTERN, alphabet="ab")
    padded_slp, padded_dfa = _dfa_pair(spanner, power_slp("ab", 40), "#")
    python_access = RankedAccess(
        Preprocessing(padded_slp, padded_dfa, kernel="python")
    )
    numpy_access = RankedAccess(Preprocessing(padded_slp, padded_dfa, kernel="numpy"))
    total = python_access.total
    assert numpy_access.total == total > 2**64
    for rank in (2**63 - 2, 2**63 - 1, 2**63, 2**63 + 1, 2**64 + 5, total - 1):
        assert numpy_access.select(rank) == python_access.select(rank)


# -- level shapes ----------------------------------------------------------------


@needs_numpy
def test_levels_wider_than_one_batch(monkeypatch):
    """A level split across several batches builds the same tables."""
    from repro.core.kernels import numpy_kernel

    spanner = key_value_spanner("action")
    slp = repair_slp(server_log(40, seed=3))
    padded_slp, padded_dfa = _dfa_pair(spanner, slp, "#")
    q = padded_dfa.num_states
    # Three rules' cubes a batch, so the wide levels are split.
    monkeypatch.setattr(numpy_kernel, "BATCH_WORDS", 3 * q * q)
    levels = Preprocessing(padded_slp, padded_dfa, kernel="python").levels
    widest = max(hi - lo for lo, hi in zip(levels.bounds[1:], levels.bounds[2:]))
    assert widest > 3
    assert_kernels_bit_identical(padded_slp, padded_dfa)
    # The evaluation path's NFA planes (its enumeration is slow to drain
    # here, and the stream does not depend on the batching anyway).
    nfa_pair = _nfa_pair(spanner, slp, "#")
    assert (
        Preprocessing(*nfa_pair, kernel="python").export_planes()
        == Preprocessing(*nfa_pair, kernel="numpy").export_planes()
    )


@needs_numpy
@pytest.mark.parametrize("run,states", [(58, 64), (59, 65)])
def test_one_word_two_word_boundary(run, states):
    """q = 64 fills one word per row exactly; q = 65 needs a second."""
    spanner = compile_spanner(rf".*(?P<x>a{{{run}}}).*", alphabet="ab")
    padded_slp, padded_dfa = _dfa_pair(spanner, power_slp("a", 7), "#")
    assert padded_dfa.num_states == states
    prep = assert_kernels_bit_identical(padded_slp, padded_dfa)
    assert CountingTables(prep).total() == 128 - run + 1


@needs_numpy
def test_one_rule_per_level():
    spanner = compile_spanner(PAIR_PATTERN, alphabet="ab")
    padded_slp, padded_dfa = _dfa_pair(spanner, power_slp("ab", 12), "#")
    prep = assert_kernels_bit_identical(padded_slp, padded_dfa)
    bounds = prep.levels.bounds
    assert all(hi - lo == 1 for lo, hi in zip(bounds[1:], bounds[2:]))


@needs_numpy
def test_leaf_only_and_one_rule_grammars():
    spanner = compile_spanner(r".*(?P<x>a).*", alphabet="ab")
    leaf_only = SLP({}, {"Ta": "a"}, "Ta")
    _, padded_dfa = _dfa_pair(spanner, leaf_only, "#")
    prep = assert_kernels_bit_identical(leaf_only, padded_dfa)
    assert len(prep.levels) == 1 and prep.I == {}
    one_rule = pad_slp(leaf_only, "#")
    assert one_rule.num_inner == 1
    prep = assert_kernels_bit_identical(one_rule, padded_dfa)
    assert len(prep.levels) == 2
    assert CountingTables(prep).total() == 1


# -- observability ---------------------------------------------------------------


@pytest.mark.parametrize("kernel", available_kernels())
def test_build_span_tags_and_histograms(kernel, tmp_path):
    from repro.obs.metrics import MetricsRegistry, set_registry
    from repro.obs.trace import Tracer, read_trace, set_tracer

    spanner = compile_spanner(PAIR_PATTERN, alphabet="ab")
    padded_slp, padded_dfa = _dfa_pair(spanner, power_slp("ab", 5), "#")
    sink = str(tmp_path / "trace.jsonl")
    registry = MetricsRegistry()
    set_registry(registry)
    set_tracer(Tracer(sink))
    try:
        prep = Preprocessing(padded_slp, padded_dfa, kernel=kernel)
        CountingTables(prep)
    finally:
        set_tracer(None)
        set_registry(None)
    [span] = [r for r in read_trace(sink) if r["name"] == "kernel.build_planes"]
    assert span["tags"] == {
        "kernel": kernel,
        "q": prep.q,
        "rules": len(prep.order),
        "levels": len(prep.levels),
    }
    histograms = registry.snapshot()["histograms"]
    for stage in ("build_planes", "build_counts"):
        assert sum(histograms[f"kernel.{kernel}.{stage}_seconds"]["counts"]) == 1
