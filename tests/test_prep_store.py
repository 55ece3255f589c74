"""Persistence tests: PreprocessingStore round-trips, staleness, corruption."""

from __future__ import annotations

import os
import random
import struct

import pytest

from repro.core.counting import CountingTables
from repro.core.matrices import Preprocessing
from repro.engine import Engine
from repro.slp.construct import balanced_slp
from repro.slp.families import caterpillar_slp, fibonacci_slp, power_slp
from repro.spanner.regex import compile_spanner
from repro.spanner.transform import pad_slp, pad_spanner
from repro.store import PreprocessingStore
from repro.store import prepstore


def build_pair(doc="abbaab", pattern=r".*(?P<x>a+)b.*", deterministic=True):
    """(source slp, padded slp, padded automaton, preprocessing)."""
    source = balanced_slp(doc)
    spanner = compile_spanner(pattern, alphabet="ab")
    base = spanner.eliminate_epsilon()
    if deterministic and not base.is_deterministic:
        base = base.determinize().trim()
    padded_slp = pad_slp(source)
    padded_nfa = pad_spanner(base)
    return source, padded_slp, padded_nfa, Preprocessing(padded_slp, padded_nfa)


def assert_tables_bit_for_bit(prep, restored):
    """Same r_value / intermediate_mask on every (nonterminal, i, j)."""
    q = prep.q
    assert restored.q == q
    assert restored.final_states == prep.final_states
    assert set(restored.order) == set(prep.order)
    for name in prep.order:
        for i in range(q):
            assert restored.notbot_row(name, i) == prep.notbot_row(name, i)
            assert restored.one_row(name, i) == prep.one_row(name, i)
            for j in range(q):
                assert restored.r_value(name, i, j) == prep.r_value(name, i, j)
                if not prep.slp.is_leaf(name):
                    assert restored.intermediate_mask(
                        name, i, j
                    ) == prep.intermediate_mask(name, i, j)
        if prep.slp.is_leaf(name):
            assert restored.leaf_tables[name] == prep.leaf_tables[name]


class TestRoundTrip:
    def test_tables_roundtrip_bit_for_bit(self, tmp_path):
        store = PreprocessingStore(str(tmp_path))
        source, padded_slp, padded_nfa, prep = build_pair()
        key = (source.structural_digest(), padded_nfa.structural_digest())
        store.save(*key, prep)
        restored, counts = store.load(*key, padded_slp, padded_nfa)
        assert counts is None
        assert_tables_bit_for_bit(prep, restored)

    def test_counts_roundtrip_exactly(self, tmp_path):
        store = PreprocessingStore(str(tmp_path))
        source, padded_slp, padded_nfa, prep = build_pair(doc="ab" * 40)
        tables = CountingTables(prep)
        key = (source.structural_digest(), padded_nfa.structural_digest())
        store.save(*key, prep, tables.counts)
        restored, counts = store.load(*key, padded_slp, padded_nfa)
        # counts are stored positionally over the notbot cells, which is
        # exactly the key set CountingTables produces
        assert counts == tables.counts
        loaded = CountingTables.from_counts(restored, counts)
        assert loaded.total() == tables.total()
        for name, i, j in tables.counts:
            assert loaded.count(name, i, j) == tables.count(name, i, j)

    def test_huge_counts_survive(self, tmp_path):
        # power_slp("ab", 40): ~10^12 results — counts are arbitrary ints
        store = PreprocessingStore(str(tmp_path))
        source = power_slp("ab", 40)
        spanner = compile_spanner(r"(a|b)*(?P<x>ab)(a|b)*", alphabet="ab")
        base = spanner.eliminate_epsilon().determinize().trim()
        padded_slp, padded_nfa = pad_slp(source), pad_spanner(base)
        prep = Preprocessing(padded_slp, padded_nfa)
        tables = CountingTables(prep)
        assert tables.total() == 2**40
        key = (source.structural_digest(), padded_nfa.structural_digest())
        store.save(*key, prep, tables.counts)
        _, counts = store.load(*key, padded_slp, padded_nfa)
        assert CountingTables.from_counts(prep, counts).total() == 2**40

    def test_attaches_to_renamed_but_equal_grammar(self, tmp_path):
        # The whole point of structural keys: a structurally equal padded
        # grammar with completely different nonterminal names gets the
        # same tables back.
        store = PreprocessingStore(str(tmp_path))
        source, padded_slp, padded_nfa, prep = build_pair(doc="abab")
        key = (source.structural_digest(), padded_nfa.structural_digest())
        store.save(*key, prep)
        from repro.slp.grammar import SLP

        renamed = SLP(
            inner_rules={
                ("R", n): tuple(("R", c) for c in pair)
                for n, pair in padded_slp.inner_rules.items()
            },
            leaf_rules={("R", n): s for n, s in padded_slp.leaf_rules.items()},
            start=("R", padded_slp.start),
        )
        assert renamed.structural_digest() == padded_slp.structural_digest()
        restored, _ = store.load(*key, renamed, padded_nfa)
        assert restored is not None
        assert restored.slp is renamed  # attached to the live object
        # index-based attachment maps tables onto the *renamed* nodes
        # (compare via the accessor: plane containers are kernel-native)
        lookup = dict(zip(padded_slp.canonical_order(), renamed.canonical_order()))
        for name in prep.order:
            twin = lookup[name]
            for i in range(prep.q):
                assert restored.notbot_row(twin, i) == prep.notbot_row(name, i)


class TestRejection:
    def _saved(self, tmp_path):
        store = PreprocessingStore(str(tmp_path))
        source, padded_slp, padded_nfa, prep = build_pair()
        key = (source.structural_digest(), padded_nfa.structural_digest())
        store.save(*key, prep)
        (entry,) = [
            os.path.join(str(tmp_path), n)
            for n in os.listdir(str(tmp_path))
            if n.endswith(".prep")
        ]
        return store, key, padded_slp, padded_nfa, entry

    def test_rejects_stale_format_version(self, tmp_path):
        store, key, padded_slp, padded_nfa, entry = self._saved(tmp_path)
        with open(entry, "r+b") as fh:
            data = bytearray(fh.read())
            # bump the version field and re-seal the CRC so *only* the
            # version is stale (not a corruption artefact)
            struct.pack_into("<H", data, 6, prepstore.STORE_FORMAT_VERSION + 1)
            import zlib

            struct.pack_into("<I", data, len(data) - 4, zlib.crc32(data[:-4]))
            fh.seek(0)
            fh.write(data)
        assert store.load(*key, padded_slp, padded_nfa) is None
        assert store.stats.rejects == 1

    def test_wrong_grammar_is_a_clean_miss(self, tmp_path):
        # A different padded grammar keys to a different file entirely, so
        # this is a plain miss (and configs can coexist), not a reject.
        store, key, _, padded_nfa, _ = self._saved(tmp_path)
        other = pad_slp(balanced_slp("bbbb"))
        assert store.load(*key, other, padded_nfa) is None
        assert store.stats.misses == 1
        assert store.stats.rejects == 0

    @pytest.mark.parametrize("seed", range(10))
    def test_corrupted_file_rebuilds_instead_of_crashing(self, tmp_path, seed):
        store, key, padded_slp, padded_nfa, entry = self._saved(tmp_path)
        rng = random.Random(seed)
        with open(entry, "r+b") as fh:
            data = bytearray(fh.read())
            if seed % 3 == 0:
                data = data[: rng.randrange(1, len(data))]  # truncate
            else:
                for _ in range(rng.randint(1, 5)):
                    data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
            fh.seek(0)
            fh.truncate()
            fh.write(data)
        result = store.load(*key, padded_slp, padded_nfa)
        if result is not None:
            # flips cancelled out: the tables must still be exact
            assert_tables_bit_for_bit(
                Preprocessing(padded_slp, padded_nfa), result[0]
            )
        else:
            assert store.stats.rejects == 1

    def test_engine_survives_corrupted_store_file(self, tmp_path):
        # End-to-end: a corrupted entry means rebuild, never a crash or a
        # wrong answer.
        spanner = compile_spanner(r".*(?P<x>ab).*", alphabet="ab")
        store = PreprocessingStore(str(tmp_path))
        assert Engine(store=store).count(spanner, balanced_slp("abab")) == 2
        for name in os.listdir(str(tmp_path)):
            if name.endswith(".prep"):
                path = os.path.join(str(tmp_path), name)
                with open(path, "r+b") as fh:
                    data = fh.read()
                    fh.seek(0)
                    fh.truncate()
                    fh.write(data[: len(data) // 2])
        fresh = PreprocessingStore(str(tmp_path))
        assert Engine(store=fresh).count(spanner, balanced_slp("abab")) == 2
        assert fresh.stats.rejects >= 1
        assert fresh.stats.writes >= 1  # rebuilt entries were re-persisted

    def test_missing_directory_is_created(self, tmp_path):
        nested = str(tmp_path / "a" / "b" / "store")
        store = PreprocessingStore(nested)
        assert os.path.isdir(nested)
        assert len(store) == 0

    def test_clear_removes_entries(self, tmp_path):
        store, key, padded_slp, padded_nfa, _ = self._saved(tmp_path)
        assert len(store) == 1
        store.clear()
        assert len(store) == 0
        assert store.load(*key, padded_slp, padded_nfa) is None


class TestEngineIntegration:
    def test_nfa_and_dfa_entries_are_distinct_keys(self, tmp_path):
        store = PreprocessingStore(str(tmp_path))
        spanner = compile_spanner(r".*(?P<x>ab).*", alphabet="ab")  # NFA != DFA
        engine = Engine(store=store)
        slp = balanced_slp("abab")
        engine.evaluate(spanner, slp)  # NFA tables
        engine.count(spanner, slp)  # DFA tables (+ counts rewrite)
        assert len(store) == 2

    def test_restart_restores_counting_without_rebuild(self, tmp_path):
        spanner = compile_spanner(r".*(?P<x>a+)b.*", alphabet="ab")
        engine = Engine(store=PreprocessingStore(str(tmp_path)))
        assert engine.count(spanner, fibonacci_slp(10)) > 0

        restarted = Engine(store=PreprocessingStore(str(tmp_path)))
        assert restarted.count(spanner, fibonacci_slp(10)) == engine.count(
            spanner, fibonacci_slp(10)
        )
        assert restarted.cache_stats()["counting"].misses == 0
        assert restarted.store.stats.hits >= 1

    def test_differently_configured_engines_coexist_in_one_store(self, tmp_path):
        # Regression: balance=True and balance=False pad the same source
        # differently; their entries must not clobber each other.
        spanner = compile_spanner(r".*(?P<x>ab).*", alphabet="ab")
        store = PreprocessingStore(str(tmp_path))
        Engine(store=store, balance=True).count(spanner, caterpillar_slp(40))
        Engine(
            store=PreprocessingStore(str(tmp_path)), balance=False
        ).count(spanner, caterpillar_slp(40))
        # both configs warm-start now, with no rejects from clobbering
        for balance in (True, False):
            fresh = PreprocessingStore(str(tmp_path))
            Engine(store=fresh, balance=balance).count(spanner, caterpillar_slp(40))
            assert fresh.stats.hits >= 1, f"balance={balance}"
            assert fresh.stats.rejects == 0, f"balance={balance}"

    def test_cold_count_writes_store_exactly_once(self, tmp_path):
        # Regression: the prep build used to persist a counts-less payload
        # that the counting build immediately rewrote in full.
        store = PreprocessingStore(str(tmp_path))
        spanner = compile_spanner(r".*(?P<x>ab).*", alphabet="ab")
        assert Engine(store=store).count(spanner, balanced_slp("abab")) == 2
        assert store.stats.writes == 1

    def test_store_orthogonal_to_identity_keys(self, tmp_path):
        # Identity keys + store: two equal SLP *objects* are two in-memory
        # entries but share one on-disk entry.
        store = PreprocessingStore(str(tmp_path))
        spanner = compile_spanner(r".*(?P<x>ab).*", alphabet="ab")
        engine = Engine(store=store)
        assert engine.count(spanner, balanced_slp("abab")) == 2
        assert engine.count(spanner, balanced_slp("abab")) == 2
        assert engine.cache_stats()["preprocessings"].size == 2
        assert store.stats.hits == 1  # second object restored from disk


class TestSelfHealing:
    """PR 9: corrupt entries are quarantined and rebuilt, saves are
    atomic, and a full disk degrades to a warn-once no-op."""

    def _saved(self, tmp_path):
        return TestRejection._saved(self, tmp_path)

    @pytest.fixture(autouse=True)
    def disarm_faults(self):
        from repro.faults import set_plan

        yield
        set_plan(None)

    def _quarantine_files(self, tmp_path):
        return [
            n for n in os.listdir(str(tmp_path)) if n.endswith(".quarantined")
        ]

    @pytest.mark.parametrize("damage", ["header", "body", "truncate"])
    def test_corrupt_entry_is_quarantined_and_rebuilt(self, tmp_path, damage):
        store, key, padded_slp, padded_nfa, entry = self._saved(tmp_path)
        with open(entry, "r+b") as fh:
            data = bytearray(fh.read())
            if damage == "header":
                data[0] ^= 0xFF  # break the magic
            elif damage == "body":
                data[len(data) // 2] ^= 0xFF  # CRC mismatch
            else:
                data = data[: len(data) // 3]
            fh.seek(0)
            fh.truncate()
            fh.write(data)
        assert store.load(*key, padded_slp, padded_nfa) is None
        # the bad bytes moved aside: the entry path is vacant, the
        # quarantine file holds the evidence, and the stats say so
        assert not os.path.exists(entry)
        assert self._quarantine_files(tmp_path) == [
            os.path.basename(entry) + ".quarantined"
        ]
        assert store.stats.quarantined == 1
        assert store.stats.rejects == 1
        assert len(store) == 0  # quarantine files are not entries
        assert store.scan_headers() == []
        # rebuild: a fresh save lands on the vacant path and round-trips
        prep = Preprocessing(padded_slp, padded_nfa)
        store.save(*key, prep)
        restored, _ = store.load(*key, padded_slp, padded_nfa)
        assert_tables_bit_for_bit(prep, restored)

    def test_clear_also_removes_quarantine_files(self, tmp_path):
        store, key, padded_slp, padded_nfa, entry = self._saved(tmp_path)
        with open(entry, "r+b") as fh:
            fh.write(b"\xff")
        store.load(*key, padded_slp, padded_nfa)
        assert self._quarantine_files(tmp_path)
        store.clear()
        assert self._quarantine_files(tmp_path) == []

    def test_enospc_save_is_a_warn_once_noop(self, tmp_path):
        import warnings as warnings_module

        from repro.faults import FaultPlan, FaultRule, set_plan
        from repro.obs.metrics import get_registry

        store = PreprocessingStore(str(tmp_path))
        source, padded_slp, padded_nfa, prep = build_pair()
        key = (source.structural_digest(), padded_nfa.structural_digest())
        set_plan(FaultPlan([FaultRule(site="store.save", kind="enospc")]))
        errors_before = get_registry().counter("store.save_errors").value
        with pytest.warns(RuntimeWarning, match="out of disk space"):
            store.save(*key, prep)
        # the second failure is silent: one warning per store instance
        with warnings_module.catch_warnings(record=True) as caught:
            warnings_module.simplefilter("always")
            store.save(*key, prep)
        assert caught == []
        assert store.stats.writes == 0
        assert len(store) == 0
        assert get_registry().counter("store.save_errors").value == errors_before + 2
        # evaluation continues: once space is back, saves work again
        set_plan(None)
        store.save(*key, prep)
        assert store.load(*key, padded_slp, padded_nfa) is not None

    def test_torn_write_is_caught_at_load_and_rebuilt(self, tmp_path):
        from repro.faults import FaultPlan, FaultRule, set_plan

        store = PreprocessingStore(str(tmp_path))
        source, padded_slp, padded_nfa, prep = build_pair()
        key = (source.structural_digest(), padded_nfa.structural_digest())
        set_plan(
            FaultPlan(
                [FaultRule(site="store.save.bytes", kind="torn", nth=1)]
            )
        )
        store.save(*key, prep)  # commits a truncated payload
        set_plan(None)
        assert store.load(*key, padded_slp, padded_nfa) is None
        assert store.stats.quarantined == 1
        store.save(*key, prep)
        restored, _ = store.load(*key, padded_slp, padded_nfa)
        assert_tables_bit_for_bit(prep, restored)

    def test_writer_killed_mid_save_leaves_no_partial_entry(self, tmp_path):
        """Satellite: atomic writes, proven by killing a real writer.

        A child process saves an entry with a ``crash`` fault armed at
        the ``store.save.commit`` site — after the payload bytes are on
        disk, before the rename.  The directory must show *no* ``.prep``
        entry afterwards: a reader can never observe a partial payload.
        """
        import subprocess
        import sys

        from repro.faults import CRASH_EXIT_CODE

        script = (
            "import sys\n"
            "from repro.slp.construct import balanced_slp\n"
            "from repro.spanner.regex import compile_spanner\n"
            "from repro.spanner.transform import pad_slp, pad_spanner\n"
            "from repro.core.matrices import Preprocessing\n"
            "from repro.store import PreprocessingStore\n"
            "source = balanced_slp('abbaab')\n"
            "base = compile_spanner(r'.*(?P<x>a+)b.*', alphabet='ab')"
            ".eliminate_epsilon().determinize().trim()\n"
            "padded_slp, padded_nfa = pad_slp(source), pad_spanner(base)\n"
            "store = PreprocessingStore(sys.argv[1])\n"
            "store.save(source.structural_digest(), "
            "padded_nfa.structural_digest(), "
            "Preprocessing(padded_slp, padded_nfa))\n"
            "sys.exit(3)  # unreachable: the commit fault crashes first\n"
        )
        env = dict(os.environ)
        env["REPRO_FAULTS"] = "store.save.commit:crash"
        src_dir = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.abspath(src_dir), env.get("PYTHONPATH", "")]
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == CRASH_EXIT_CODE, proc.stderr
        store = PreprocessingStore(str(tmp_path))
        assert len(store) == 0  # no entry, partial or otherwise
        assert store.scan_headers() == []
        # the survivor rebuilds and persists on the same path unharmed
        source, padded_slp, padded_nfa, prep = build_pair()
        key = (source.structural_digest(), padded_nfa.structural_digest())
        store.save(*key, prep)
        restored, _ = store.load(*key, padded_slp, padded_nfa)
        assert_tables_bit_for_bit(prep, restored)


# -- format v2: columnar sections, cross-kernel codecs, header-only has() ---

from repro.core.counting import CountsView  # noqa: E402
from repro.core.kernels import available_kernels, resolve_kernel  # noqa: E402
from repro.obs.metrics import get_registry  # noqa: E402
from repro.obs.trace import Tracer, read_trace, set_tracer  # noqa: E402
from repro.slp import io as slp_io  # noqa: E402
from repro.store import prime_store  # noqa: E402

KERNELS = available_kernels()
SPANNER = r".*(?P<x>a+)b.*"
WIDE_SPANNER = r".*(?P<x>a{65}).*"  # a DFA of more than 64 states


def dfa_pair(doc, pattern, kernel=None):
    source, padded_slp, padded_nfa, _ = build_pair(doc, pattern)
    return source, Preprocessing(padded_slp, padded_nfa, kernel=kernel)


def only_entry(directory):
    (entry,) = [n for n in os.listdir(directory) if n.endswith(".prep")]
    return os.path.join(directory, entry)


def reseal(data):
    """Recompute the trailing CRC-32 of a payload edited on purpose."""
    import zlib

    struct.pack_into("<I", data, len(data) - 4, zlib.crc32(data[:-4]))


def section_spans(buf):
    """``{section: (start, end)}`` of a v2 payload that holds u64 counts."""
    _, _, _, _, q, n_names = prepstore._HEAD.unpack_from(buf, 0)
    end = len(buf) - 4
    reader = prepstore._Reader(buf, prepstore._HEAD.size, end)
    spans = {"header": (0, prepstore._HEAD.size)}
    start = reader.pos
    for _ in range(reader.uvarint()):
        reader.uvarint()
    n_leaves = reader.raw(n_names).count(0)
    spans["final_states+kinds"] = (start, reader.pos)
    reader.align()
    plane = n_names * q * ((q + 63) // 64) * 8
    spans["notbot"] = (reader.skip(plane), reader.pos)
    spans["one"] = (reader.skip(plane), reader.pos)
    start = reader.pos
    reader.skip(reader.u64() * ((q + 63) // 64) * 8)
    spans["I"] = (start, reader.pos)
    start = reader.pos
    for _ in range(n_leaves):
        for _ in range(reader.uvarint()):  # entries: i, j, marker sets
            reader.uvarint()
            reader.uvarint()
            for _ in range(reader.uvarint()):
                for _ in range(reader.uvarint()):  # pairs: pos, var, kind
                    reader.uvarint()
                    reader.raw(reader.uvarint())
                    reader.byte()
    tag = reader.pos
    assert buf[tag] == prepstore._COUNTS_U64
    spans["leaf tables"] = (start, tag)
    spans["counts"] = (tag, end)
    spans["crc"] = (end, len(buf))
    return spans


class TestFormatV2:
    @pytest.mark.parametrize("wide", [False, True], ids=["q<=64", "q>64"])
    @pytest.mark.parametrize("restored_by", KERNELS)
    @pytest.mark.parametrize("saved_by", KERNELS)
    def test_saved_under_one_kernel_restores_under_each(
        self, tmp_path, saved_by, restored_by, wide
    ):
        doc, pattern = ("ab" * 8 + "a" * 70 + "ba", WIDE_SPANNER) if wide else (
            "abbaab" * 6, SPANNER
        )
        source, prep = dfa_pair(doc, pattern, kernel=saved_by)
        assert (prep.q > 64) == wide
        tables = CountingTables(prep)
        store = PreprocessingStore(str(tmp_path))
        key = (source.structural_digest(), prep.automaton.structural_digest())
        store.save(*key, prep, tables)
        restored, counts = store.load(
            *key, prep.slp, prep.automaton, kernel=restored_by
        )
        assert restored.kernel.name == restored_by
        assert restored.export_planes() == prep.export_planes()
        assert_tables_bit_for_bit(prep, restored)
        assert isinstance(counts, CountsView)
        assert counts == tables.counts
        loaded = CountingTables.from_counts(restored, counts)
        assert loaded is counts.tables  # adopted, not copied
        assert loaded.total() == tables.total() > 0

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_a_restored_entry_saves_back_bit_for_bit(self, tmp_path, kernel):
        """Re-saving restored tables (counts built after a counts-less
        restore) must encode sections that were never decoded."""
        source, prep = dfa_pair("abbaab" * 6, SPANNER, kernel=kernel)
        store = PreprocessingStore(str(tmp_path))
        key = (source.structural_digest(), prep.automaton.structural_digest())
        store.save(*key, prep)
        restored, counts = store.load(*key, prep.slp, prep.automaton, kernel=kernel)
        assert counts is None
        tables = CountingTables(restored)
        store.save(*key, restored, tables)
        again, counts = store.load(*key, prep.slp, prep.automaton, kernel=kernel)
        assert again.export_planes() == prep.export_planes()
        assert counts == CountingTables(prep).counts

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_counts_past_64_bits_take_the_uvarint_section(self, tmp_path, kernel):
        source = power_slp("ab", 70)  # 2**70 results
        spanner = compile_spanner(r"(a|b)*(?P<x>ab)(a|b)*", alphabet="ab")
        base = spanner.eliminate_epsilon().determinize().trim()
        padded_slp, padded_nfa = pad_slp(source), pad_spanner(base)
        prep = Preprocessing(padded_slp, padded_nfa, kernel=kernel)
        tables = CountingTables(prep)
        assert tables.total() == 2**70
        # the fixed-width u64 encoding refuses them
        codec = resolve_kernel(kernel)
        order = padded_slp.canonical_order()
        notbot = codec.encode_rows(prep.notbot, order, 1)
        assert codec.encode_cells(tables.rows, order, notbot, prep.q, 1) is None
        store = PreprocessingStore(str(tmp_path))
        key = (source.structural_digest(), padded_nfa.structural_digest())
        store.save(*key, prep, tables)
        for restored_by in KERNELS:
            restored, counts = store.load(
                *key, padded_slp, padded_nfa, kernel=restored_by
            )
            assert counts == tables.counts
            assert CountingTables.from_counts(restored, counts).total() == 2**70

    @pytest.mark.parametrize("damage", ["flip", "truncate"])
    @pytest.mark.parametrize(
        "section",
        ["header", "final_states+kinds", "notbot", "one", "I", "leaf tables",
         "counts", "crc"],
    )
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_damage_inside_each_section_is_quarantined_and_rebuilt(
        self, tmp_path, kernel, section, damage
    ):
        spanner = compile_spanner(SPANNER, alphabet="ab")
        doc = balanced_slp("abbaab" * 8)
        store = PreprocessingStore(str(tmp_path))
        expected = Engine(store=store, kernel=kernel).count(spanner, doc)
        entry = only_entry(str(tmp_path))
        with open(entry, "r+b") as fh:
            data = bytearray(fh.read())
            lo, hi = section_spans(bytes(data))[section]
            assert lo < hi
            middle = (lo + hi) // 2
            if damage == "flip":
                data[middle] ^= 0x10
            else:
                data = data[:middle]
            fh.seek(0)
            fh.truncate()
            fh.write(data)
        fresh = PreprocessingStore(str(tmp_path))
        assert Engine(store=fresh, kernel=kernel).count(spanner, doc) == expected
        assert fresh.stats.rejects == 1
        assert fresh.stats.quarantined == 1
        assert os.path.exists(entry + ".quarantined")
        assert fresh.stats.writes == 1  # rebuilt and re-persisted
        again = PreprocessingStore(str(tmp_path))
        assert Engine(store=again, kernel=kernel).count(spanner, doc) == expected
        assert (again.stats.hits, again.stats.rejects) == (1, 0)

    @pytest.mark.parametrize("wide", [False, True], ids=["q<=64", "q>64"])
    @pytest.mark.parametrize("section", ["notbot", "one", "I"])
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_a_mask_bit_past_q_is_rejected_at_load(
        self, tmp_path, kernel, section, wide
    ):
        """A well-sealed payload whose mask names a state >= q is refused
        by load itself, not left to fail at the first lookup.  The damage
        moves a set bit, so every cell count still matches."""
        doc, pattern = ("ab" * 8 + "a" * 70 + "ba", WIDE_SPANNER) if wide else (
            "abbaab" * 6, SPANNER
        )
        source, prep = dfa_pair(doc, pattern, kernel=kernel)
        assert prep.q % 64  # the top word of a row has spare bits
        store = PreprocessingStore(str(tmp_path))
        key = (source.structural_digest(), prep.automaton.structural_digest())
        store.save(*key, prep, CountingTables(prep))
        entry = only_entry(str(tmp_path))
        with open(entry, "rb") as fh:
            data = bytearray(fh.read())
        lo, hi = section_spans(bytes(data))[section]
        if section == "I":
            lo += 8  # past the cell count, to the first mask
        field = (prep.q + 63) // 64 * 8
        at = next(
            at for at in range(lo, hi, field) if any(data[at : at + field])
        )
        row = int.from_bytes(data[at : at + field], "little")
        row ^= row & -row  # its lowest set bit moves to bit 64 * row_words - 1
        data[at : at + field] = (row | 1 << (8 * field - 1)).to_bytes(field, "little")
        reseal(data)
        with open(entry, "wb") as fh:
            fh.write(data)
        fresh = PreprocessingStore(str(tmp_path))
        assert fresh.load(*key, prep.slp, prep.automaton, kernel=kernel) is None
        assert (fresh.stats.rejects, fresh.stats.quarantined) == (1, 1)

    def test_version_1_entry_is_a_clean_reject_overwritten_in_place(self, tmp_path):
        spanner = compile_spanner(SPANNER, alphabet="ab")
        doc = balanced_slp("abbaab" * 4)
        expected = Engine(store=PreprocessingStore(str(tmp_path))).count(spanner, doc)
        entry = only_entry(str(tmp_path))
        with open(entry, "r+b") as fh:
            data = bytearray(fh.read())
            struct.pack_into("<H", data, 6, 1)
            reseal(data)
            fh.seek(0)
            fh.write(data)
        fresh = PreprocessingStore(str(tmp_path))
        assert Engine(store=fresh).count(spanner, doc) == expected
        assert (fresh.stats.rejects, fresh.stats.quarantined) == (1, 0)
        assert os.listdir(str(tmp_path)) == [os.path.basename(entry)]
        with open(entry, "rb") as fh:
            (version,) = struct.unpack_from("<H", fh.read(8), 6)
        assert version == prepstore.STORE_FORMAT_VERSION == 2
        again = PreprocessingStore(str(tmp_path))
        assert Engine(store=again).count(spanner, doc) == expected
        assert again.stats.hits == 1

    def test_trailing_bytes_are_rejected(self, tmp_path):
        store, key, padded_slp, padded_nfa, entry = TestRejection._saved(
            self, tmp_path
        )
        with open(entry, "r+b") as fh:
            data = bytearray(fh.read())
            data[-4:-4] = b"\x00" * 8  # well-sealed, but longer than its sections
            reseal(data)
            fh.seek(0)
            fh.write(data)
        assert store.load(*key, padded_slp, padded_nfa) is None
        assert store.stats.quarantined == 1


class TestHas:
    def _saved(self, tmp_path):
        return TestRejection._saved(self, tmp_path)

    def _patched(self, entry, offset, value):
        with open(entry, "r+b") as fh:
            data = bytearray(fh.read())
            data[offset : offset + len(value)] = value
            fh.seek(0)
            fh.write(data)

    def test_true_for_a_current_entry_and_decodes_nothing(self, tmp_path):
        store, key, padded_slp, padded_nfa, _ = self._saved(tmp_path)
        checks = get_registry().counter("store.presence_checks")
        before = checks.value
        assert store.has(*key, padded_slp, padded_nfa)
        assert checks.value == before + 1
        assert (store.stats.hits, store.stats.misses, store.stats.bytes_read) == (0, 0, 0)

    def test_false_on_a_missing_file(self, tmp_path):
        store, key, padded_slp, padded_nfa, entry = self._saved(tmp_path)
        os.unlink(entry)
        assert not store.has(*key, padded_slp, padded_nfa)

    def test_false_on_a_stale_version(self, tmp_path):
        store, key, padded_slp, padded_nfa, entry = self._saved(tmp_path)
        self._patched(entry, 6, struct.pack("<H", 1))
        assert not store.has(*key, padded_slp, padded_nfa)

    @pytest.mark.parametrize("offset", [8, 24], ids=["padded-slp", "automaton"])
    def test_false_on_a_digest_mismatch(self, tmp_path, offset):
        store, key, padded_slp, padded_nfa, entry = self._saved(tmp_path)
        self._patched(entry, offset, bytes(16))
        assert not store.has(*key, padded_slp, padded_nfa)

    def test_false_on_a_truncated_header(self, tmp_path):
        store, key, padded_slp, padded_nfa, entry = self._saved(tmp_path)
        with open(entry, "r+b") as fh:
            fh.truncate(20)
        assert not store.has(*key, padded_slp, padded_nfa)

    def test_a_corrupt_body_is_left_to_load(self, tmp_path):
        store, key, padded_slp, padded_nfa, entry = self._saved(tmp_path)
        with open(entry, "r+b") as fh:
            data = bytearray(fh.read())
            data[len(data) // 2] ^= 0xFF
            fh.seek(0)
            fh.write(data)
        assert store.has(*key, padded_slp, padded_nfa)  # header only
        assert store.load(*key, padded_slp, padded_nfa) is None
        assert store.stats.quarantined == 1
        assert not store.has(*key, padded_slp, padded_nfa)


class TestPriming:
    def test_second_prime_over_a_warm_store_decodes_nothing(self, tmp_path):
        paths = []
        for k, text in enumerate(["abbaab" * 5, "abbaab" * 5, "babbab" * 5]):
            path = str(tmp_path / f"doc{k}.slpb")
            slp_io.save_binary(balanced_slp(text), path)
            paths.append(path)
        spanner = compile_spanner(SPANNER, alphabet="ab")
        directory = str(tmp_path / "store")
        assert prime_store(directory, [(spanner, paths)], task="count") == 1
        registry = get_registry()
        counters = ["store.restores", "store.restore_bytes"]
        before = [registry.counter(name).value for name in counters]
        checks = registry.counter("store.presence_checks").value
        assert prime_store(directory, [(spanner, paths)], task="count") == 0
        assert [registry.counter(name).value for name in counters] == before
        assert registry.counter("store.presence_checks").value == checks + 1


class TestRestoreSpan:
    def test_engine_store_restore_span_is_tagged(self, tmp_path):
        spanner = compile_spanner(SPANNER, alphabet="ab")
        doc = balanced_slp("abbaab" * 4)
        directory = str(tmp_path / "store")
        sink = str(tmp_path / "trace.jsonl")
        set_tracer(Tracer(sink))
        try:
            Engine(store=PreprocessingStore(directory)).count(spanner, doc)  # miss
            engine = Engine(store=PreprocessingStore(directory))
            engine.count(spanner, doc)  # hit, counts included
            with open(only_entry(directory), "r+b") as fh:
                fh.write(b"\xff")  # bad magic
            Engine(store=PreprocessingStore(directory)).count(spanner, doc)  # reject
        finally:
            set_tracer(None)
        spans = [r["tags"] for r in read_trace(sink) if r["name"] == "engine.store_restore"]
        assert [tags["outcome"] for tags in spans] == ["miss", "hit", "reject"]
        prep = engine.preprocessing(spanner, doc, deterministic=True)
        size = os.path.getsize(only_entry(directory))
        miss, hit, reject = spans
        assert miss["bytes"] == 0 and miss["counts"] == "absent"
        assert hit["bytes"] == size and hit["counts"] == "present"
        assert reject["bytes"] == size and reject["counts"] == "absent"
        for tags in spans:
            assert tags["q"] == prep.q
            assert tags["rules"] == len(prep.order)
