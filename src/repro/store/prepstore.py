"""On-disk persistence of Lemma 6.5 preprocessing (and counting) tables.

A :class:`PreprocessingStore` is a directory of ``.prep`` files.  Each
filename is a hash of three digests:

* ``slp_digest`` — :meth:`repro.slp.grammar.SLP.structural_digest` of the
  *source* document grammar (the engine's cache identity);
* ``automaton_digest`` — :meth:`repro.spanner.automaton.SpannerNFA.structural_digest`
  of the padded (NFA or DFA) automaton the tables were built against;
* the digest of the *padded* grammar, which captures the engine's
  padding configuration (``balance``, ``end_symbol``) so differently
  configured engines sharing a directory keep separate entries.

The store format version is written inside the payload, not the
filename: a stale-version entry occupies the same path, is rejected on
load (never misread) and is overwritten in place by the rebuild — so a
version bump recycles the directory rather than orphaning old files.

Payload layout (``repro-prep`` v2, little-endian, uvarint = unsigned
LEB128, pad8 = zero bytes up to the next multiple of 8 from the start of
the payload, row_words = ceil(q / 64), a *field* = row_words u64 words).
The per-name sections list the names in *section order*: the inner
nonterminals, then the leaves, each group in the padded SLP's canonical
order::

    header (48 bytes): magic b"rPREP\x00" | u16 version |
        16B padded-SLP digest | 16B automaton digest | u32 q | u32 n_names |
    final_states: uvarint count, uvarint each |
    kinds: n_names bytes (0 = leaf, 1 = inner) in canonical order
        (validated against the live SLP; they fix the section order) |
    pad8 |
    notbot section: n_names x q fields in section order, row i of a name
        holding bit j iff R_A[i,j] != bot |
    one section: the same shape, bit j iff R_A[i,j] = 1 |
    I section: u64 n, then n fields: the masks I_A[i,j] of the set notbot
        cells of the inner names, name by name, each name's row-major |
    leaf-table section: per leaf in section order:
        uvarint n_entries; per entry uvarint i, uvarint j,
        uvarint n_marker_sets; per set uvarint n_pairs; per pair
        uvarint position, uvarint len + UTF-8 var, u8 kind |
    counts: u8 tag — 0: absent; 1: pad8 | u64 n | n u64 counts
        |M_A[i,j]| of the set notbot cells of every name, name by name,
        each name's row-major; 2: the same counts as positional uvarints
        (used when some count is >= 2**64) |
    u32 CRC-32 of every preceding byte

The word sections are fixed-width arrays, and their codec is the active
kernel backend's (:mod:`repro.core.kernels`), so this module stays
numpy-free.  ``notbot`` and ``one`` are written with one gather and
``tobytes`` (:meth:`~repro.core.kernels.base.Kernel.encode_rows`) and
restored with one :meth:`~repro.core.kernels.base.Kernel.decode_rows`,
whose rows the per-name containers hand out; under the numpy kernel each
row is a read-only ``np.frombuffer`` view *into the payload bytes*.  ``I``
and the counts keep only the set notbot cells, whose positions the notbot
section already implies: a deterministic automaton sets about q of a
name's q² cells, so a dense ``I`` would be mostly zero words.  They are
written by one boolean-mask gather and restored by one scatter into a
``(names, q·q)`` array (:meth:`~repro.core.kernels.base.Kernel.encode_cells`,
:meth:`~repro.core.kernels.base.Kernel.decode_cells`), which
:class:`~repro.core.counting.CountingTables` adopts as it is — no
``{(name, i, j): count}`` dict either way.

A restore validates the whole payload up front — CRC, digests, ``q``,
kinds, every section's bounds and cell count, no mask bit at or past
``q`` in notbot, one or I, no trailing bytes — but
decodes a section only when a name of it is first looked up: a count
served from restored counting tables decodes the counts and nothing else.
That keeps a restore at O(size(S)) Python operations over at most
O(size(S) · q²) bytes (about O(size(S) · q) for a deterministic
automaton), which is what lets a store-backed cold start beat
re-running the O(size(S) · q²) Lemma 6.5 recurrence.

:meth:`PreprocessingStore.has` answers "is this pair stored?" from the
48-byte header alone (magic, version, both digests, q) — what store
priming asks per corpus digest.  A corrupt body behind a good header is
still caught by the CRC-checked :meth:`PreprocessingStore.load` of
whoever needs the tables, quarantined and rebuilt.

Nonterminal *names* are never stored.  Tables are indexed by position in
the padded SLP's :meth:`~repro.slp.grammar.SLP.canonical_order`, which is
naming-independent, so a structurally equal grammar loaded tomorrow (with
fresh names) re-attaches the same tables.  The payload embeds the padded
grammar's and automaton's digests and :meth:`load` re-derives both from
the live objects: any mismatch — a different balancer, another end
symbol, a colliding key — is a miss, never a wrong answer.

Corruption (truncation, bit-flips, trailing bytes, stale versions) is
handled by rebuilding: :meth:`load` returns ``None`` and counts a
:attr:`StoreStats.rejects`; it never raises on a bad file.  A *corrupt*
entry (bad magic, truncated, CRC mismatch) is additionally
**quarantined** — renamed aside to ``<name>.prep.quarantined`` and
counted in :attr:`StoreStats.quarantined` / the ``store.quarantined``
metric — so the rebuild overwrites a vacant path and the bad bytes stay
available for post-mortem instead of being re-read (and re-rejected)
on every subsequent call.  Saves are atomic (tmp + fsync + rename: a
writer killed mid-save leaves only a tmp file, never a partial entry)
and degrade to a warn-once no-op when the disk is full.  The
:mod:`repro.faults` sites ``store.save``, ``store.save.bytes``,
``store.save.commit`` and ``store.load.bytes`` let tests inject all of
those failures deterministically.
"""

from __future__ import annotations

import errno
import hashlib
import os
import struct
import warnings
import zlib
from dataclasses import dataclass
from itertools import compress
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.counting import CountingTables, CountsView, Key
from repro.core.kernels import Kernel, resolve_kernel
from repro.core.kernels.base import CellRows, CountRows, PlaneRows
from repro.core.matrices import Preprocessing
from repro.faults import fault_point, mangle
from repro.obs.metrics import BYTE_BUCKETS, get_registry
from repro.slp.grammar import SLP
from repro.spanner.automaton import SpannerNFA
from repro.spanner.markers import CLOSE, OPEN, Marker, Pairs

from repro.store.binary import _write_uvarint

MAGIC = b"rPREP\x00"
STORE_FORMAT_VERSION = 2

_HEAD = struct.Struct("<6sH16s16sII")
_CRC = struct.Struct("<I")
_U64 = struct.Struct("<Q")

#: The counts section's tag byte.
_COUNTS_ABSENT, _COUNTS_U64, _COUNTS_UVARINT = 0, 1, 2

#: A decoded section: per-name containers, by position in section order.
_Rows = Union[Sequence[Any], CellRows]

#: What :meth:`PreprocessingStore.save` persists as counting tables: the
#: tables themselves, or (for callers holding only the historical dict)
#: any ``{(name, i, j): count}`` mapping over the notbot-set cells.
Counts = Union[CountingTables, Mapping[Key, int]]


@dataclass
class StoreStats:
    """Counters of one :class:`PreprocessingStore` (live, not a snapshot)."""

    hits: int = 0
    misses: int = 0
    rejects: int = 0  # present but stale/corrupt/mismatched -> rebuilt
    writes: int = 0
    quarantined: int = 0  # corrupt entries renamed aside (self-healing)
    bytes_read: int = 0  # payload bytes read by load, hits and rejects


class _Reader:
    """Cursor over a payload with bounds-checked primitive reads."""

    __slots__ = ("buf", "pos", "end")

    def __init__(self, buf: bytes, pos: int, end: int) -> None:
        self.buf = buf
        self.pos = pos
        self.end = end

    def uvarint(self) -> int:
        # _read_uvarint inlined: this is called per leaf-table entry.
        buf, pos, end = self.buf, self.pos, self.end
        value = 0
        shift = 0
        while True:
            if pos >= end:
                raise ValueError("truncated payload")
            byte = buf[pos]
            pos += 1
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                self.pos = pos
                return value
            shift += 7

    def byte(self) -> int:
        if self.pos >= self.end:
            raise ValueError("truncated payload")
        value = self.buf[self.pos]
        self.pos += 1
        return value

    def skip(self, length: int) -> int:
        """Advance over ``length`` bytes without copying; their offset."""
        start = self.pos
        if start + length > self.end:
            raise ValueError("truncated payload")
        self.pos = start + length
        return start

    def raw(self, length: int) -> bytes:
        start = self.skip(length)
        return self.buf[start : self.pos]

    def align(self) -> None:
        """Skip the padding up to the next multiple of 8."""
        self.skip(-self.pos % 8)

    def u64(self) -> int:
        return int(_U64.unpack_from(self.buf, self.skip(_U64.size))[0])


def _align(out: bytearray) -> None:
    out += bytes(-len(out) % 8)


#: Maps a kinds byte 0 <-> 1, so ``compress`` can select the leaves.
_NOT = bytes([1, 0]) + bytes(254)


def _kinds(slp: SLP, order: Sequence[object]) -> bytes:
    """One byte per name of ``order``: 0 for a leaf, 1 for an inner rule."""
    return bytes(map(slp.inner_rules.__contains__, order))


class _LazyRows(Dict[object, Any]):
    """The per-name containers of one section, decoded on first lookup.

    A restore validates every section but only records how to decode it;
    the first lookup of a name runs the section's decode (the plane
    sections decode whole — under the numpy kernel, one zero-copy view —
    and the cell sections only the looked-up vector), so a section a task
    never reads costs nothing: a count served from restored counting
    tables decodes one counts vector and no plane.  Looked-up containers
    are memoised in the dict itself, so steady-state access is a plain
    dict lookup and the dict's own keys are the names actually used;
    membership covers every name of the section.
    """

    __slots__ = ("_index", "_decode", "_rows")

    def __init__(self, index: Dict[object, int], decode: Callable[[], _Rows]) -> None:
        super().__init__()
        self._index = index
        self._decode: Optional[Callable[[], _Rows]] = decode
        self._rows: _Rows = ()

    def __missing__(self, name: object) -> Any:
        t = self._index[name]  # unknown name -> KeyError, as a dict would
        if self._decode is not None:
            self._rows = self._decode()
            self._decode = None
        value = self._rows[t]
        self[name] = value
        return value

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def get(self, name: object, default: Any = None) -> Any:
        return self[name] if name in self._index else default


def _notbot_cells(
    notbot: Mapping[object, PlaneRows], name: object, q: int
) -> Iterator[Tuple[int, int]]:
    """The set cells ``(i, j)`` of one name's notbot plane, row-major."""
    rows = notbot[name]
    for i in range(q):
        row = int(rows[i])  # kernel-native rows may be np scalars
        while row:
            lsb = row & -row
            yield i, lsb.bit_length() - 1
            row ^= lsb


def _encode_prep(prep: Preprocessing, counts: Optional[Counts]) -> bytes:
    slp = prep.slp
    kernel = prep.kernel
    q = prep.q
    order = slp.canonical_order()
    kinds = _kinds(slp, order)
    names, n_inner = _section_order(order, kinds)
    row_words = (q + 63) // 64
    out = bytearray(
        _HEAD.pack(
            MAGIC,
            STORE_FORMAT_VERSION,
            bytes.fromhex(slp.structural_digest()),
            bytes.fromhex(prep.automaton.structural_digest()),
            q,
            len(order),
        )
    )
    _write_uvarint(out, len(prep.final_states))
    for state in prep.final_states:
        _write_uvarint(out, state)
    out += kinds
    _align(out)
    notbot = kernel.encode_rows(prep.notbot, names, row_words)
    out += notbot
    out += kernel.encode_rows(prep.one, names, row_words)
    i_cells = kernel.encode_cells(prep.I, names[:n_inner], notbot, q, row_words)
    assert i_cells is not None  # I masks are q bits wide
    out += _U64.pack(len(i_cells) // (row_words * 8))
    out += i_cells
    for name in names[n_inner:]:  # leaf-table section
        entries = sorted(prep.leaf_tables[name].items())
        _write_uvarint(out, len(entries))
        for (i, j), marker_sets in entries:
            _write_uvarint(out, i)
            _write_uvarint(out, j)
            _write_uvarint(out, len(marker_sets))
            for pairs in marker_sets:
                _write_uvarint(out, len(pairs))
                for pos, marker in pairs:
                    _write_uvarint(out, pos)
                    var = marker.var.encode("utf-8")
                    _write_uvarint(out, len(var))
                    out += var
                    out.append(0 if marker.kind == OPEN else 1)
    if counts is None:
        out.append(_COUNTS_ABSENT)
    else:
        if not isinstance(counts, CountingTables):
            counts = CountingTables.from_counts(prep, counts)
        rows = counts.rows
        words = kernel.encode_cells(rows, names, notbot, q, 1)
        if words is not None:
            out.append(_COUNTS_U64)
            _align(out)
            out += _U64.pack(len(words) // _U64.size)
            out += words
        else:  # a count needs more than 64 bits: exact uvarints
            out.append(_COUNTS_UVARINT)
            for name in names:
                flat = rows.get(name)
                for i, j in _notbot_cells(prep.notbot, name, q):
                    _write_uvarint(out, 0 if flat is None else int(flat[i * q + j]))
    out += _CRC.pack(zlib.crc32(out))
    return bytes(out)


def _section_order(order: Sequence[object], kinds: bytes) -> Tuple[List[object], int]:
    """The names in section order — the inner names, then the leaves, each
    in canonical order — and the number of inner names."""
    inners = list(compress(order, kinds))
    return inners + list(compress(order, kinds.translate(_NOT))), len(inners)


def _decode_prep(
    buf: bytes,
    padded_slp: SLP,
    automaton: SpannerNFA,
    kernel: Union[None, str, Kernel] = None,
) -> Optional[Tuple[Preprocessing, Optional[CountsView]]]:
    """Attach a stored payload to live objects; ``None`` on any mismatch.

    ``kernel`` selects the section codec (and the layout of the attached
    planes and counts).  Raises ``ValueError``/``struct.error`` on
    corrupt bytes (callers treat those as a reject too).
    """
    codec = resolve_kernel(kernel)
    end = len(buf) - _CRC.size
    if end < _HEAD.size:
        raise ValueError("truncated payload")
    magic, version, slp_digest, auto_digest, q, n_names = _HEAD.unpack_from(buf, 0)
    if magic != MAGIC:
        raise ValueError(f"bad magic {magic!r}")
    if version != STORE_FORMAT_VERSION:
        return None  # stale format: rebuild
    (stored_crc,) = _CRC.unpack_from(buf, end)
    if stored_crc != zlib.crc32(memoryview(buf)[:end]):
        raise ValueError("CRC mismatch")
    if (
        slp_digest.hex() != padded_slp.structural_digest()
        or auto_digest.hex() != automaton.structural_digest()
        or q != automaton.num_states
    ):
        return None  # built for different inputs: a clean miss
    order = padded_slp.canonical_order()
    if n_names != len(order):
        return None
    reader = _Reader(buf, _HEAD.size, end)
    final_states = [reader.uvarint() for _ in range(reader.uvarint())]
    kinds = reader.raw(n_names)
    if kinds != _kinds(padded_slp, order):
        return None  # shape disagrees with the live grammar
    names, n_inner = _section_order(order, kinds)
    row_words = (q + 63) // 64
    field = row_words * 8
    reader.align()
    notbot_offset = reader.skip(n_names * q * field)
    one_offset = reader.skip(n_names * q * field)
    n_i_cells = reader.u64()
    i_offset = reader.skip(n_i_cells * field)
    # No mask may name a state >= q: notbot and one are adjacent, one check.
    codec.check_rows(buf, notbot_offset, 2 * n_names * q, q)
    codec.check_rows(buf, i_offset, n_i_cells, q)
    # One decode per section, on first use; under the numpy kernel every
    # plane row is a zero-copy view into the payload.
    index = dict(zip(names, range(n_names)))
    notbot = _LazyRows(
        index, lambda: codec.decode_rows(buf, notbot_offset, n_names, q, row_words)
    )
    one = _LazyRows(
        index, lambda: codec.decode_rows(buf, one_offset, n_names, q, row_words)
    )
    i_rows = codec.decode_cells(
        buf, i_offset, n_i_cells, notbot_offset, n_inner, q, row_words
    )
    i_vectors = _LazyRows(dict(zip(names[:n_inner], range(n_inner))), lambda: i_rows)
    leaf_tables: Dict[object, Dict[Tuple[int, int], Tuple[Pairs, ...]]] = {}
    for name in names[n_inner:]:
        table: Dict[Tuple[int, int], Tuple[Pairs, ...]] = {}
        for _ in range(reader.uvarint()):
            i = reader.uvarint()
            j = reader.uvarint()
            marker_sets: List[Pairs] = []
            for _ in range(reader.uvarint()):
                pairs: List[Tuple[int, Marker]] = []
                for _ in range(reader.uvarint()):
                    pos = reader.uvarint()
                    var = reader.raw(reader.uvarint()).decode("utf-8")
                    marker_kind = OPEN if reader.byte() == 0 else CLOSE
                    pairs.append((pos, Marker(var, marker_kind)))
                marker_sets.append(tuple(pairs))
            table[(i, j)] = tuple(marker_sets)
        leaf_tables[name] = table
    tag = reader.byte()
    rows: Optional[CountRows] = None
    if tag == _COUNTS_U64:
        reader.align()
        n_cells = reader.u64()
        offset = reader.skip(n_cells * _U64.size)
        count_rows = codec.decode_cells(buf, offset, n_cells, notbot_offset, n_names, q, 1)
        rows = _LazyRows(index, lambda: count_rows)
    elif tag == _COUNTS_UVARINT:
        uvarint = reader.uvarint
        exact: Dict[object, List[int]] = {}
        for name in names:
            flat = [0] * (q * q)
            for i, j in _notbot_cells(notbot, name, q):
                flat[i * q + j] = uvarint()
            exact[name] = flat
        rows = exact
    elif tag != _COUNTS_ABSENT:
        raise ValueError(f"bad counts tag {tag}")
    if reader.pos != end:
        raise ValueError("trailing bytes")
    prep = Preprocessing.from_planes(
        padded_slp,
        automaton,
        {
            "leaf_tables": leaf_tables,
            "notbot": notbot,
            "one": one,
            "I": i_vectors,
            "final_states": final_states,
        },
        kernel=codec,
    )
    if rows is None:
        return prep, None
    return prep, CountsView(CountingTables.from_rows(prep, rows))


class StoreEntryInfo(NamedTuple):
    """Header fields of one ``.prep`` file (see :meth:`PreprocessingStore.scan_headers`)."""

    filename: str
    version: int
    padded_digest: str
    automaton_digest: str
    q: int
    n_names: int


class PreprocessingStore:
    """A directory of persisted preprocessing tables, consulted by the engine.

    >>> import tempfile
    >>> from repro.slp.construct import balanced_slp
    >>> from repro.engine import Engine
    >>> from repro.spanner.regex import compile_spanner
    >>> store = PreprocessingStore(tempfile.mkdtemp())
    >>> spanner = compile_spanner(r".*(?P<x>ab).*", alphabet="ab")
    >>> Engine(store=store).count(spanner, balanced_slp("abab"))   # builds + persists
    2
    >>> Engine(store=store).count(spanner, balanced_slp("abab"))   # fresh process: store hit
    2
    >>> store.stats.hits, store.stats.writes >= 1
    (1, True)
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.stats = StoreStats()
        self._warned_no_space = False

    def _path(
        self, slp_digest: str, automaton_digest: str, padded_digest: str
    ) -> str:
        # The padded-SLP digest is part of the file key: it captures the
        # engine's whole padding configuration (balance, end_symbol), so
        # engines with different settings sharing one directory keep
        # separate entries instead of clobbering each other's.
        key = hashlib.blake2b(
            f"{slp_digest}:{automaton_digest}:{padded_digest}".encode(),
            digest_size=16,
        ).hexdigest()
        return os.path.join(self.directory, f"{key}.prep")

    def load(
        self,
        slp_digest: str,
        automaton_digest: str,
        padded_slp: SLP,
        automaton: SpannerNFA,
        kernel: Union[None, str, Kernel] = None,
    ) -> Optional[Tuple[Preprocessing, Optional[CountsView]]]:
        """The persisted ``(Preprocessing, counts)`` for the key, or ``None``.

        ``counts`` is a :class:`~repro.core.counting.CountsView` — a
        read-only ``{(name, i, j): count}`` mapping over restored
        :class:`~repro.core.counting.CountingTables`, which
        ``CountingTables.from_counts`` adopts without copying — or
        ``None`` when the entry was saved before its counting tables were
        ever built.  ``kernel`` selects the section codec — the on-disk
        format is kernel-independent, so entries written under one
        backend restore under any other.  Stale versions,
        corrupt payloads and digest mismatches all return ``None``
        (counted in :attr:`StoreStats.rejects`) so the caller simply
        rebuilds; a payload that fails to *decode* (truncation,
        bit-flips, garbage) is additionally quarantined — renamed aside
        so the rebuild's save lands on a vacant path.
        """
        path = self._path(
            slp_digest, automaton_digest, padded_slp.structural_digest()
        )
        registry = get_registry()
        try:
            with open(path, "rb") as fh:
                buf = fh.read()
        except OSError:
            self.stats.misses += 1
            registry.counter("store.misses").inc()
            return None
        buf = mangle("store.load.bytes", buf)
        self.stats.bytes_read += len(buf)
        try:
            restored = _decode_prep(buf, padded_slp, automaton, kernel)
        except Exception:  # repro-check: broad-except — untrusted cache bytes: any decode failure means quarantine + rebuild (counted as a reject)
            self._quarantine(path)
            restored = None
        if restored is None:
            self.stats.rejects += 1
            registry.counter("store.rejects").inc()
            return None
        self.stats.hits += 1
        registry.counter("store.restores").inc()
        registry.counter("store.restore_bytes").inc(len(buf))
        registry.histogram("store.entry_bytes", BYTE_BUCKETS).observe(len(buf))
        return restored

    def has(
        self,
        slp_digest: str,
        automaton_digest: str,
        padded_slp: SLP,
        automaton: SpannerNFA,
    ) -> bool:
        """Whether the key holds a current entry for these inputs.

        Reads only the 48-byte header: the magic, the format version,
        both embedded digests and ``q`` must match.  Nothing is decoded
        and no hit/miss is counted (presence checks are counted in the
        ``store.presence_checks`` metric).  The body is not verified: a
        corrupt body behind a good header is caught by the CRC check of
        the :meth:`load` that needs the tables, and rebuilt there.
        """
        get_registry().counter("store.presence_checks").inc()
        path = self._path(
            slp_digest, automaton_digest, padded_slp.structural_digest()
        )
        try:
            with open(path, "rb") as fh:
                head = fh.read(_HEAD.size)
            magic, version, slp_digest_b, auto_digest_b, q, _ = _HEAD.unpack(head)
        except (OSError, struct.error):
            return False
        return (
            magic == MAGIC
            and version == STORE_FORMAT_VERSION
            and slp_digest_b.hex() == padded_slp.structural_digest()
            and auto_digest_b.hex() == automaton.structural_digest()
            and q == automaton.num_states
        )

    def _quarantine(self, path: str) -> None:
        """Move a corrupt entry aside so the rebuild owns its path.

        The bad bytes stay on disk (``<name>.prep.quarantined``,
        invisible to :meth:`__len__` / :meth:`scan_headers`) for
        post-mortem; a second corruption of the same key overwrites the
        previous quarantine file rather than accumulating.
        """
        try:
            os.replace(path, f"{path}.quarantined")
        except OSError:
            try:
                os.unlink(path)  # can't rename: removing still unblocks rebuild
            except OSError:
                return  # neither worked; the entry stays and keeps rejecting
        self.stats.quarantined += 1
        get_registry().counter("store.quarantined").inc()

    def save(
        self,
        slp_digest: str,
        automaton_digest: str,
        prep: Preprocessing,
        counts: Optional[Counts] = None,
    ) -> None:
        """Persist the tables under the key (atomic; best-effort).

        ``counts`` are the pair's :class:`~repro.core.counting.CountingTables`
        (encoded straight from their vectors), a ``{(name, i, j): count}``
        mapping of them, or ``None``.

        The write goes to a tmp file that is fsynced and then renamed
        over the entry, so a writer killed at *any* point leaves either
        the old entry or the new one — never a partial payload the next
        reader must CRC-reject.  A full disk (``ENOSPC``) degrades to a
        warn-once no-op: the store is a cache, so losing a write costs
        a rebuild, not correctness.
        """
        path = self._path(
            slp_digest, automaton_digest, prep.slp.structural_digest()
        )
        data = _encode_prep(prep, counts)
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            fault_point("store.save")
            payload = mangle("store.save.bytes", data)
            with open(tmp, "wb") as fh:
                fh.write(payload)
                fh.flush()
                os.fsync(fh.fileno())
            fault_point("store.save.commit")
            os.replace(tmp, path)
        except OSError as exc:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            get_registry().counter("store.save_errors").inc()
            if exc.errno == errno.ENOSPC and not self._warned_no_space:
                self._warned_no_space = True
                warnings.warn(
                    f"preprocessing store {self.directory!r} is out of disk "
                    f"space; persistence is disabled until space frees up "
                    f"(evaluation continues, rebuilding tables in memory)",
                    RuntimeWarning,
                    stacklevel=2,
                )
            return
        self.stats.writes += 1
        registry = get_registry()
        registry.counter("store.writes").inc()
        registry.counter("store.save_bytes").inc(len(data))

    def __len__(self) -> int:
        return sum(1 for n in os.listdir(self.directory) if n.endswith(".prep"))

    def scan_headers(self) -> List[StoreEntryInfo]:
        """Header fields of every well-formed entry (payloads untouched).

        The filename key is a one-way hash, so this scan is how tooling
        (``repro stats --store``) correlates a grammar with its entries:
        the header's padded-SLP digest is derivable from a grammar plus a
        padding configuration.  Unreadable or wrong-magic files are
        skipped, never raised on.
        """
        out: List[StoreEntryInfo] = []
        for name in sorted(os.listdir(self.directory)):
            if not name.endswith(".prep"):
                continue
            try:
                with open(os.path.join(self.directory, name), "rb") as fh:
                    head = fh.read(_HEAD.size)
                magic, version, slp_digest, auto_digest, q, n_names = _HEAD.unpack(
                    head
                )
            except (OSError, struct.error):
                continue
            if magic != MAGIC:
                continue
            out.append(
                StoreEntryInfo(
                    name, version, slp_digest.hex(), auto_digest.hex(), q, n_names
                )
            )
        return out

    def clear(self) -> None:
        """Remove every persisted entry, quarantined ones included
        (counters are kept)."""
        for name in os.listdir(self.directory):
            if name.endswith(".prep") or name.endswith(".prep.quarantined"):
                try:
                    os.unlink(os.path.join(self.directory, name))
                except OSError:
                    pass

    def __repr__(self) -> str:
        return (
            f"PreprocessingStore({self.directory!r}, entries={len(self)}, "
            f"hits={self.stats.hits}, misses={self.stats.misses}, "
            f"rejects={self.stats.rejects}, writes={self.stats.writes}, "
            f"quarantined={self.stats.quarantined})"
        )
