"""Vectorised kernel backend: bit-planes as uint64 ndarrays.

Only imported on demand by :func:`repro.core.kernels.resolve_kernel` —
importing :mod:`repro` (or this package's ``__init__``) must never require
numpy.

**Layout.**  A plane of ``n`` rows over ``q`` states is an
``(n, row_words)`` array of ``uint64`` words, ``row_words = ceil(q/64)``,
word ``w`` of row ``i`` holding bits ``64·w .. 64·w+63`` little-endian.
The build holds the ``notbot`` and ``one`` planes of *all* rules, and
their transposes (the column planes), as four contiguous
``(n_rules, q, row_words)`` arrays, plus one ``(n_inner, q, q,
row_words)`` array for ``I``.  A rule's index in them is its slot in the
preprocessing's :class:`~repro.core.kernels.base.RuleLevels`, so the
rules of one level are one contiguous slice.  The per-name containers
handed to :class:`~repro.core.matrices.Preprocessing` are views into
these arrays: 1-D ``uint64`` rows for ``q <= 64`` (``row_words == 1``),
whose scalars the accessors normalise with ``int()``; wider automata are
materialised to Python bigint rows after the build, so every consumer
sees the same logical values either way.

The ``notbot`` and ``one`` sections of a ``.prep`` v2 entry
(:mod:`repro.store.prepstore`) are bit-for-bit these
``(n_rules, q, row_words)`` arrays, with the rules in the store's section
order instead of slot order: :meth:`NumpyKernel.encode_rows` writes one
with a single gather and ``tobytes``, and :meth:`NumpyKernel.decode_rows`
restores it as one zero-copy ``np.frombuffer`` view whose rows become the
per-name containers.  The ``I`` and counts sections hold the ``I`` masks
and the counts of the set ``notbot`` cells only, gathered and scattered
with one boolean mask unpacked from the notbot section.

**The Lemma 6.5 build**, one level at a time.  For the rules
``A -> B C`` of a level, gathered into ``L``-long index vectors, the
whole level's ``I`` is one broadcast AND over an ``(L, q, q, row_words)``
cube, ``I[l, i, j] = notbot_B[i] & columns(notbot_C)[j]``, written in
place into the ``I`` array.  ``R_A[i, j] ≠ ⊥`` iff that cube cell is
nonzero, and ``R_A[i, j] = 1`` iff the cell meets ``one_B[i]`` or
``columns(one_C)[j]`` (``one`` is a subset of ``notbot``, so
``(one_B & col_nb_C) | (nb_B & col_one_C) = I & (one_B | col_one_C)``).
The four row and column planes of the level are then packed from those
two ``(L, q, q)`` boolean cubes with ``np.packbits``.  A level wider than
:data:`BATCH_WORDS` words of cube is split into batches, which bounds the
transient memory whatever the grammar.

**The counting recurrence** (Lemmas 6.9/8.7) is a matrix product: the
count ``|M_B[i, k]|`` is nonzero exactly on the ``notbot`` cells, so
``Σ_{k ∈ I_A[i,j]} |M_B[i,k]|·|M_C[k,j]|`` is ``(count_B @ count_C)[i, j]``
— including the zero cells outside ``notbot``.  Each level is one batched
float64 ``matmul`` (BLAS, an order of magnitude faster than numpy's int64
product at these sizes), which is *exact* while every count stays below
:data:`FLOAT_EXACT` = 2**53, and a computed product proves whether it
did.  Counts grow with the document and may pass any fixed width, so
from the first batch whose product reaches 2**53 on, the remaining levels
are computed in exact Python-int (``object``) arithmetic.  The rows are
handed out as they were computed, float64 or ``object``; consumers
int()-normalise them, as they do the planes.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    SupportsInt,
    Tuple,
    Union,
)

import numpy as np

from repro.core.kernels.base import (
    CellRows,
    CountRows,
    Kernel,
    Planes,
    PYTHON_KERNEL,
    RuleLevels,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.matrices import Preprocessing

#: The on-disk (and in-memory) word type: little-endian uint64.
WORD = np.dtype("<u8")

#: Below this many states the per-call ndarray set-up costs more than the
#: bigint loop it replaces; delegate tiny products to the reference kernel.
MIN_VECTOR_Q = 32

#: The most uint64 words one batch's ``(L, q, q, row_words)`` cube may
#: hold (4 MiB); wider levels are split, so a build's transient memory
#: stays a small multiple of this whatever the grammar's shape.
BATCH_WORDS = 1 << 19

#: float64 holds every integer below this exactly.  A float64 product of
#: nonnegative integer matrices whose every result is below it is exact,
#: since each partial sum is at most the result; and a computed result
#: below it proves that the true one is (rounding is monotone).
FLOAT_EXACT = 2.0**53

Rows = Union[List[int], np.ndarray]


def _as_words(rows: Rows, row_words: int) -> np.ndarray:
    """Any plane container as an ``(n, row_words)`` uint64 word array."""
    if isinstance(rows, np.ndarray):
        return rows.reshape(len(rows), row_words)
    if row_words == 1:
        return np.array(rows, dtype=np.uint64).reshape(len(rows), 1)
    width = row_words * 8
    blob = b"".join(int(value).to_bytes(width, "little") for value in rows)
    return np.frombuffer(blob, dtype=WORD).reshape(len(rows), row_words)


def _unpack_bits(words: np.ndarray, q: int) -> np.ndarray:
    """``(n, row_words)`` words -> ``(n, q)`` 0/1 bytes (bit ``j`` -> column ``j``)."""
    u8 = np.ascontiguousarray(words).view(np.uint8)
    return np.unpackbits(u8, axis=1, bitorder="little")[:, :q]


def _pack(bits: np.ndarray, row_words: int) -> np.ndarray:
    """``(..., q)`` booleans -> ``(..., row_words)`` uint64 words, bit ``j`` = ``bits[..., j]``.

    Rows are padded to whole words first, so a single flat ``packbits``
    packs them all (far faster than ``packbits`` along an axis).
    """
    lead = bits.shape[:-1]
    padded = np.zeros(lead + (row_words * 64,), dtype=bool)
    padded[..., : bits.shape[-1]] = bits
    packed = np.packbits(padded.reshape(-1), bitorder="little")
    return packed.view(WORD).reshape(lead + (row_words,))


def _to_ints(words: np.ndarray) -> np.ndarray:
    """``(..., row_words)`` words -> the ``(...)`` row values, ``tolist()``-ready.

    One word needs no conversion (``tolist`` yields Python ints); wider
    rows are assembled as Python bigints in an ``object`` array.
    """
    if words.shape[-1] == 1:
        return words[..., 0]
    values = words[..., 0].astype(object)
    for w in range(1, words.shape[-1]):
        values |= words[..., w].astype(object) << (64 * w)
    return values


def _batches(
    levels: RuleLevels, cells: int
) -> Iterator[Tuple[int, int, np.ndarray, np.ndarray]]:
    """The inner rules, level by level, as ``(lo, hi, left, right)`` batches.

    ``lo:hi`` is a slot range inside one level and ``left``/``right`` are
    the child slots of its rules.  ``cells`` is the size of one rule's
    cube; a batch holds at most :data:`BATCH_WORDS` of them (and always at
    least one rule).
    """
    step = max(1, BATCH_WORDS // cells)
    bounds = levels.bounds
    n_leaves = bounds[1]
    left = np.array(levels.left, dtype=np.intp)
    right = np.array(levels.right, dtype=np.intp)
    for lo_level, hi_level in zip(bounds[1:], bounds[2:]):
        for lo in range(lo_level, hi_level, step):
            hi = min(lo + step, hi_level)
            children = slice(lo - n_leaves, hi - n_leaves)
            yield lo, hi, left[children], right[children]


def _leaf_cells(prep: "Preprocessing") -> np.ndarray:
    """The nonempty leaf-table cells as rows ``(slot, i, j, size, marked)``.

    ``size`` is ``|M_Tx[i, j]|``; ``marked`` is 1 iff the cell holds a
    nonempty marker set (``R = 1``).  Leaves are the first slots.
    """
    levels = prep.levels
    tables = prep.leaf_tables
    cells = [
        (slot, i, j, len(entries), entries != ((),))
        for slot, name in enumerate(levels.names[: levels.bounds[1]])
        for (i, j), entries in tables[name].items()
        if entries
    ]
    return np.array(cells, dtype=np.int64).reshape(len(cells), 5)


class NumpyKernel(Kernel):
    """Vectorised backend over the shared uint64 word layout."""

    name = "numpy"

    def build_planes(self, prep: "Preprocessing") -> Planes:
        q = prep.q
        row_words = (q + 63) // 64
        levels = prep.levels
        names = levels.names
        n_rules, n_leaves = len(names), levels.bounds[1]
        shape = (n_rules, q, row_words)
        notbot = np.empty(shape, dtype=WORD)
        one = np.empty(shape, dtype=WORD)
        # Column planes: row j of notbot_t[s] is column j of notbot[s].
        notbot_t = np.empty(shape, dtype=WORD)
        one_t = np.empty(shape, dtype=WORD)
        inner = np.empty((n_rules - n_leaves, q, q, row_words), dtype=WORD)

        def store(lo: int, hi: int, nb_bits: np.ndarray, one_bits: np.ndarray) -> None:
            notbot[lo:hi] = _pack(nb_bits, row_words)
            one[lo:hi] = _pack(one_bits, row_words)
            notbot_t[lo:hi] = _pack(nb_bits.swapaxes(1, 2), row_words)
            one_t[lo:hi] = _pack(one_bits.swapaxes(1, 2), row_words)

        slot, i, j, _, marked = _leaf_cells(prep).T
        nb_bits = np.zeros((n_leaves, q, q), dtype=bool)
        nb_bits[slot, i, j] = True
        one_bits = np.zeros((n_leaves, q, q), dtype=bool)
        one_bits[slot, i, j] = marked != 0
        store(0, n_leaves, nb_bits, one_bits)

        for lo, hi, lb, rc in _batches(levels, q * q * row_words):
            cube = np.bitwise_and(
                notbot[lb][:, :, None, :],
                notbot_t[rc][:, None, :, :],
                out=inner[lo - n_leaves : hi - n_leaves],
            )
            marks = one[lb][:, :, None, :] | one_t[rc][:, None, :, :]
            marks &= cube
            store(lo, hi, cube.any(axis=3), marks.any(axis=3))

        inner_names = names[n_leaves:]
        if row_words == 1:
            # Native storage: 1-D uint64 views; accessors int()-normalise.
            return (
                dict(zip(names, notbot.reshape(n_rules, q))),
                dict(zip(names, one.reshape(n_rules, q))),
                dict(zip(inner_names, inner.reshape(len(inner_names), q * q))),
            )
        # Multi-word rows have no scalar form — materialise bigint rows.
        return (
            dict(zip(names, _to_ints(notbot).tolist())),
            dict(zip(names, _to_ints(one).tolist())),
            dict(
                zip(
                    inner_names,
                    _to_ints(inner).reshape(len(inner_names), q * q).tolist(),
                )
            ),
        )

    def bool_multiply(self, a: List[int], b: List[int]) -> List[int]:
        q = len(a)
        if q < MIN_VECTOR_Q:
            return PYTHON_KERNEL.bool_multiply(a, b)
        row_words = (q + 63) // 64
        a_bits = _unpack_bits(_as_words(a, row_words), q)
        b_words = _as_words(b, row_words)
        # out[i] = OR of the rows of b selected by the set bits of a[i].
        selected = np.where(a_bits[:, :, None] != 0, b_words[None, :, :], 0)
        rows: List[int] = _to_ints(np.bitwise_or.reduce(selected, axis=1)).tolist()
        return rows

    def build_counts(self, prep: "Preprocessing") -> CountRows:
        q = prep.q
        levels = prep.levels
        n_rules = len(levels.names)
        # float64 holds every count exactly until the switch below, and
        # int() on the way out turns it into the Python int.
        counts = np.zeros((n_rules, q, q), dtype=np.float64)
        slot, i, j, size, _ = _leaf_cells(prep).T
        counts[slot, i, j] = size
        for lo, hi, lb, rc in _batches(levels, q * q):
            product = np.matmul(counts[lb], counts[rc])
            if counts.dtype != object and product.max() >= FLOAT_EXACT:
                # Exact bigints from here on; completed levels convert once.
                counts = counts.astype(np.int64).astype(object)
                product = np.matmul(counts[lb], counts[rc])
            counts[lo:hi] = product
        return dict(zip(levels.names, counts.reshape(n_rules, q * q)))

    def decode_words(
        self, buf: bytes, offset: int, count: int, row_words: int
    ) -> Sequence[SupportsInt]:
        if row_words == 1:
            # Zero-copy: a read-only view straight into the payload bytes.
            return np.frombuffer(buf, dtype=WORD, count=count, offset=offset)
        # Multi-word rows are Python bigints either way; share the codec.
        return PYTHON_KERNEL.decode_words(buf, offset, count, row_words)

    def encode_rows(
        self,
        planes: Mapping[object, Sequence[SupportsInt]],
        names: Sequence[object],
        row_words: int,
    ) -> bytes:
        if row_words != 1:
            return PYTHON_KERNEL.encode_rows(planes, names, row_words)
        # One gather into canonical order (ndarray views or int lists
        # alike), one tobytes.
        return np.array([planes[name] for name in names], dtype=WORD).tobytes()

    def decode_rows(
        self, buf: bytes, offset: int, count: int, width: int, row_words: int
    ) -> Sequence[Sequence[SupportsInt]]:
        if row_words != 1:
            return PYTHON_KERNEL.decode_rows(buf, offset, count, width, row_words)
        # Zero-copy: iterating the 2-D view yields one row view per name.
        words = np.frombuffer(buf, dtype=WORD, count=count * width, offset=offset)
        return words.reshape(count, width)

    def check_rows(self, buf: bytes, offset: int, count: int, q: int) -> None:
        row_words, spare = (q + 63) // 64, -q % 64
        if not spare:
            return  # q fills its words: no bit lies past it
        words = np.frombuffer(buf, dtype=WORD, count=count * row_words, offset=offset)
        top = words.reshape(count, row_words)[:, -1]
        if (top >> np.uint64(64 - spare)).any():
            raise ValueError("row bits past q")

    def encode_cells(
        self,
        values: Mapping[object, Sequence[SupportsInt]],
        names: Sequence[object],
        notbot: bytes,
        q: int,
        row_words: int,
    ) -> Optional[bytes]:
        rows = [values.get(name) for name in names]
        if row_words != 1 or not all(isinstance(row, np.ndarray) for row in rows):
            return PYTHON_KERNEL.encode_cells(values, names, notbot, q, row_words)
        cells = np.stack(rows).reshape(len(names), q * q)
        cells = cells[_cell_mask(notbot, 0, len(names), q)]
        # float64 counts are exact (each below 2**53); object counts are
        # Python ints of any size.
        if cells.dtype == object and cells.size and cells.max() >> 64:
            return None
        return cells.astype(WORD).tobytes()

    def decode_cells(
        self,
        buf: bytes,
        offset: int,
        n_cells: int,
        notbot_offset: int,
        count: int,
        q: int,
        row_words: int,
    ) -> CellRows:
        if row_words != 1:
            return PYTHON_KERNEL.decode_cells(
                buf, offset, n_cells, notbot_offset, count, q, row_words
            )
        notbot_words = (q + 63) // 64
        words = np.frombuffer(
            buf, dtype=WORD, count=count * q * notbot_words, offset=notbot_offset
        ).reshape(count, q, notbot_words)
        # Bits past q in a row are clear (check_rows), so count every bit.
        sizes = _popcount(words).reshape(count, -1).sum(axis=1, dtype=np.int64)
        offsets: List[int] = [0, *np.cumsum(sizes).tolist()]
        if offsets[-1] != n_cells:
            raise ValueError("cell section does not match the notbot cells")
        values = np.frombuffer(buf, dtype=WORD, count=n_cells, offset=offset)

        def decode_row(t: int, lo: int, hi: int) -> np.ndarray:
            out = np.zeros(q * q, dtype=WORD)
            out[_unpack_bits(words[t], q).reshape(q * q).astype(bool)] = values[lo:hi]
            return out

        return CellRows(decode_row, offsets)


def _popcount(words: np.ndarray) -> np.ndarray:
    """The number of set bits of every word."""
    if hasattr(np, "bitwise_count"):  # numpy >= 2.0
        return np.bitwise_count(words)
    return _BYTE_POPCOUNT[words.view(np.uint8)]


_BYTE_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def _cell_mask(buf: bytes, offset: int, count: int, q: int) -> np.ndarray:
    """The set cells of ``count`` names' notbot section at ``offset``, as
    a ``(count, q·q)`` boolean mask (cell ``i·q + j`` is bit ``j`` of row ``i``)."""
    row_words = (q + 63) // 64
    words = np.frombuffer(buf, dtype=WORD, count=count * q * row_words, offset=offset)
    bits = _unpack_bits(words.reshape(count * q, row_words), q)
    return bits.reshape(count, q * q).astype(bool)
