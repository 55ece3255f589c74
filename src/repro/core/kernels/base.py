"""The kernel interface and the dependency-free :class:`PythonKernel`.

A *kernel* owns the word-level hot loops of the evaluation pipeline — the
pieces whose cost is ``O(size(S) · q²)`` words or worse — behind a narrow
interface, so the surrounding machinery (engine, store, parallel fleet)
never cares how a bit-plane is laid out:

* :meth:`Kernel.build_planes` — the Lemma 6.5 recursive matrix build
  (the dominant cold-start cost);
* :meth:`Kernel.bool_multiply` — the Lemma 4.5 boolean matrix product
  behind compressed membership;
* :meth:`Kernel.build_counts` — the counting-table recurrence
  (Lemmas 6.9/8.7), producing per-name flat ``i*q+j`` count vectors;
* :meth:`Kernel.encode_rows` / :meth:`Kernel.decode_rows` (whole
  planes) and :meth:`Kernel.encode_cells` / :meth:`Kernel.decode_cells`
  (the ``notbot``-set cells of ``I`` and of the counts) — the codec of
  the ``.prep`` store's fixed-width sections, built on
  :meth:`Kernel.decode_words`, so the store itself stays numpy-free.

**Layout contract.**  All kernels speak the same logical layout: per
nonterminal ``A`` the matrix ``R_A`` is ``q`` *row bitmasks* (bit ``j`` of
row ``i`` set iff the property holds at ``(i, j)``) and ``I_A`` is a flat
row-major vector of ``q·q`` intermediate-state bitmasks.  A row/mask value
may be a Python ``int`` or any int-convertible scalar (``int(value)``
must yield the identical nonnegative integer); containers must support
``len``, indexing and slicing.  :meth:`~repro.core.matrices.Preprocessing`
accessors normalise every value with ``int()`` on the way out, so two
kernels that agree on the integers are observationally identical —
the differential harness and the cross-kernel property tests hold them
bit-identical.  Count vectors follow the same rule: kernel-native
containers whose values ``int()`` turns into the exact counts, which
:class:`~repro.core.counting.CountingTables` hands out as Python ints.

**Levels.**  Both builds are bottom-up over the grammar.  The
:class:`RuleLevels` of a preprocessing group its rules by height: rules
of one height never derive each other, so a kernel may compute a whole
level at once.  The reference kernel ignores them and walks
``prep.order`` rule by rule.

:class:`PythonKernel` is the reference implementation: plain Python
bigint rows, no third-party dependency, importable everywhere.  The
vectorised backend lives in :mod:`repro.core.kernels.numpy_kernel` and is
only imported on demand (importing :mod:`repro` must never require
numpy).
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from itertools import accumulate, chain
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    SupportsInt,
    Tuple,
)

from repro.core.boolmat import bits_list, multiply
from repro.spanner.markers import Pairs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.matrices import Preprocessing
    from repro.slp.grammar import SLP

#: The on-disk word sections are little-endian; the fast array('Q') codec
#: is only valid on little-endian hosts (mirrors the store's own guard).
_LITTLE_ENDIAN = sys.byteorder == "little"

#: One plane container: rows of int-convertible scalars (Python bigints
#: for the reference kernel, uint64 ndarrays for numpy).  Mapping (not
#: Dict) so each backend can return its native dict/array-dict type.
PlaneRows = Sequence[SupportsInt]

Planes = Tuple[
    Mapping[object, PlaneRows],
    Mapping[object, PlaneRows],
    Mapping[object, PlaneRows],
]

#: name -> flat row-major ``q·q`` count vector of int-convertible scalars.
CountRows = Mapping[object, Sequence[SupportsInt]]

#: leaf nonterminal -> {(i, j) -> sorted tuple of partial marker sets}.
LeafTables = Dict[object, Dict[Tuple[int, int], Tuple[Pairs, ...]]]


class RuleLevels:
    """The reachable rules of a grammar grouped by height.

    A leaf has height 0 and ``A -> B C`` has height one more than the
    higher of ``B`` and ``C``, so every rule of height ``h`` depends only
    on rules below ``h``.  :attr:`names` lists the rules level by level,
    and within a level in the order of the ``order`` argument; the index
    of a rule in :attr:`names` is its *slot*.  Level ``h`` is the slot
    range ``bounds[h]:bounds[h + 1]``, so level 0 (the leaves) is
    ``0:bounds[1]``.  The children of the inner rule in slot ``s`` are in
    slots ``left[s - bounds[1]]`` and ``right[s - bounds[1]]``.

    >>> from repro.slp.families import power_slp
    >>> slp = power_slp("ab", 2)
    >>> levels = RuleLevels(slp, slp.topological_order())
    >>> len(levels), levels.bounds
    (4, [0, 2, 3, 4, 5])
    >>> levels.names[2:], levels.left, levels.right
    (['A0', 'P0', 'P1'], [1, 2, 3], [0, 2, 3])
    """

    __slots__ = ("names", "bounds", "left", "right")

    def __init__(self, slp: "SLP", order: List[object]) -> None:
        depth = slp.depth  # the paper's depth: a leaf has depth 1
        #: every rule of ``order``, level by level (stable within a level)
        self.names: List[object] = sorted(order, key=depth)
        heights = [depth(name) - 1 for name in self.names]
        #: level h occupies slots bounds[h]:bounds[h + 1]
        self.bounds: List[int] = [
            bisect_left(heights, h) for h in range(heights[-1] + 1)
        ] + [len(heights)]
        slot = {name: s for s, name in enumerate(self.names)}
        rules = slp.inner_rules
        inner = self.names[self.bounds[1] :]
        #: child slots of the inner rules, indexed by ``slot - bounds[1]``
        self.left: List[int] = [slot[rules[name][0]] for name in inner]
        self.right: List[int] = [slot[rules[name][1]] for name in inner]

    def __len__(self) -> int:
        """The number of levels (the height of the tallest rule, plus one)."""
        return len(self.bounds) - 1


def leaf_plane_rows(
    leaf_tables: LeafTables, name: object, q: int
) -> Tuple[List[int], List[int]]:
    """The (notbot, one) row bitmasks of one leaf nonterminal, as ints."""
    nb_rows = [0] * q
    one_rows = [0] * q
    for (i, j), entries in leaf_tables[name].items():
        if entries:
            nb_rows[i] |= 1 << j
            if entries != ((),):
                one_rows[i] |= 1 << j
    return nb_rows, one_rows


class Kernel:
    """Abstract bit-plane kernel backend (see the module docstring)."""

    #: Registry name; also what ``repro stats --profile`` reports.
    name: str = "abstract"

    def build_planes(self, prep: "Preprocessing") -> Planes:
        """The Lemma 6.5 tables ``(notbot, one, I)`` for every name in ``prep.order``.

        Called while ``prep`` is being constructed: its ``slp``, ``q``,
        ``order``, ``levels`` and ``leaf_tables`` are set, its planes are not.
        """
        raise NotImplementedError

    def bool_multiply(self, a: List[int], b: List[int]) -> List[int]:
        """Boolean matrix product of two row-bitmask matrices (Lemma 4.5)."""
        raise NotImplementedError

    def build_counts(self, prep: "Preprocessing") -> CountRows:
        """Per-name flat ``i*q+j`` vectors of the exact counts ``|M_A[i,j]|``.

        Containers are kernel-native, like the planes: ``int(value)`` must
        yield the exact count, however large.
        """
        raise NotImplementedError

    def decode_words(
        self, buf: bytes, offset: int, count: int, row_words: int
    ) -> Sequence[SupportsInt]:
        """``count`` little-endian ``row_words``-word fields of ``buf``.

        The ``.prep`` restore codec: the result is a length-``count``
        sequence of int-convertible row values whose slices the store
        attaches as plane containers.  Callers bounds-check the section
        before calling.
        """
        raise NotImplementedError

    def encode_rows(
        self,
        planes: Mapping[object, Sequence[SupportsInt]],
        names: Sequence[object],
        row_words: int,
    ) -> bytes:
        """The containers ``planes[name]`` of ``names``, in order, as one
        ``.prep`` word section: consecutive little-endian ``row_words``-word
        fields.  Accepts any kernel's containers."""
        raise NotImplementedError

    def decode_rows(
        self, buf: bytes, offset: int, count: int, width: int, row_words: int
    ) -> Sequence[Sequence[SupportsInt]]:
        """The inverse of :meth:`encode_rows`: ``count`` containers of
        ``width`` row values each, read from one word section at
        ``offset`` (callers bounds-check it); container ``t`` belongs to
        the section's ``t``-th name."""
        raise NotImplementedError

    def check_rows(self, buf: bytes, offset: int, count: int, q: int) -> None:
        """Raise ``ValueError`` unless none of the ``count`` q-bit rows of
        the word section at ``offset`` sets a bit at or past ``q``.

        The store runs it over every mask section before it attaches one,
        so a row can never name a state that does not exist (callers
        bounds-check the section).
        """
        raise NotImplementedError

    def encode_cells(
        self,
        values: Mapping[object, Sequence[SupportsInt]],
        names: Sequence[object],
        notbot: bytes,
        q: int,
        row_words: int,
    ) -> Optional[bytes]:
        """The ``notbot``-set cells of flat row-major ``q·q`` vectors, as
        one ``.prep`` section of ``row_words``-word fields.

        ``notbot`` is a notbot section (:meth:`encode_rows`) whose first
        ``len(names)`` names are ``names``; the cells are taken name by
        name, each name's row-major.  A name missing from ``values`` is 0
        everywhere.  ``None`` when a value needs more than
        ``64 · row_words`` bits.
        """
        raise NotImplementedError

    def decode_cells(
        self,
        buf: bytes,
        offset: int,
        n_cells: int,
        notbot_offset: int,
        count: int,
        q: int,
        row_words: int,
    ) -> "CellRows":
        """The inverse of :meth:`encode_cells`: the ``count`` flat ``q·q``
        vectors of the first ``count`` names of the notbot section at
        ``notbot_offset``, the ``n_cells`` fields at ``offset`` scattered
        into their set cells and 0 elsewhere.  The notbot rows must set no
        bit past ``q`` (:meth:`check_rows`).  Raises ``ValueError`` when
        those names do not have exactly ``n_cells`` set cells; each vector
        is decoded only when it is indexed."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class PythonKernel(Kernel):
    """Reference backend: Python bigint rows, zero dependencies."""

    name = "python"

    def build_planes(self, prep: "Preprocessing") -> Planes:
        slp, q, leaf_tables = prep.slp, prep.q, prep.leaf_tables
        notbot: Dict[object, List[int]] = {}
        one: Dict[object, List[int]] = {}
        I: Dict[object, List[int]] = {}

        # Transposed (notbot, one) planes per right child, built once per
        # nonterminal that actually occurs as one — transient build state,
        # freed with this frame.
        cols_cache: Dict[object, Tuple[List[int], List[int]]] = {}

        def columns(child: object) -> Tuple[List[int], List[int]]:
            cached = cols_cache.get(child)
            if cached is None:
                nb_rows, one_rows = notbot[child], one[child]
                nb_cols = [0] * q
                one_cols = [0] * q
                for i in range(q):
                    bit = 1 << i
                    for j in bits_list(nb_rows[i]):
                        nb_cols[j] |= bit
                    for j in bits_list(one_rows[i]):
                        one_cols[j] |= bit
                cached = (nb_cols, one_cols)
                cols_cache[child] = cached
            return cached

        for name in prep.order:
            if slp.is_leaf(name):
                notbot[name], one[name] = leaf_plane_rows(leaf_tables, name, q)
                continue
            left, right = slp.children(name)
            left_nb, left_one = notbot[left], one[left]
            right_nbc, right_onec = columns(right)
            nb_rows = [0] * q
            one_rows = [0] * q
            masks = [0] * (q * q)
            for i in range(q):
                nb_i = left_nb[i]
                if not nb_i:
                    continue
                one_i = left_one[i]
                base = i * q
                row_nb = row_one = 0
                for j in range(q):
                    mask = nb_i & right_nbc[j]
                    if not mask:
                        continue
                    masks[base + j] = mask
                    bit = 1 << j
                    row_nb |= bit
                    if (one_i & mask) or (right_onec[j] & mask):
                        row_one |= bit
                nb_rows[i] = row_nb
                one_rows[i] = row_one
            I[name] = masks
            notbot[name] = nb_rows
            one[name] = one_rows
        return notbot, one, I

    def bool_multiply(self, a: List[int], b: List[int]) -> List[int]:
        return multiply(a, b)

    def build_counts(self, prep: "Preprocessing") -> Dict[object, List[int]]:
        q = prep.q
        slp = prep.slp
        flat: Dict[object, List[int]] = {}
        for name in prep.order:
            row = [0] * (q * q)
            if slp.is_leaf(name):
                for (i, j), entries in prep.leaf_tables[name].items():
                    row[i * q + j] = len(entries)
                flat[name] = row
                continue
            left, right = slp.children(name)
            left_flat, right_flat = flat[left], flat[right]
            for i in range(q):
                nb = prep.notbot_row(name, i)
                if not nb:
                    continue
                base = i * q
                for j in bits_list(nb):
                    total = 0
                    for k in bits_list(prep.intermediate_mask(name, i, j)):
                        total += left_flat[base + k] * right_flat[k * q + j]
                    row[base + j] = total
            flat[name] = row
        return flat

    def decode_words(
        self, buf: bytes, offset: int, count: int, row_words: int
    ) -> List[int]:
        end = offset + count * row_words * 8
        if row_words == 1 and _LITTLE_ENDIAN:
            values = array("Q")
            values.frombytes(memoryview(buf)[offset:end])
            return values.tolist()  # one C call
        width = row_words * 8
        from_bytes = int.from_bytes
        return [
            from_bytes(buf[k : k + width], "little")
            for k in range(offset, end, width)
        ]

    def encode_rows(
        self,
        planes: Mapping[object, Sequence[SupportsInt]],
        names: Sequence[object],
        row_words: int,
    ) -> bytes:
        values = chain.from_iterable(planes[name] for name in names)
        if row_words == 1:
            return _u64_bytes(map(int, values))
        width = row_words * 8
        return b"".join(int(value).to_bytes(width, "little") for value in values)

    def decode_rows(
        self, buf: bytes, offset: int, count: int, width: int, row_words: int
    ) -> List[List[int]]:
        values = self.decode_words(buf, offset, count * width, row_words)
        return [values[k : k + width] for k in range(0, count * width, width)]

    def check_rows(self, buf: bytes, offset: int, count: int, q: int) -> None:
        rows = self.decode_words(buf, offset, count, (q + 63) // 64)
        if rows and max(rows) >> q:
            raise ValueError("row bits past q")

    def encode_cells(
        self,
        values: Mapping[object, Sequence[SupportsInt]],
        names: Sequence[object],
        notbot: bytes,
        q: int,
        row_words: int,
    ) -> Optional[bytes]:
        rows = self.decode_words(notbot, 0, len(names) * q, (q + 63) // 64)
        cells: List[int] = []
        for k, name in enumerate(names):
            flat = values.get(name)
            for i in range(q):
                bits = rows[k * q + i]
                if bits:
                    base = i * q
                    cells.extend(
                        0 if flat is None else int(flat[base + j])
                        for j in bits_list(bits)
                    )
        if cells and max(cells) >> (64 * row_words):
            return None
        if row_words == 1:
            return _u64_bytes(cells)
        width = row_words * 8
        return b"".join(value.to_bytes(width, "little") for value in cells)

    def decode_cells(
        self,
        buf: bytes,
        offset: int,
        n_cells: int,
        notbot_offset: int,
        count: int,
        q: int,
        row_words: int,
    ) -> "CellRows":
        rows = self.decode_words(buf, notbot_offset, count * q, (q + 63) // 64)
        sizes = (
            sum(int(bits).bit_count() for bits in rows[t * q : (t + 1) * q])
            for t in range(count)
        )
        offsets = [0, *accumulate(sizes)]
        if offsets[-1] != n_cells:
            raise ValueError("cell section does not match the notbot cells")
        width = row_words * 8

        def decode_row(t: int, lo: int, hi: int) -> List[int]:
            values = self.decode_words(buf, offset + lo * width, hi - lo, row_words)
            flat = [0] * (q * q)
            k = 0
            for i in range(q):
                bits = rows[t * q + i]
                if bits:
                    base = i * q
                    for j in bits_list(bits):
                        flat[base + j] = values[k]
                        k += 1
            return flat

        return CellRows(decode_row, offsets)


class CellRows:
    """The flat ``q·q`` vectors of a decoded cell section, by position.

    Holds where each vector's cells start (``offsets``, one more than
    there are vectors) and decodes vector ``t`` — the cells
    ``offsets[t]:offsets[t + 1]`` scattered into a zero vector — only when
    it is indexed, so a caller that reads a few vectors pays for those
    alone.
    """

    __slots__ = ("_decode_row", "_offsets")

    def __init__(
        self,
        decode_row: Callable[[int, int, int], Sequence[SupportsInt]],
        offsets: List[int],
    ) -> None:
        self._decode_row = decode_row
        self._offsets = offsets

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def __getitem__(self, t: int) -> Sequence[SupportsInt]:
        if not 0 <= t < len(self._offsets) - 1:
            raise IndexError(t)
        return self._decode_row(t, self._offsets[t], self._offsets[t + 1])


def _u64_bytes(values: Iterable[int]) -> bytes:
    """``values`` (each below 2**64) as consecutive little-endian u64 words."""
    if _LITTLE_ENDIAN:
        return array("Q", values).tobytes()  # one C call
    return b"".join(value.to_bytes(8, "little") for value in values)


#: The shared reference instance (kernels are stateless).
PYTHON_KERNEL = PythonKernel()
