"""Incremental spanner aggregates under document updates.

The paper's conclusion asks "whether spanner evaluation on compressed
documents can handle updates of the document".  This module answers the
aggregate side of that question:

:class:`IncrementalSpannerIndex` maintains, for one spanner ``M``, the
quantities ``⟦M⟧(D) ≠ ∅`` and ``|⟦M⟧(D)|`` while ``D`` is edited through
the AVL-grammar editor (:mod:`repro.slp.edits`).  The trick is that every
AVL node is immutable and hash-consed, so the per-node ``q × q`` *count
matrix*

    ``C_v[i, j] = |M_v[i, j]|``   (the number of partial marker sets, Def. 6.2)

is a pure function of the node and can be memoised across edits: the
Lemma 6.9/8.7 disjointness (for a DFA) turns composition into an ordinary
integer matrix product ``C_v = C_left · C_right``.  An edit creates only
``O(log d)`` fresh nodes (see :mod:`repro.slp.edits`), so re-answering

* :meth:`count`        — exact ``|⟦M⟧(D)|``,
* :meth:`is_nonempty`  — ``⟦M⟧(D) ≠ ∅``,

after an update costs ``O(q³ · log d)`` arithmetic operations instead of a
full ``O(size(S) · q³)`` re-evaluation.  Full enumeration/ranked access are
available through :meth:`snapshot`, which exports the current document as
an ordinary SLP.

What remains open (as in the paper): maintaining the *enumeration*
structures themselves incrementally.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.errors import EvaluationError
from repro.slp.avl import AvlBuilder, AvlNode, avl_from_slp, avl_to_slp
from repro.slp.grammar import SLP, Symbol
from repro.spanner.automaton import SpannerNFA
from repro.spanner.marked_words import is_marker_item
from repro.spanner.transform import END_SYMBOL, pad_spanner

CountMatrix = List[List[int]]


def _multiply_counts(a: CountMatrix, b: CountMatrix, q: int) -> CountMatrix:
    """Integer matrix product, skipping zero entries (matrices are sparse)."""
    out = [[0] * q for _ in range(q)]
    for i in range(q):
        row_a = a[i]
        row_out = out[i]
        for k in range(q):
            weight = row_a[k]
            if weight:
                row_b = b[k]
                for j in range(q):
                    if row_b[j]:
                        row_out[j] += weight * row_b[j]
    return out


class IncrementalSpannerIndex:
    """Maintain ``|⟦M⟧(D)|`` and non-emptiness under document edits.

    Parameters
    ----------
    spanner:
        The regular spanner; determinised internally (exact counting needs
        a DFA, Lemma 6.9/8.7).
    slp:
        The initial document.

    >>> from repro.slp.construct import balanced_slp
    >>> from repro.spanner.regex import compile_spanner
    >>> index = IncrementalSpannerIndex(
    ...     compile_spanner(r".*(?P<x>ab).*", alphabet="ab"),
    ...     balanced_slp("aaaa"),
    ... )
    >>> index.count()
    0
    >>> index.insert(2, "b")      # document becomes aabaa
    >>> index.count()
    1
    >>> index.replace(0, 4, "abab")
    >>> index.count()
    2
    """

    def __init__(
        self,
        spanner: SpannerNFA,
        slp: SLP,
        end_symbol: str = END_SYMBOL,
    ) -> None:
        base = spanner.eliminate_epsilon()
        if not base.is_deterministic:
            base = base.determinize().trim()
        self._dfa = pad_spanner(base, end_symbol)
        self._end_symbol = end_symbol
        self._q = self._dfa.num_states
        self._leaf_matrices: Dict[Symbol, CountMatrix] = {}
        self._memo: Dict[int, CountMatrix] = {}
        self._builder = AvlBuilder()
        self._root: AvlNode = avl_from_slp(slp, self._builder)
        self._compute_incoming()
        self._end_matrix = self._leaf_matrix(end_symbol)

    # -- automaton-side tables (static) -----------------------------------

    def _compute_incoming(self) -> None:
        """P_i = {(ℓ, Y)}: marker-set arcs, needed for leaf count matrices."""
        incoming: Dict[int, List] = {}
        for source, symbol, target in self._dfa.arcs():
            if is_marker_item(symbol):
                incoming.setdefault(target, []).append((source, symbol))
        self._incoming = incoming

    def _build_leaf_matrix(self, symbol: Symbol) -> CountMatrix:
        """``C_Tx[i, j] = |M_Tx[i, j]|`` per the Lemma 6.5 leaf construction."""
        q = self._q
        matrix = [[0] * q for _ in range(q)]
        for source, arc_symbol, target in self._dfa.arcs():
            if arc_symbol != symbol:
                continue
            matrix[source][target] += 1  # the ∅ marker set
            for origin, _marker_set in self._incoming.get(source, ()):
                matrix[origin][target] += 1
        return matrix

    def _leaf_matrix(self, symbol: Symbol) -> CountMatrix:
        matrix = self._leaf_matrices.get(symbol)
        if matrix is None:
            matrix = self._build_leaf_matrix(symbol)
            self._leaf_matrices[symbol] = matrix
        return matrix

    # -- per-node memoised composition -------------------------------------

    def _node_matrix(self, node: AvlNode) -> CountMatrix:
        memo = self._memo
        cached = memo.get(node.uid)
        if cached is not None:
            return cached
        # iterative post-order to keep deep chains off the Python stack
        stack = [node]
        while stack:
            current = stack[-1]
            if current.uid in memo:
                stack.pop()
                continue
            if current.is_leaf:
                memo[current.uid] = self._leaf_matrix(current.symbol)
                stack.pop()
                continue
            left_done = current.left.uid in memo
            right_done = current.right.uid in memo
            if left_done and right_done:
                memo[current.uid] = _multiply_counts(
                    memo[current.left.uid], memo[current.right.uid], self._q
                )
                stack.pop()
            else:
                if not left_done:
                    stack.append(current.left)
                if not right_done:
                    stack.append(current.right)
        return memo[node.uid]

    # -- queries ------------------------------------------------------------

    def count(self) -> int:
        """Exact ``|⟦M⟧(D)|`` for the current document."""
        doc_matrix = self._node_matrix(self._root)
        padded = _multiply_counts(doc_matrix, self._end_matrix, self._q)
        start = self._dfa.start
        return sum(padded[start][j] for j in self._dfa.accepting)

    def is_nonempty(self) -> bool:
        """``⟦M⟧(D) ≠ ∅`` for the current document."""
        return self.count() > 0

    @property
    def length(self) -> int:
        """Current document length."""
        return self._root.length

    @property
    def cached_nodes(self) -> int:
        """Number of memoised count matrices (monitoring/testing)."""
        return len(self._memo)

    def snapshot(self) -> SLP:
        """The current document as a balanced SLP (for full evaluation)."""
        return avl_to_slp(self._root)

    # -- edits (mirroring repro.slp.edits.SlpEditor) -------------------------

    def _word_node(self, word: Sequence[Symbol]) -> AvlNode:
        if len(word) == 0:
            raise EvaluationError("empty edit word; use delete instead")
        if self._end_symbol in word:
            raise EvaluationError(
                f"the end sentinel {self._end_symbol!r} cannot appear in the document"
            )
        return self._builder.from_symbols(word)

    def _check_range(self, start: int, stop: int) -> None:
        if not 0 <= start <= stop <= self._root.length:
            raise IndexError(
                f"range [{start}:{stop}] invalid for document of length {self._root.length}"
            )

    def append(self, word: Sequence[Symbol]) -> None:
        self._root = self._builder.join(self._root, self._word_node(word))

    def prepend(self, word: Sequence[Symbol]) -> None:
        self._root = self._builder.join(self._word_node(word), self._root)

    def insert(self, index: int, word: Sequence[Symbol]) -> None:
        self._check_range(index, index)
        node = self._word_node(word)
        if index == 0:
            self._root = self._builder.join(node, self._root)
        elif index == self._root.length:
            self._root = self._builder.join(self._root, node)
        else:
            left = self._builder.extract(self._root, 0, index)
            right = self._builder.extract(self._root, index, self._root.length)
            self._root = self._builder.join(self._builder.join(left, node), right)

    def delete(self, start: int, stop: int) -> None:
        self._check_range(start, stop)
        if start == stop:
            return
        if start == 0 and stop == self._root.length:
            raise EvaluationError("deleting the whole document would leave it empty")
        pieces = []
        if start > 0:
            pieces.append(self._builder.extract(self._root, 0, start))
        if stop < self._root.length:
            pieces.append(self._builder.extract(self._root, stop, self._root.length))
        self._root = self._builder.concat_all(pieces)

    def replace(self, start: int, stop: int, word: Sequence[Symbol]) -> None:
        self._check_range(start, stop)
        node = self._word_node(word)
        pieces = []
        if start > 0:
            pieces.append(self._builder.extract(self._root, 0, start))
        pieces.append(node)
        if stop < self._root.length:
            pieces.append(self._builder.extract(self._root, stop, self._root.length))
        self._root = self._builder.concat_all(pieces)

    def __repr__(self) -> str:
        return (
            f"IncrementalSpannerIndex(doc_length={self.length}, "
            f"states={self._q}, cached_nodes={self.cached_nodes})"
        )
