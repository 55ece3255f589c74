"""High-level facade: all four evaluation tasks behind one object.

:class:`CompressedSpannerEvaluator` bundles the paper's four tasks
(Sec. 1.3) for one (spanner, compressed document) pair, caching the padded
automata and the Lemma 6.5 preprocessing between calls:

=================  ==========================================  ============
task               method                                      paper
=================  ==========================================  ============
non-emptiness      :meth:`is_nonempty`                         Thm 5.1.1
model checking     :meth:`model_check`                         Thm 5.1.2
computation        :meth:`evaluate`                            Thm 7.1
enumeration        :meth:`enumerate` / :meth:`enumerate_raw`   Thm 8.10
=================  ==========================================  ============

Caching here is *per pair*: a new evaluator rebuilds everything.  When the
same document is queried by many spanners, the same spanner runs over a
corpus, or hot (spanner, document) pairs repeat, use
:class:`repro.engine.Engine` — it shares the padded SLPs, prepared
automata and preprocessing tables across queries through LRU caches.
"""

from __future__ import annotations

from typing import FrozenSet, Iterator, Optional

from repro.slp.grammar import SLP
from repro.spanner.automaton import SpannerNFA
from repro.spanner.markers import Pairs, to_span_tuple
from repro.spanner.spans import SpanTuple
from repro.spanner.transform import END_SYMBOL

from repro.core.computation import compute_marker_sets
from repro.core.enumeration import enumerate_marker_sets
from repro.core.matrices import Preprocessing
from repro.core.membership import slp_in_language
from repro.core.model_checking import splice_markers
from repro.core.prepared import PreparedDocument, PreparedSpanner
from repro.spanner.markers import from_span_tuple


class CompressedSpannerEvaluator:
    """Evaluate one regular spanner over one SLP-compressed document.

    Parameters
    ----------
    spanner:
        A :class:`~repro.spanner.automaton.SpannerNFA` (or DFA) over
        ``Σ ∪ P(Γ_X)``, e.g. from
        :func:`~repro.spanner.regex.compile_spanner`.
    slp:
        The compressed document.
    balance:
        Rebalance the SLP to depth ``O(log d)`` first (Theorem 4.3, as
        substituted in :mod:`repro.slp.balance`); this is what makes the
        enumeration delay logarithmic in the document length.  Default True.
    end_symbol:
        The padding sentinel (must not occur in the document or automaton).
    kernel:
        The bit-plane backend (:mod:`repro.core.kernels`):
        ``None``/``"auto"`` auto-detects, ``"python"``/``"numpy"`` select
        explicitly.  Backends are bit-identical; this is purely a
        performance choice.

    >>> from repro.slp.construct import balanced_slp
    >>> from repro.spanner.regex import compile_spanner
    >>> ev = CompressedSpannerEvaluator(
    ...     compile_spanner(r".*(?P<x>a+)b.*", alphabet="ab"),
    ...     balanced_slp("aabab"),
    ... )
    >>> ev.is_nonempty()
    True
    >>> sorted(str(t) for t in ev.evaluate())
    ['SpanTuple(x=[1,3⟩)', 'SpanTuple(x=[2,3⟩)', 'SpanTuple(x=[4,5⟩)']
    >>> ev.count()
    3
    """

    def __init__(
        self,
        spanner: SpannerNFA,
        slp: SLP,
        balance: bool = True,
        end_symbol: str = END_SYMBOL,
        kernel=None,
    ) -> None:
        from repro.core.kernels import resolve_kernel

        self.spanner = spanner
        self._doc = PreparedDocument(slp, balance, end_symbol)
        self._span = PreparedSpanner(spanner, end_symbol)
        self.slp = self._doc.balanced
        self.end_symbol = end_symbol
        self.kernel = resolve_kernel(kernel)
        self._prep_nfa: Optional[Preprocessing] = None
        self._prep_dfa: Optional[Preprocessing] = None
        self._counting = None  # Optional[CountingTables], built on demand

    # -- lazily-built shared structures (see repro.core.prepared) --------

    @property
    def padded_slp(self) -> SLP:
        return self._doc.padded

    @property
    def padded_nfa(self) -> SpannerNFA:
        return self._span.padded_nfa

    @property
    def padded_dfa(self) -> SpannerNFA:
        return self._span.padded_dfa

    def preprocessing(self, deterministic: bool = False) -> Preprocessing:
        """The Lemma 6.5 tables (cached; one NFA and one DFA variant)."""
        if deterministic:
            if self._prep_dfa is None:
                self._prep_dfa = Preprocessing(
                    self.padded_slp, self.padded_dfa, kernel=self.kernel
                )
            return self._prep_dfa
        if self._prep_nfa is None:
            self._prep_nfa = Preprocessing(
                self.padded_slp, self.padded_nfa, kernel=self.kernel
            )
        return self._prep_nfa

    # -- the four tasks -------------------------------------------------

    def is_nonempty(self) -> bool:
        """``⟦M⟧(D) ≠ ∅`` in time ``O(|M| + size(S) · q^3)`` (Thm 5.1.1)."""
        return slp_in_language(self.slp, self._span.sigma, kernel=self.kernel)

    def model_check(self, span_tuple: SpanTuple) -> bool:
        """``t ∈ ⟦M⟧(D)`` in time ``O((size(S)+|X| depth(S)) q^3)`` (Thm 5.1.2)."""
        if not span_tuple.is_valid_for(self.slp.length()):
            return False
        spliced = splice_markers(self.padded_slp, from_span_tuple(span_tuple))
        return slp_in_language(spliced, self.padded_nfa, kernel=self.kernel)

    def evaluate(self) -> FrozenSet[SpanTuple]:
        """The full relation ``⟦M⟧(D)`` (Thm 7.1); works for NFAs directly."""
        marker_sets = compute_marker_sets(self.preprocessing(deterministic=False))
        return frozenset(to_span_tuple(pairs) for pairs in marker_sets)

    def enumerate(self) -> Iterator[SpanTuple]:
        """Stream ``⟦M⟧(D)`` with ``O(depth(S) · |X|)`` delay (Thm 8.10).

        Uses the determinised automaton so the stream is duplicate-free;
        determinisation affects only preprocessing, not the delay.
        """
        for pairs in self.enumerate_raw():
            yield to_span_tuple(pairs)

    def enumerate_raw(self) -> Iterator[Pairs]:
        """Like :meth:`enumerate` but yielding raw marker sets (no decoding)."""
        return enumerate_marker_sets(self.preprocessing(deterministic=True))

    def _counting_tables(self):
        """The counting tables over the DFA preprocessing (built once)."""
        from repro.core.counting import CountingTables

        if self._counting is None:
            self._counting = CountingTables(self.preprocessing(deterministic=True))
        return self._counting

    def count(self) -> int:
        """``|⟦M⟧(D)|`` exactly, *without* enumerating (counting extension).

        Uses the weighted-composition tables of :mod:`repro.core.counting`
        — ``O(size(S) · q^2)`` arithmetic operations even when the relation
        has ``10^12`` tuples.  (``sum(1 for _ in enumerate_raw())`` gives
        the same number the slow way.)
        """
        return self._counting_tables().total()

    def ranked(self):
        """Ranked access (k-th result / slices) into ``⟦M⟧(D)``.

        Returns a :class:`repro.core.counting.RankedAccess` sharing the
        cached counting tables; see there for the canonical order
        guarantees.
        """
        from repro.core.counting import RankedAccess

        tables = self._counting_tables()
        return RankedAccess(tables.prep, tables)

    def __repr__(self) -> str:
        return (
            f"CompressedSpannerEvaluator(doc_length={self.slp.length()}, "
            f"slp_size={self.slp.size}, spanner_states={self.spanner.num_states})"
        )
