"""Computing the full solution set ``⟦M⟧(D)`` (Theorem 7.1).

Implements the recursive procedure ``CompM`` of the paper: for every needed
triple ``(A, i, j)`` the set ``M_A[i, j]`` of partial marker sets is

* the precomputed leaf table for leaf nonterminals,
* ``⋃_{k ∈ I_A[i,j]} M_B[i,k] ⊗_{|D(B)|} M_C[k,j]`` for rules ``A -> B C``
  (Lemma 6.8, with the combination of Definition 6.7).

**What is tabled.**  Only the triples with ``R_A[i,j] = 1`` get a table.
By Definition 6.4 an ``R_A[i,j] = ℮`` entry is exactly ``{∅}``, the
identity of ``⊗``, so the descent stops there: a ``℮`` child contributes
its sibling's sets unchanged (or ``∅`` itself when both children are
``℮``), and a ``℮`` root contributes the empty marker set.  This is the
same pruning that enumeration (``Ī_A``) and ranked access use.  An
``R = 1`` entry may still contain ``∅`` besides its nonempty sets (a
schemaless spanner can match with and without markers); the union over
``k`` keeps it.

**The bound.**  Every tabled entry lies on the derivation-tree path from
the root to a marker of some result, so ``O(|X| · depth(S) · q² ·
size(⟦M⟧(D)))`` triples are tabled, however much marker-free filler the
document holds, and every intermediate ``M_A[i,j]`` is no larger than
the final result (property (†) of the paper).  For a fixed ``k``
distinct (left, right) pairs give distinct sets of ``M_A[i,j]``, so a
tabled triple combines at most ``q · size(⟦M⟧(D))`` pairs; with at most
``size(S) · q²`` triples the total stays within the paper's
``O(size(S) · q^4 · size(⟦M⟧(D)))``.

Every marker set is encoded as a position-sorted tuple (the canonical
order ``⪯`` of the proof of Theorem 7.1), so ``Λ_B ⊗ Λ_C`` is a plain
tuple concatenation, and duplicate elimination across the ``k``-union is
a set union.  A right child's sets are shifted once per ``k``, not once
per (left, right) pair.

The recursion is iterative, so arbitrarily deep SLPs are safe.  Phase 1
walks the needed triples top-down, reading each triple's ``I`` entry and
the ``one`` rows it needs once through the accessors (so any kernel's
plane layout, and a store-restored lazy ``I``, work), and records them in
post-order.  Phase 2 evaluates that order bottom-up.
"""

from __future__ import annotations

from typing import Collection, Dict, FrozenSet, List, Optional, Set, Tuple, Union

from repro.core.kernels import Kernel
from repro.obs.trace import get_tracer
from repro.slp.grammar import SLP
from repro.spanner.automaton import SpannerNFA
from repro.spanner.markers import EMPTY, Pairs, shift, to_span_tuple
from repro.spanner.spans import SpanTuple
from repro.spanner.transform import END_SYMBOL, pad_slp, pad_spanner

from repro.core.matrices import Preprocessing

Key = Tuple[object, int, int]
#: One ``k`` of ``I_A[i,j]``: the (left, right) child triples to combine,
#: ``None`` standing for an untabled ``℮`` child (the identity ``{∅}``).
Step = Tuple[Optional[Key], Optional[Key]]

_IDENTITY: Tuple[Pairs, ...] = (EMPTY,)


def compute_marker_sets(prep: Preprocessing) -> FrozenSet[Pairs]:
    """All marker sets of ``⟦M⟧(D)`` from a padded preprocessing."""
    with get_tracer().span(
        "core.computation.compute", q=prep.q, rules=len(prep.order)
    ) as span:
        result, triples = _marker_sets(prep)
        span.tag(triples=triples, results=len(result))
    return result


def _marker_sets(prep: Preprocessing) -> Tuple[FrozenSet[Pairs], int]:
    """``(⟦M⟧(D) as marker sets, number of tabled triples)``."""
    slp = prep.slp
    start, state = slp.start, prep.automaton.start
    top_one = prep.one_row(start, state)
    result: Set[Pairs] = set()
    roots: List[Key] = []
    for j in prep.final_states:
        if (top_one >> j) & 1:
            roots.append((start, state, j))
        else:
            result.add(EMPTY)  # R = ℮: M_S[start, j] = {∅}

    # Phase 1: the needed R = 1 triples top-down, recorded in post-order.
    steps: Dict[Key, List[Step]] = {}
    post: List[Key] = []
    seen: Set[Key] = set()
    stack: List[Tuple[Key, bool]] = [(key, False) for key in roots]
    while stack:
        key, done = stack.pop()
        if done:
            post.append(key)
            continue
        if key in seen:
            continue
        seen.add(key)
        stack.append((key, True))
        name, i, j = key
        if slp.is_leaf(name):
            continue
        left, right = slp.children(name)
        left_one = prep.one_row(left, i)
        plan: List[Step] = []
        for k in prep.intermediate_states(name, i, j):
            left_key = (left, i, k) if (left_one >> k) & 1 else None
            right_key = (right, k, j) if (prep.one_row(right, k) >> j) & 1 else None
            plan.append((left_key, right_key))
            for child in (left_key, right_key):
                if child is not None and child not in seen:
                    stack.append((child, False))
        steps[key] = plan

    # Phase 2: evaluate bottom-up; every child precedes its parents in post.
    tables: Dict[Key, Collection[Pairs]] = {}
    for key in post:
        name, i, j = key
        if slp.is_leaf(name):
            tables[key] = prep.leaf_entry(name, i, j)
            continue
        offset = slp.length(slp.children(name)[0])
        merged: Set[Pairs] = set()
        for left_key, right_key in steps[key]:
            left_sets = _IDENTITY if left_key is None else tables[left_key]
            if right_key is None:
                merged.update(left_sets)
                continue
            right_sets = [shift(lam, offset) for lam in tables[right_key]]
            if left_key is None:
                merged.update(right_sets)
            else:
                # ⊗_offset: concatenation keeps the canonical order
                merged.update(lam_b + lam_c for lam_b in left_sets for lam_c in right_sets)
        tables[key] = tuple(merged)

    for key in roots:
        result.update(tables[key])
    return frozenset(result), len(post)


def compute(
    slp: SLP,
    automaton: SpannerNFA,
    end_symbol: str = END_SYMBOL,
    kernel: Union[None, str, Kernel] = None,
) -> FrozenSet[SpanTuple]:
    """The full relation ``⟦M⟧(D)`` as a set of span-tuples (Theorem 7.1).

    Works for NFAs as well as DFAs (duplicates across different
    intermediate states are eliminated by the canonical-order union).
    ``kernel`` picks the Lemma 6.5 backend, as for ``count_results``.

    >>> from repro.slp.construct import balanced_slp
    >>> from repro.spanner.regex import compile_spanner
    >>> slp = balanced_slp("abcca")
    >>> spanner = compile_spanner(r"[bc]*(?P<x>a).*(?P<y>c+).*", alphabet="abc")
    >>> sorted(str(t) for t in compute(slp, spanner))
    ['SpanTuple(x=[1,2⟩, y=[3,4⟩)', 'SpanTuple(x=[1,2⟩, y=[3,5⟩)', 'SpanTuple(x=[1,2⟩, y=[4,5⟩)']
    """
    padded_slp = pad_slp(slp, end_symbol)
    padded_nfa = pad_spanner(automaton.eliminate_epsilon(), end_symbol)
    prep = Preprocessing(padded_slp, padded_nfa, kernel=kernel)
    return frozenset(to_span_tuple(pairs) for pairs in compute_marker_sets(prep))
