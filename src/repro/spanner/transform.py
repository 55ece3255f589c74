"""Automaton/document transformations for evaluation (Sec. 6.1).

The paper's evaluation machinery requires spanners to be *non
tail-spanning*: no accepted word ends with a marker-set symbol.  This is
harmless: evaluating ``M`` on ``D`` equals evaluating the padded spanner
``M'`` (with ``L(M') = {w# : w ∈ L(M)}``) on the padded document ``D#``.
This module provides exactly that padding for automata and SLPs, plus the
marker-discipline validator used to sanity-check user-built automata.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.errors import AutomatonError, GrammarError
from repro.slp.grammar import SLP
from repro.spanner.automaton import EPSILON, SpannerDFA, SpannerNFA
from repro.spanner.markers import CLOSE, OPEN, Marker
from repro.spanner.marked_words import is_marker_item

#: Default end-of-document sentinel; must not occur in the document alphabet.
END_SYMBOL = "\x03"  # ASCII "end of text"


def pad_spanner(automaton: SpannerNFA, end_symbol: str = END_SYMBOL) -> SpannerNFA:
    """The spanner ``M'`` with ``L(M') = {w · end_symbol : w ∈ L(M)}``.

    Adds one fresh state ``f⁺`` and arcs ``f --end_symbol--> f⁺`` for every
    accepting ``f``; the only accepting state of the result is ``f⁺``.
    Preserves determinism (a :class:`SpannerDFA` stays a DFA).
    """
    if end_symbol in automaton.sigma:
        raise AutomatonError(f"end symbol {end_symbol!r} already used by the automaton")
    fresh = automaton.num_states
    transitions = automaton.transition_table()
    for f in automaton.accepting:
        row = transitions.setdefault(f, {})
        row[end_symbol] = row.get(end_symbol, frozenset()) | {fresh}
    cls = SpannerDFA if isinstance(automaton, SpannerDFA) else SpannerNFA
    return cls(automaton.num_states + 1, transitions, [fresh])


def pad_slp(slp: SLP, end_symbol: str = END_SYMBOL) -> SLP:
    """The SLP for ``D · end_symbol`` (two fresh nonterminals)."""
    if end_symbol in slp.alphabet:
        raise GrammarError(f"end symbol {end_symbol!r} already occurs in the document")
    leaf_name = ("T", end_symbol)
    start_name = "_padded_start"
    while start_name in slp.inner_rules or start_name in slp.leaf_rules:
        start_name += "_"
    inner = dict(slp.inner_rules)
    inner[start_name] = (slp.start, leaf_name)
    leaves = dict(slp.leaf_rules)
    leaves[leaf_name] = end_symbol
    return SLP(inner, leaves, start_name)


def validate_spanner(automaton: SpannerNFA, max_configs: int = 1_000_000) -> List[str]:
    """Check that canonical accepted words are subword-marked (Def. 3.1).

    Explores the product of the automaton with the per-variable discipline
    automaton (states unseen/open/closed), following only *canonical* paths
    (no two adjacent marker-set arcs).  Returns a list of human-readable
    violations; an empty list means the automaton represents a well-formed
    spanner.

    Violations detected:

    * a marker-set arc re-opens or re-closes a variable, or closes an
      unopened one, on some otherwise-accepting path;
    * an accepting state is reachable with a variable opened but not closed.
    """
    variables = sorted(automaton.variables)
    index = {var: k for k, var in enumerate(variables)}
    violations: List[str] = []
    base = automaton.eliminate_epsilon().trim()

    # config: (state, status vector, last-arc-was-marker)
    initial = (base.start, (0,) * len(variables), False)
    seen = {initial}
    stack = [initial]
    explored = 0
    while stack:
        explored += 1
        if explored > max_configs:
            violations.append(f"validation aborted after {max_configs} configurations")
            break
        state, status, after_set = stack.pop()
        if state in base.accepting:
            open_vars = [variables[k] for k, s in enumerate(status) if s == 1]
            if open_vars:
                violations.append(
                    f"accepting state {state} reachable with open variables {open_vars}"
                )
        for symbol, targets in base._delta.get(state, {}).items():
            if is_marker_item(symbol):
                if after_set:
                    continue  # non-canonical path, ignore
                new_status = list(status)
                bad = None
                by_var: Dict[str, Set[str]] = {}
                for marker in symbol:
                    by_var.setdefault(marker.var, set()).add(marker.kind)
                for var, kinds in by_var.items():
                    k = index[var]
                    if kinds == {OPEN, CLOSE}:
                        # both markers at one position: the empty span [i, i⟩
                        if new_status[k] != 0:
                            bad = f"variable {var!r} opened twice (state {state})"
                            break
                        new_status[k] = 2
                    elif kinds == {OPEN}:
                        if new_status[k] != 0:
                            bad = f"variable {var!r} opened twice (state {state})"
                            break
                        new_status[k] = 1
                    else:
                        if new_status[k] != 1:
                            bad = f"variable {var!r} closed while not open (state {state})"
                            break
                        new_status[k] = 2
                if bad is not None:
                    violations.append(bad)
                    continue
                config = (None, tuple(new_status), True)
                for target in targets:
                    config = (target, tuple(new_status), True)
                    if config not in seen:
                        seen.add(config)
                        stack.append(config)
            else:
                for target in targets:
                    config = (target, status, False)
                    if config not in seen:
                        seen.add(config)
                        stack.append(config)
    return sorted(set(violations))


def is_well_formed(automaton: SpannerNFA) -> bool:
    """Boolean form of :func:`validate_spanner`."""
    return not validate_spanner(automaton)
