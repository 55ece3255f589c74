"""Spanner automata: NFAs/DFAs over ``Σ ∪ P(Γ_X)`` (Sec. 3.2 / 3.3).

A regular spanner is represented by a finite automaton whose alphabet mixes
document symbols (single-character strings) and marker-set symbols
(``frozenset`` of :class:`~repro.spanner.markers.Marker`).  The automaton
accepts a subword-marked language; its spanner maps a document ``D`` to
``{p(w) : w ∈ L(M), e(w) = D}``.

Deviations from the paper's notation: states are numbered ``0 .. q-1`` with
start state ``0`` (the paper uses ``1 .. q`` with start ``1``) — a pure
indexing convention.

The module provides construction (:class:`NFABuilder`), ε-elimination,
trimming, subset-construction determinisation, and direct runs on explicit
marked words (used by tests and the uncompressed baseline).
"""

from __future__ import annotations

import hashlib
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import AutomatonError
from repro.spanner.markers import Marker, MarkerSetSymbol, format_marker_set
from repro.spanner.marked_words import Item, is_marker_item

#: Sentinel label for ε-transitions.
EPSILON = ("ε",)


class SpannerNFA:
    """A nondeterministic spanner automaton.

    ``transitions`` maps ``state -> {symbol -> frozenset of successor
    states}``; symbols are characters, marker-set symbols, or
    :data:`EPSILON`.
    """

    __slots__ = ("num_states", "accepting", "_delta", "_size", "_digest")

    start: int = 0

    def __init__(
        self,
        num_states: int,
        transitions: Dict[int, Dict[object, FrozenSet[int]]],
        accepting: Iterable[int],
    ) -> None:
        if num_states < 1:
            raise AutomatonError("an automaton needs at least one state")
        self.num_states = num_states
        self.accepting = frozenset(accepting)
        for state in self.accepting:
            if not 0 <= state < num_states:
                raise AutomatonError(f"accepting state {state} out of range")
        self._delta: Dict[int, Dict[object, FrozenSet[int]]] = {}
        size = 0
        for state, by_symbol in transitions.items():
            if not 0 <= state < num_states:
                raise AutomatonError(f"transition source {state} out of range")
            cleaned: Dict[object, FrozenSet[int]] = {}
            for symbol, targets in by_symbol.items():
                targets = frozenset(targets)
                if not targets:
                    continue
                for target in targets:
                    if not 0 <= target < num_states:
                        raise AutomatonError(f"transition target {target} out of range")
                cleaned[symbol] = targets
                size += len(targets)
            if cleaned:
                self._delta[state] = cleaned
        self._size = size
        self._digest: Optional[str] = None

    # -- basic accessors ---------------------------------------------------

    @property
    def size(self) -> int:
        """``|M|`` — the number of transitions (paper's size measure)."""
        return self._size

    def successors(self, state: int, symbol: object) -> FrozenSet[int]:
        """``δ(state, symbol)`` (empty frozenset if undefined)."""
        return self._delta.get(state, {}).get(symbol, frozenset())

    def has_arc(self, source: int, symbol: object, target: int) -> bool:
        """Constant-time arc membership test (Remark 3.4)."""
        return target in self.successors(source, symbol)

    def arcs(self) -> Iterator[Tuple[int, object, int]]:
        """Iterate over all arcs ``(source, symbol, target)`` (Remark 3.4)."""
        for state in sorted(self._delta):
            for symbol, targets in self._delta[state].items():
                for target in sorted(targets):
                    yield state, symbol, target

    def transition_table(self) -> Dict[int, Dict[object, FrozenSet[int]]]:
        """A copy of ``state -> {symbol -> successors}`` (the successor sets
        are shared: they are immutable)."""
        return {state: dict(by_symbol) for state, by_symbol in self._delta.items()}

    def symbols(self) -> Set[object]:
        """All symbols appearing on arcs (excluding ε)."""
        out: Set[object] = set()
        for by_symbol in self._delta.values():
            out.update(by_symbol)
        out.discard(EPSILON)
        return out

    @property
    def sigma(self) -> FrozenSet[str]:
        """The document alphabet Σ used on arcs."""
        return frozenset(s for s in self.symbols() if not is_marker_item(s))

    @property
    def marker_symbols(self) -> FrozenSet[MarkerSetSymbol]:
        """The marker-set symbols from ``P(Γ_X)`` used on arcs."""
        return frozenset(s for s in self.symbols() if is_marker_item(s))

    @property
    def variables(self) -> FrozenSet[str]:
        """The span variables ``X`` mentioned by the automaton."""
        out: Set[str] = set()
        for symbol in self.marker_symbols:
            for marker in symbol:
                out.add(marker.var)
        return frozenset(out)

    @property
    def has_epsilon(self) -> bool:
        return any(EPSILON in by_symbol for by_symbol in self._delta.values())

    @property
    def is_deterministic(self) -> bool:
        """DFA check: no ε-arcs, at most one successor per symbol."""
        for by_symbol in self._delta.values():
            if EPSILON in by_symbol:
                return False
            for targets in by_symbol.values():
                if len(targets) > 1:
                    return False
        return True

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(states={self.num_states}, arcs={self.size}, "
            f"accepting={sorted(self.accepting)}, vars={sorted(self.variables)})"
        )

    def structural_digest(self) -> str:
        """A content hash of the automaton (hex string), cached on the object.

        States are already canonical integers (start is always ``0``), so
        hashing the sorted arc list plus the accepting set is an exact
        content key: two automata get the same digest iff they have the
        same states, arcs and accepting set.  Used by the engine's
        structural cache keys and the on-disk preprocessing store.
        """
        if self._digest is None:
            h = hashlib.blake2b(digest_size=16)
            h.update(self.num_states.to_bytes(4, "little"))
            h.update(b"A" + ",".join(map(str, sorted(self.accepting))).encode())
            arcs = []
            for source, symbol, target in self.arcs():
                if symbol == EPSILON:
                    token = b"e"
                elif isinstance(symbol, frozenset):
                    token = b"f" + format_marker_set(symbol).encode("utf-8")
                else:
                    token = b"s" + str(symbol).encode("utf-8")
                arcs.append((source, token, target))
            # arcs() follows transition-dict insertion order; sort so the
            # digest is a function of the arc *set* only.
            arcs.sort()
            for source, token, target in arcs:
                h.update(source.to_bytes(4, "little"))
                h.update(len(token).to_bytes(4, "little"))
                h.update(token)
                h.update(target.to_bytes(4, "little"))
            self._digest = h.hexdigest()
        return self._digest

    # -- runs on explicit words --------------------------------------------

    def epsilon_closure(self, states: Iterable[int]) -> FrozenSet[int]:
        out = set(states)
        stack = list(out)
        while stack:
            state = stack.pop()
            for target in self.successors(state, EPSILON):
                if target not in out:
                    out.add(target)
                    stack.append(target)
        return frozenset(out)

    def run(self, word: Iterable[Item], frontier: Optional[Iterable[int]] = None) -> FrozenSet[int]:
        """The set of states reachable from ``frontier`` by reading ``word``."""
        current = self.epsilon_closure([self.start] if frontier is None else frontier)
        for item in word:
            nxt: Set[int] = set()
            for state in current:
                nxt.update(self.successors(state, item))
            current = self.epsilon_closure(nxt)
            if not current:
                break
        return frozenset(current)

    def accepts(self, word: Iterable[Item]) -> bool:
        """Whether the (marked) word is in ``L(M)``."""
        return bool(self.run(word) & self.accepting)

    # -- transformations ---------------------------------------------------

    def eliminate_epsilon(self) -> "SpannerNFA":
        """An equivalent automaton without ε-arcs (standard closure)."""
        if not self.has_epsilon:
            return self
        closures = [self.epsilon_closure([s]) for s in range(self.num_states)]
        transitions: Dict[int, Dict[object, FrozenSet[int]]] = {}
        accepting: Set[int] = set()
        for state in range(self.num_states):
            merged: Dict[object, Set[int]] = {}
            for reached in closures[state]:
                if reached in self.accepting:
                    accepting.add(state)
                for symbol, targets in self._delta.get(reached, {}).items():
                    if symbol == EPSILON:
                        continue
                    bucket = merged.setdefault(symbol, set())
                    for target in targets:
                        bucket.update(closures[target])
            if merged:
                transitions[state] = {s: frozenset(t) for s, t in merged.items()}
        return SpannerNFA(self.num_states, transitions, accepting)

    def trim(self) -> "SpannerNFA":
        """Restrict to accessible *and* co-accessible states.

        If the trimmed automaton would be empty (empty language), a single
        non-accepting start state remains so the object stays well-formed.
        """
        automaton = self.eliminate_epsilon()
        forward = {automaton.start}
        stack = [automaton.start]
        while stack:
            state = stack.pop()
            for by_symbol in (automaton._delta.get(state, {}),):
                for targets in by_symbol.values():
                    for target in targets:
                        if target not in forward:
                            forward.add(target)
                            stack.append(target)
        reverse: Dict[int, Set[int]] = {}
        for source, _symbol, target in automaton.arcs():
            reverse.setdefault(target, set()).add(source)
        backward = set(automaton.accepting)
        stack = list(backward)
        while stack:
            state = stack.pop()
            for source in reverse.get(state, ()):
                if source not in backward:
                    backward.add(source)
                    stack.append(source)
        useful = forward & backward
        cls = type(self)
        if automaton.start not in useful:
            return cls(1, {}, [])
        keep = [automaton.start] + sorted(useful - {automaton.start})
        renumber = {old: new for new, old in enumerate(keep)}
        transitions: Dict[int, Dict[object, FrozenSet[int]]] = {}
        for source, symbol, target in automaton.arcs():
            if source in renumber and target in renumber:
                by_symbol = transitions.setdefault(renumber[source], {})
                by_symbol[symbol] = by_symbol.get(symbol, frozenset()) | {renumber[target]}
        accepting = [renumber[s] for s in automaton.accepting if s in renumber]
        return cls(len(keep), transitions, accepting)

    def determinize(self) -> "SpannerDFA":
        """Subset-construction determinisation over the used symbols.

        The result is a (partial) DFA as required by the enumeration
        algorithm (Theorem 8.10 / Lemma 8.8).
        """
        base = self.eliminate_epsilon()
        start = frozenset([base.start])
        index: Dict[FrozenSet[int], int] = {start: 0}
        worklist: List[FrozenSet[int]] = [start]
        transitions: Dict[int, Dict[object, FrozenSet[int]]] = {}
        accepting: Set[int] = set()
        while worklist:
            subset = worklist.pop()
            sid = index[subset]
            if subset & base.accepting:
                accepting.add(sid)
            merged: Dict[object, Set[int]] = {}
            for state in subset:
                for symbol, targets in base._delta.get(state, {}).items():
                    merged.setdefault(symbol, set()).update(targets)
            if merged:
                row: Dict[object, FrozenSet[int]] = {}
                for symbol, targets in merged.items():
                    key = frozenset(targets)
                    tid = index.get(key)
                    if tid is None:
                        tid = len(index)
                        index[key] = tid
                        worklist.append(key)
                    row[symbol] = frozenset([tid])
                transitions[sid] = row
        return SpannerDFA(len(index), transitions, accepting)

    def renumbered(self, mapping: Dict[int, int], num_states: int) -> "SpannerNFA":
        """A copy with states renamed through ``mapping``."""
        transitions: Dict[int, Dict[object, FrozenSet[int]]] = {}
        for source, symbol, target in self.arcs():
            row = transitions.setdefault(mapping[source], {})
            row[symbol] = row.get(symbol, frozenset()) | {mapping[target]}
        return type(self)(
            num_states,
            transitions,
            [mapping[s] for s in self.accepting],
        )


class SpannerDFA(SpannerNFA):
    """A deterministic spanner automaton (partial transition function)."""

    __slots__ = ()

    def __init__(self, num_states, transitions, accepting) -> None:
        super().__init__(num_states, transitions, accepting)
        if not self.is_deterministic:
            raise AutomatonError("SpannerDFA constructed with nondeterministic transitions")

    def step(self, state: int, symbol: object) -> Optional[int]:
        """``δ(state, symbol)`` as a single state, or ``None`` if undefined."""
        targets = self.successors(state, symbol)
        for target in targets:
            return target
        return None


class NFABuilder:
    """Convenient incremental construction of :class:`SpannerNFA`.

    States are handed out as opaque integers; :meth:`build` renumbers them
    so the designated start state becomes ``0``.
    """

    def __init__(self) -> None:
        self._count = 0
        self._arcs: List[Tuple[int, object, int]] = []
        self._accepting: Set[int] = set()
        self._start: Optional[int] = None

    def state(self) -> int:
        """Allocate a fresh state."""
        self._count += 1
        return self._count - 1

    def arc(self, source: int, symbol: object, target: int) -> None:
        """Add a transition; ``symbol`` may be :data:`EPSILON`."""
        self._arcs.append((source, symbol, target))

    def epsilon(self, source: int, target: int) -> None:
        self.arc(source, EPSILON, target)

    def set_start(self, state: int) -> None:
        self._start = state

    def accept(self, state: int) -> None:
        self._accepting.add(state)

    def build(self, deterministic: bool = False) -> SpannerNFA:
        if self._start is None:
            raise AutomatonError("no start state set")
        order = [self._start] + [s for s in range(self._count) if s != self._start]
        renumber = {old: new for new, old in enumerate(order)}
        transitions: Dict[int, Dict[object, FrozenSet[int]]] = {}
        for source, symbol, target in self._arcs:
            row = transitions.setdefault(renumber[source], {})
            row[symbol] = row.get(symbol, frozenset()) | {renumber[target]}
        cls = SpannerDFA if deterministic else SpannerNFA
        return cls(self._count, transitions, [renumber[s] for s in self._accepting])
