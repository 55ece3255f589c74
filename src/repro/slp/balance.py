"""SLP balancing (substitute for the Balancing Theorem 4.3).

The paper invokes Ganardi–Jeż–Lohrey (FOCS'19): any SLP of size ``s`` can be
rebalanced in ``O(s)`` time into an equivalent SLP of size ``O(s)`` and depth
``O(log d)``.  Implementing GJL verbatim is out of scope; we substitute
Rytter-style **AVL-grammar rebalancing** (see :mod:`repro.slp.avl`):

* same depth guarantee: ``depth(S') <= 1.44 * log2(d) + 3``;
* size ``O(s · log d)`` instead of ``O(s)`` (measured in bench E7).

Everything downstream of the theorem — the ``O(|X| · log d)`` enumeration
delay (Thm 8.10) and the ``O(|X| · log d)`` model-checking rewrite
(Thm 5.1.2) — depends only on the depth, so the substitution preserves the
paper's behaviour.
"""

from __future__ import annotations

import math

from repro.slp.avl import AvlBuilder, avl_from_slp, avl_to_slp
from repro.slp.grammar import SLP

#: AVL trees with n leaves have height <= 1.4405 log2(n + 2); the +3 covers
#: the leaf-nonterminal level and rounding.
AVL_DEPTH_FACTOR = 1.4405
AVL_DEPTH_SLACK = 3


def balance(slp: SLP) -> SLP:
    """Rebalance ``slp`` into an equivalent SLP of depth ``O(log d)``.

    The derived document is unchanged.  The result satisfies
    ``result.depth() <= depth_bound(result.length())``.

    >>> from repro.slp.families import caterpillar_slp
    >>> deep = caterpillar_slp(500)
    >>> deep.depth() > 500
    True
    >>> flat = balance(deep)
    >>> flat.depth() <= depth_bound(flat.length())
    True
    """
    builder = AvlBuilder()
    root = avl_from_slp(slp, builder)
    return avl_to_slp(root)


def depth_bound(length: int) -> int:
    """The guaranteed post-balancing depth bound for a document of ``length``."""
    if length < 1:
        raise ValueError("documents have length >= 1")
    return int(AVL_DEPTH_FACTOR * math.log2(length + 2)) + AVL_DEPTH_SLACK


def is_balanced(slp: SLP, factor: float = AVL_DEPTH_FACTOR, slack: int = AVL_DEPTH_SLACK) -> bool:
    """Whether ``slp`` is ``c``-balanced: ``depth(S) <= factor*log2(d) + slack``."""
    return slp.depth() <= factor * math.log2(slp.length() + 2) + slack


def ensure_balanced(slp: SLP) -> SLP:
    """Return ``slp`` unchanged if already balanced, else :func:`balance` it."""
    return slp if is_balanced(slp) else balance(slp)
