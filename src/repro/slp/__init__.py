"""Straight-line-program substrate: grammars, access, compressors, balancing.

Public surface:

* :class:`~repro.slp.grammar.SLP` — normal-form straight-line programs;
* :mod:`~repro.slp.derive` — decompression and O(depth) random access;
* :mod:`~repro.slp.construct` / :mod:`~repro.slp.repair` /
  :mod:`~repro.slp.lz` — grammar construction and compression;
* :mod:`~repro.slp.balance` — depth-``O(log d)`` rebalancing (the paper's
  Theorem 4.3, substituted by AVL-grammar rebalancing; the module
  docstring gives the trade-off);
* :mod:`~repro.slp.families` — the paper's example grammars and the
  compressible families used in the benchmarks.
"""

from repro.slp.balance import balance, depth_bound, ensure_balanced, is_balanced
from repro.slp.construct import balanced_slp, bisection_slp
from repro.slp.edits import (
    SlpEditor,
    append_text,
    concat_slp,
    delete_range,
    extract_slp,
    insert_text,
    prepend_text,
    replace_range,
)
from repro.slp.derive import (
    char_at,
    count_symbol,
    decompress,
    iter_symbols,
    leaf_path,
    substring,
    text,
)
from repro.slp.families import (
    caterpillar_slp,
    example_4_1,
    example_4_2,
    fibonacci_slp,
    power_slp,
    random_slp,
    repeated_slp,
    thue_morse_slp,
)
from repro.slp.grammar import SLP
from repro.slp.lz import lz77_factorize, lz_decompress, lz_slp, lz_to_slp
from repro.slp.repair import repair_slp
from repro.slp.stats import compression_report, slp_stats

from repro.slp import io as slp_io

__all__ = [
    "SLP",
    "SlpEditor",
    "append_text",
    "balance",
    "balanced_slp",
    "bisection_slp",
    "concat_slp",
    "delete_range",
    "extract_slp",
    "insert_text",
    "prepend_text",
    "replace_range",
    "slp_io",
    "caterpillar_slp",
    "char_at",
    "compression_report",
    "count_symbol",
    "decompress",
    "depth_bound",
    "ensure_balanced",
    "example_4_1",
    "example_4_2",
    "fibonacci_slp",
    "is_balanced",
    "iter_symbols",
    "leaf_path",
    "lz77_factorize",
    "lz_decompress",
    "lz_slp",
    "lz_to_slp",
    "power_slp",
    "random_slp",
    "repair_slp",
    "repeated_slp",
    "slp_stats",
    "substring",
    "text",
    "thue_morse_slp",
]
