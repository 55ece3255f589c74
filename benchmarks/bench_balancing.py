"""E7 — Theorem 4.3 (substituted): SLP balancing via AVL grammars.

Paper: any SLP can be rebalanced to depth O(log d) with size O(s) in O(s)
time (Ganardi–Jeż–Lohrey).  Our substitute (repro.slp.balance) guarantees the
same depth with size O(s·log d).  The benchmark measures the rebuild time
and the run_all report records the depth/size trade-off on caterpillars
(the worst case: depth ≈ s).
"""

import math

import pytest

from repro.slp.balance import balance, depth_bound
from repro.slp.families import caterpillar_slp, power_slp, random_slp


@pytest.mark.parametrize("n", [256, 1024, 4096])
def test_balance_caterpillar(benchmark, n):
    slp = caterpillar_slp(n)
    flat = benchmark(balance, slp)
    assert flat.depth() <= depth_bound(flat.length())
    assert flat.depth() <= 2 * math.log2(slp.length()) + 4


@pytest.mark.parametrize("inner", [64, 256, 1024])
def test_balance_random_dag(benchmark, inner):
    slp = random_slp(inner, alphabet="abc", seed=17)
    flat = benchmark(balance, slp)
    assert flat.depth() <= depth_bound(flat.length())


def test_balance_already_balanced(benchmark):
    slp = power_slp("ab", 20)
    flat = benchmark(balance, slp)
    assert flat.length() == slp.length()
