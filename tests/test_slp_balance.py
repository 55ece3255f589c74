"""Tests for repro.slp.balance (the Theorem 4.3 substitute)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.slp.balance import balance, depth_bound, ensure_balanced, is_balanced
from repro.slp.derive import text
from repro.slp.families import (
    caterpillar_slp,
    example_4_2,
    fibonacci_slp,
    power_slp,
    random_slp,
)


class TestBalance:
    def test_preserves_document(self):
        deep = caterpillar_slp(500)
        flat = balance(deep)
        assert text(flat) == text(deep)

    def test_reaches_logarithmic_depth(self):
        deep = caterpillar_slp(3000)
        flat = balance(deep)
        assert deep.depth() >= 3000
        assert flat.depth() <= depth_bound(flat.length())

    def test_size_blowup_at_most_log_factor(self):
        """repro.slp.balance: our substitute costs O(s log d), not O(s)."""
        deep = caterpillar_slp(4096)
        flat = balance(deep)
        log_d = math.log2(deep.length())
        assert flat.size <= 4 * deep.size * log_d

    def test_already_balanced_grammar_stays_small(self):
        slp = power_slp("ab", 12)
        flat = balance(slp)
        assert flat.length() == slp.length()
        assert flat.depth() <= depth_bound(flat.length())
        assert flat.size <= 6 * slp.size * max(1, math.log2(slp.length()))

    def test_single_leaf(self):
        from repro.slp.grammar import SLP

        slp = SLP({}, {"T": "a"}, "T")
        assert text(balance(slp)) == "a"


class TestPredicates:
    def test_depth_bound_monotone(self):
        assert depth_bound(1) <= depth_bound(100) <= depth_bound(10**9)

    def test_depth_bound_rejects_bad_length(self):
        with pytest.raises(ValueError):
            depth_bound(0)

    def test_is_balanced_on_families(self):
        assert is_balanced(power_slp("ab", 16))
        assert is_balanced(example_4_2())
        assert not is_balanced(caterpillar_slp(2000))

    def test_fibonacci_is_balanced(self):
        # depth n for length Fib(n) ~ phi^n: within the c*log(d) bound
        slp = fibonacci_slp(25)
        assert slp.depth() <= 1.4405 * math.log2(slp.length() + 2) + 3

    def test_ensure_balanced_identity_for_balanced(self):
        slp = power_slp("ab", 10)
        assert ensure_balanced(slp) is slp

    def test_ensure_balanced_rebuilds_unbalanced(self):
        deep = caterpillar_slp(1000)
        flat = ensure_balanced(deep)
        assert flat is not deep
        assert is_balanced(flat)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=10**6))
def test_balance_random_grammars(num_inner, seed):
    """Property: balancing any random SLP preserves text and bounds depth."""
    slp = random_slp(num_inner, alphabet="abc", seed=seed, max_length=5000)
    flat = balance(slp)
    assert flat.length() == slp.length()
    assert text(flat, max_length=10**4) == text(slp, max_length=10**4)
    assert flat.depth() <= depth_bound(flat.length())
