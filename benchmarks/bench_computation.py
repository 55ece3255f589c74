"""E4 — Theorem 7.1: computing ⟦M⟧(D) in O(sort(|M|)q² + size(S)·q⁴·size(⟦M⟧(D))).

Paper claim: at a fixed grammar and automaton the time is linear in the
output size r.  ``compute_marker_sets`` tables only the triples with
``R_A[i,j] = 1``, which lie on the derivation-tree paths to the output's
markers; the ``R = ℮`` cells of marker-free filler are the identity
``{∅}`` and are never visited.  Each call here also pays padding and the
Lemma 6.5 build, which grow with size(S).

The planted workload puts exactly r ``c`` characters into repetitive
``ab`` filler and queries them with a one-variable spanner: r is swept
while size(S) barely moves, so the expected shape is time ≈ c · r, and
at a fixed r a longer filler adds only build time.  The server-log case
is the shape of the ``adhoc_cold`` benchmark's evaluate requests: a
RePair-compressed log and a sparse one-variable spanner.
"""

import pytest

from repro.slp.repair import repair_slp
from repro.spanner.regex import compile_spanner
from repro.workloads.documents import LOG_ALPHABET, server_log
from repro.workloads.queries import marker_spanner
from repro.core.computation import compute


def planted_document(r: int, block: int = 64) -> str:
    """('ab'*block + 'c') * r — exactly r query results, repetitive filler."""
    return ("ab" * block + "c") * r


@pytest.mark.parametrize("r", [4, 16, 64, 256])
def test_computation_vs_result_count(benchmark, r):
    doc = planted_document(r)
    slp = repair_slp(doc)
    spanner = marker_spanner("c", alphabet="abc")
    result = benchmark(compute, slp, spanner)
    assert len(result) == r


@pytest.mark.parametrize("block", [16, 64, 256])
def test_computation_vs_document_size_fixed_r(benchmark, block):
    """Same r = 32, growing d: the tabled triples stay put, only the
    build's size(S) share grows; time does not follow d."""
    doc = planted_document(32, block=block)
    slp = repair_slp(doc)
    spanner = marker_spanner("c", alphabet="abc")
    result = benchmark(compute, slp, spanner)
    assert len(result) == 32


def test_computation_multi_variable(benchmark):
    """Two-variable join-style output on a repetitive document."""
    doc = planted_document(12)
    slp = repair_slp(doc)
    spanner = compile_spanner(r".*(?P<x>c).*(?P<y>c).*", alphabet="abc")
    result = benchmark(compute, slp, spanner)
    assert len(result) == 12 * 11 // 2


def test_computation_sparse_server_log(benchmark):
    """A RePair server log and one user's names (the adhoc_cold shape)."""
    log = server_log(400, seed=1)
    slp = repair_slp(log)
    spanner = compile_spanner(
        r".*user=(?P<user>bob) .*", alphabet="".join(sorted(LOG_ALPHABET))
    )
    result = benchmark(compute, slp, spanner)
    assert len(result) == log.count("user=bob ")
