"""Regenerate every experiment table (E1–E9) in one run.

This is the harness whose ``--json`` output is committed as the
``BENCH_<n>.json`` snapshots that ``benchmarks/trajectory.py`` diffs.  Each
``e*()`` function sweeps the workload of one experiment (the matching
``bench_*.py`` module says which paper result it exercises) and prints a
paper-style table; absolute numbers are machine-dependent,
the *shape* (who wins, growth rates, crossovers) is what reproduces the
paper's claims.

Run with::

    python benchmarks/run_all.py            # full sweep (~2-4 minutes)
    python benchmarks/run_all.py --quick    # reduced sweep
    python benchmarks/run_all.py --quick --json BENCH_PR4.json  # + artifact

``--json`` additionally writes every table (plus per-experiment wall
times and environment metadata) as one machine-readable trajectory
artifact — CI uploads a ``BENCH_<pr>.json`` per run, seeding the bench
history that future PRs diff against.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import sys
import time

from repro.baselines.uncompressed import UncompressedEvaluator
from repro.bench.harness import Table, measure_enumeration, time_call
from repro.core.evaluator import CompressedSpannerEvaluator
from repro.core.membership import slp_in_language
from repro.core.model_checking import model_check
from repro.core.nonemptiness import project_to_sigma
from repro.slp.balance import balance
from repro.slp.construct import bisection_slp
from repro.slp.derive import text
from repro.slp.families import caterpillar_slp, fibonacci_slp, power_slp, thue_morse_slp
from repro.slp.lz import lz_slp
from repro.slp.repair import repair_slp
from repro.slp.stats import slp_stats
from repro.spanner.automaton import NFABuilder
from repro.spanner.regex import compile_spanner
from repro.spanner.spans import Span, SpanTuple
from repro.workloads.documents import block_text, dna, server_log
from repro.workloads.queries import marker_spanner

AB_QUERY = r"(a|b)*(?P<x>ab)(a|b)*"


def ab_spanner():
    return compile_spanner(AB_QUERY, alphabet="ab")


# ----------------------------------------------------------------------


def e1_nonemptiness(quick: bool) -> Table:
    """Thm 5.1.1: compressed O(s) vs baseline O(d)."""
    table = Table(
        "E1  non-emptiness (Thm 5.1.1): compressed O(s) vs decompress-and-solve O(d)",
        ["n", "d = 2^(n+1)", "size(S)", "compressed", "baseline", "speedup"],
    )
    spanner = ab_spanner()
    projected = project_to_sigma(spanner)
    ns = [8, 10, 12, 14, 16] if quick else [8, 10, 12, 14, 16, 18]
    for n in ns:
        slp = power_slp("ab", n)
        _, t_comp = time_call(slp_in_language, slp, projected, repeat=5)
        doc = text(slp)
        baseline = UncompressedEvaluator(spanner, doc)
        _, t_base = time_call(baseline.is_nonempty)
        table.add(n, slp.length(), slp.size, f"{t_comp * 1e3:.3f} ms",
                  f"{t_base * 1e3:.2f} ms", f"{t_base / t_comp:.0f}x")
    # beyond the baseline's reach
    for n in ([24] if quick else [24, 32, 40]):
        slp = power_slp("ab", n)
        _, t_comp = time_call(slp_in_language, slp, projected, repeat=5)
        table.add(n, slp.length(), slp.size, f"{t_comp * 1e3:.3f} ms",
                  "(out of memory)", "-")
    return table


def e2_model_checking(quick: bool) -> Table:
    """Thm 5.1.2: O((s + |X| depth) q^3), flat in d."""
    table = Table(
        "E2  model checking (Thm 5.1.2): time vs document size (should stay flat)",
        ["n", "d", "size(S)", "depth(S)", "true instance", "false instance"],
    )
    spanner = ab_spanner()
    ns = [10, 16, 22] if quick else [10, 14, 18, 22, 26, 30]
    for n in ns:
        slp = power_slp("ab", n)
        good = SpanTuple({"x": Span(2**n - 1, 2**n + 1)})
        bad = SpanTuple({"x": Span(2**n, 2**n + 2)})
        _, t_good = time_call(model_check, slp, spanner, good, repeat=3)
        _, t_bad = time_call(model_check, slp, spanner, bad, repeat=3)
        table.add(n, slp.length(), slp.size, slp.depth(),
                  f"{t_good * 1e3:.3f} ms", f"{t_bad * 1e3:.3f} ms")
    return table


def _cycle_automaton(q: int):
    builder = NFABuilder()
    states = [builder.state() for _ in range(q)]
    builder.set_start(states[0])
    for idx, state in enumerate(states):
        builder.arc(state, "a", states[(idx + 1) % q])
    builder.accept(states[0])
    return builder.build()


def e3_membership(quick: bool) -> Table:
    """Lemma 4.5: scaling in q at fixed s, and in s at fixed q."""
    table = Table(
        "E3  compressed membership (Lemma 4.5): time vs automaton states q",
        ["q", "size(S)", "d", "time", "time/prev"],
    )
    slp = power_slp("a", 20)
    prev = None
    qs = [4, 8, 16, 32] if quick else [4, 8, 16, 32, 64, 128]
    for q in qs:
        nfa = _cycle_automaton(q)
        _, t = time_call(slp_in_language, slp, nfa, repeat=3)
        table.add(q, slp.size, slp.length(), f"{t * 1e3:.3f} ms",
                  f"{t / prev:.2f}x" if prev else "-")
        prev = t
    return table


def e4_computation(quick: bool) -> Table:
    """Thm 7.1: time linear in the result count r."""
    table = Table(
        "E4  computation (Thm 7.1): time vs result count r (fixed query)",
        ["r", "d", "size(S)", "time", "time/r"],
    )
    spanner = marker_spanner("c", alphabet="abc")
    rs = [4, 16, 64] if quick else [4, 16, 64, 256, 512]
    for r in rs:
        doc = ("ab" * 64 + "c") * r
        slp = repair_slp(doc)
        evaluator = CompressedSpannerEvaluator(spanner, slp)
        result, t = time_call(evaluator.evaluate)
        assert len(result) == r
        table.add(r, len(doc), slp.size, f"{t * 1e3:.2f} ms",
                  f"{t / r * 1e6:.1f} µs")
    return table


def e5_enumeration_preprocessing(quick: bool) -> Table:
    """Thm 8.10 preprocessing: O(s q^3) vs baseline O(d)."""
    table = Table(
        "E5  enumeration preprocessing (Thm 8.10): time to first result",
        ["n", "d", "compressed prep+first", "baseline prep+first"],
    )
    spanner = ab_spanner()
    ns = [8, 12, 16] if quick else [8, 12, 16, 20, 24]
    for n in ns:
        slp = power_slp("ab", n)

        def compressed():
            ev = CompressedSpannerEvaluator(spanner, slp)
            return ev.enumerate()

        profile = measure_enumeration(compressed, max_results=1, probe=False)
        t_comp = profile.preprocessing + profile.first_result
        if n <= 16:
            doc = text(slp)

            def baseline():
                ev = UncompressedEvaluator(spanner, doc)
                return ev.enumerate()

            base_profile = measure_enumeration(baseline, max_results=1, probe=False)
            t_base = f"{(base_profile.preprocessing + base_profile.first_result) * 1e3:.2f} ms"
        else:
            t_base = "(skipped: O(d))"
        table.add(n, slp.length(), f"{t_comp * 1e3:.2f} ms", t_base)
    return table


def e6_delay(quick: bool) -> Table:
    """Thm 8.10 delay: O(|X| depth(S)); log d when balanced."""
    table = Table(
        "E6  enumeration delay (Thm 8.10): per-result delay profiles (200 results)",
        ["grammar", "d", "depth(S)", "first", "mean delay", "max delay"],
    )
    spanner = ab_spanner()
    ns = [10, 16, 22] if quick else [10, 16, 22, 28]
    for n in ns:
        slp = power_slp("ab", n)
        ev = CompressedSpannerEvaluator(spanner, slp)
        ev.preprocessing(deterministic=True)
        profile = measure_enumeration(ev.enumerate, max_results=200)
        table.add(f"balanced 2^{n + 1}", slp.length(), slp.depth(),
                  f"{profile.first_result * 1e6:.0f} µs",
                  f"{profile.mean_delay * 1e6:.1f} µs",
                  f"{profile.max_delay * 1e6:.0f} µs")
    depths = [200, 1600] if quick else [200, 1600, 12800]
    for depth in depths:
        slp = caterpillar_slp(depth)
        ev = CompressedSpannerEvaluator(spanner, slp, balance=False)
        ev.preprocessing(deterministic=True)
        profile = measure_enumeration(ev.enumerate, max_results=200)
        table.add(f"caterpillar {depth}", slp.length(), slp.depth(),
                  f"{profile.first_result * 1e6:.0f} µs",
                  f"{profile.mean_delay * 1e6:.1f} µs",
                  f"{profile.max_delay * 1e6:.0f} µs")
        flat = balance(slp)
        ev = CompressedSpannerEvaluator(spanner, flat, balance=False)
        ev.preprocessing(deterministic=True)
        profile = measure_enumeration(ev.enumerate, max_results=200)
        table.add(f"  ...balanced", flat.length(), flat.depth(),
                  f"{profile.first_result * 1e6:.0f} µs",
                  f"{profile.mean_delay * 1e6:.1f} µs",
                  f"{profile.max_delay * 1e6:.0f} µs")
    return table


def e7_balancing(quick: bool) -> Table:
    """Thm 4.3 substitute: depth -> O(log d), size cost, rebuild time."""
    table = Table(
        "E7  balancing (Thm 4.3, AVL substitute): caterpillar grammars",
        ["n", "size before", "depth before", "size after", "depth after",
         "1.44·log2(d)", "time"],
    )
    ns = [256, 1024, 4096] if quick else [256, 1024, 4096, 16384]
    for n in ns:
        slp = caterpillar_slp(n)
        flat, t = time_call(balance, slp)
        table.add(n, slp.size, slp.depth(), flat.size, flat.depth(),
                  f"{1.44 * math.log2(slp.length()):.1f}",
                  f"{t * 1e3:.1f} ms")
    return table


def e8_compression(quick: bool) -> Table:
    """Sec 1.1/4.2: size(S) across families and compressors."""
    table = Table(
        "E8  compression: grammar sizes across document families",
        ["document", "d", "bisection", "repair", "lz", "best ratio"],
    )
    size = 4096 if quick else 16384
    documents = {
        "server_log": server_log(size // 40, seed=1),
        "dna (repeats)": dna(size, seed=1, repeat_bias=0.92),
        "block_text(4)": block_text(size, 4, seed=1),
        "block_text(256)": block_text(size, 256, seed=1),
        "random": block_text(size, size, block_length=1, seed=1),
    }
    for name, doc in documents.items():
        sizes = {
            "bisection": bisection_slp(doc).size,
            "repair": repair_slp(doc).size,
            "lz": lz_slp(doc).size,
        }
        best = min(sizes.values())
        table.add(name, len(doc), sizes["bisection"], sizes["repair"],
                  sizes["lz"], f"{len(doc) / best:.1f}x")
    # directly-constructed families: the exponential regime
    for name, slp in (
        ("(ab)^2^20", power_slp("ab", 20)),
        ("Fibonacci F_40", fibonacci_slp(40)),
        ("Thue-Morse 2^30", thue_morse_slp(30)),
    ):
        stats = slp_stats(slp)
        table.add(name, stats["length"], "-", "-", stats["size"],
                  f"{stats['ratio']:.3g}x")
    return table


def e9_crossover(quick: bool) -> Table:
    """Sec 1.3: compressed vs baseline end-to-end as compressibility varies."""
    table = Table(
        "E9  crossover: end-to-end query time at fixed d, varying compressibility",
        ["distinct blocks", "size(S)", "r", "compressed", "baseline", "winner"],
    )
    length = 8192 if quick else 16384
    spanner = compile_spanner(r"(a|b)*(?P<x>abba)(a|b)*", alphabet="ab")
    blocks_sweep = [2, 32, 512] if quick else [2, 8, 32, 128, 512, 2048]
    for blocks in blocks_sweep:
        doc = block_text(length, blocks, block_length=32, seed=13)
        slp = repair_slp(doc)

        def compressed():
            ev = CompressedSpannerEvaluator(spanner, slp)
            return sum(1 for _ in ev.enumerate())

        def baseline():
            ev = UncompressedEvaluator(spanner, doc)
            return sum(1 for _ in ev.enumerate())

        r, t_comp = time_call(compressed)
        _, t_base = time_call(baseline)
        winner = "compressed" if t_comp < t_base else "baseline"
        table.add(blocks, slp.size, r, f"{t_comp * 1e3:.1f} ms",
                  f"{t_base * 1e3:.1f} ms", winner)
    return table


def e10_counting(quick: bool) -> Table:
    """Extension: counting/ranked access vs enumeration (ablation)."""
    from repro.core.counting import CountingTables, RankedAccess

    table = Table(
        "E10 counting & ranked access (extension): vs full enumeration",
        ["r = |result|", "count (tables)", "count (enumerate)", "select rank r/2"],
    )
    spanner = ab_spanner()
    ns = [10, 14, 30] if quick else [10, 14, 18, 30, 40]
    for n in ns:
        slp = power_slp("ab", n)
        ev = CompressedSpannerEvaluator(spanner, slp)
        prep = ev.preprocessing(deterministic=True)
        _, t_tables = time_call(lambda: CountingTables(prep).total(), repeat=3)
        if n <= 18:
            _, t_enum = time_call(lambda: sum(1 for _ in ev.enumerate_raw()))
            enum_txt = f"{t_enum * 1e3:.1f} ms"
        else:
            enum_txt = "(infeasible: O(r))"
        ra = RankedAccess(prep)
        _, t_select = time_call(ra.select, ra.total // 2, repeat=3)
        table.add(2**n, f"{t_tables * 1e3:.3f} ms", enum_txt,
                  f"{t_select * 1e6:.1f} µs")
    return table


def e11_incremental(quick: bool) -> Table:
    """Extension: point edit + exact recount vs full re-evaluation."""
    from repro.core.incremental import IncrementalSpannerIndex

    table = Table(
        "E11 incremental updates (extension): edit + recount latency",
        ["n", "d", "incremental edit+count", "full re-evaluation", "speedup"],
    )
    spanner = ab_spanner()
    ns = [12, 20] if quick else [12, 20, 28]
    for n in ns:
        index = IncrementalSpannerIndex(spanner, power_slp("ab", n))
        index.count()

        position = [0]

        def incremental():
            position[0] += 7
            index.replace(position[0] % (2**n), position[0] % (2**n) + 1, "a")
            return index.count()

        def from_scratch():
            position[0] += 7
            index.replace(position[0] % (2**n), position[0] % (2**n) + 1, "a")
            ev = CompressedSpannerEvaluator(spanner, index.snapshot(), balance=False)
            return ev.count()

        _, t_inc = time_call(incremental, repeat=5)
        _, t_full = time_call(from_scratch, repeat=3)
        table.add(n, 2 ** (n + 1), f"{t_inc * 1e3:.3f} ms",
                  f"{t_full * 1e3:.2f} ms", f"{t_full / t_inc:.1f}x")
    return table


EXPERIMENTS = {
    "E1": e1_nonemptiness,
    "E2": e2_model_checking,
    "E3": e3_membership,
    "E4": e4_computation,
    "E5": e5_enumeration_preprocessing,
    "E6": e6_delay,
    "E7": e7_balancing,
    "E8": e8_compression,
    "E9": e9_crossover,
    "E10": e10_counting,
    "E11": e11_incremental,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="reduced sweeps")
    parser.add_argument("--only", nargs="*", choices=sorted(EXPERIMENTS),
                        help="run a subset of experiments")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the tables + timings as a JSON "
                        "trajectory artifact (e.g. BENCH_PR4.json)")
    args = parser.parse_args(argv)
    chosen = args.only if args.only else sorted(EXPERIMENTS)
    total_start = time.perf_counter()
    print("# Spanner evaluation over SLP-compressed documents — experiment sweep\n")
    records = {}
    for key in chosen:
        start = time.perf_counter()
        table = EXPERIMENTS[key](args.quick)
        seconds = time.perf_counter() - start
        print(table.render())
        print(f"[{key} took {seconds:.1f}s]\n")
        records[key] = dict(table.as_dict(), seconds=round(seconds, 3))
    total = time.perf_counter() - total_start
    print(f"Total: {total:.1f}s")
    if args.json:
        from repro.core.kernels import default_kernel_name

        payload = {
            "schema": "repro-bench-trajectory/1",
            "quick": bool(args.quick),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "kernel": default_kernel_name(),
            "experiments": records,
            "total_seconds": round(total, 3),
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
