"""Compare grammar compressors and demonstrate balancing.

Reproduces the compressibility premise of the paper's Sec. 1.1/4.2 on four
document families, and shows the effect of the (substituted) Balancing
Theorem 4.3 on a maximally unbalanced grammar.

Run with::

    python examples/compression_study.py
"""

from repro.bench.harness import Table
from repro.slp.balance import balance, depth_bound
from repro.slp.derive import text
from repro.slp.families import caterpillar_slp, fibonacci_slp, thue_morse_slp
from repro.slp.stats import compression_report
from repro.workloads import block_text, dna, random_text, server_log


def main() -> None:
    documents = {
        "server_log(800)": server_log(800, seed=1),
        "dna(16k, repeats)": dna(16_384, seed=1, repeat_bias=0.92),
        "block_text(16k, 4 blocks)": block_text(16_384, 4, seed=1),
        "random(16k)": random_text(16_384, "ab", seed=1),
    }

    table = Table(
        "grammar compressors: size(S) per document (d = |D|)",
        ["document", "d", "balanced", "bisection", "repair", "lz"],
    )
    for name, doc in documents.items():
        report = compression_report(doc)
        table.add(
            name,
            len(doc),
            report["balanced"]["size"],
            report["bisection"]["size"],
            report["repair"]["size"],
            report["lz"]["size"],
        )
    print(table)

    # --- directly-constructed families: no compressor needed -------------
    fib = fibonacci_slp(40)
    tm = thue_morse_slp(30)
    table2 = Table(
        "self-similar families (grammar given, never materialised)",
        ["family", "d", "size", "depth"],
    )
    table2.add("Fibonacci word F_40", fib.length(), fib.size, fib.depth())
    table2.add("Thue-Morse 2^30", tm.length(), tm.size, tm.depth())
    print(table2)

    # --- balancing (Theorem 4.3, substituted per repro.slp.balance) -------
    deep = caterpillar_slp(5000)
    flat = balance(deep)
    table3 = Table(
        "balancing a caterpillar grammar (d = 5002)",
        ["grammar", "size", "depth", "depth bound"],
    )
    table3.add("caterpillar", deep.size, deep.depth(), "-")
    table3.add("balanced", flat.size, flat.depth(), depth_bound(flat.length()))
    print(table3)
    assert text(flat) == text(deep)
    print("balanced grammar derives the identical document: OK")


if __name__ == "__main__":
    main()
