"""Self-test of the benchmark: tiny inputs, every workload, both modes.

Run from the root of a checkout::

    python3 perfbench/selftest.py

For each workload it checks that

* an untraced run exits 0 and its JSON line carries every ``end_to_end``
  metric of ``BENCHMARK.json`` with its unit, and its report prints every
  end-to-end metric of the workload by name, with its unit;
* a traced run carries every ``per_layer`` metric with its unit;
* a run whose K-th result is deliberately corrupted (``--corrupt``) counts
  it as failed, reports ``correct: false`` and exits non-zero;

and, once, that the benchmark refuses to run (non-zero, no result) with
``REPRO_FAULTS`` set, and in a directory holding only ``BENCHMARK.json``
and the benchmark's own files.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from typing import Dict, List, Optional, Tuple

#: The end-to-end metrics each workload's report must print, with units.
REPORTED = {
    "adhoc_cold": ["enum_first_ms_p50 ms", "enum_delay_p50_us us", "enum_delay_p90_us us"],
    "daemon_warm": [],
    "corpus_churn": ["store_mb MiB"],
}
COMMON = [
    "setup_s s", "items_per_s 1/s", "request_p50_ms ms", "request_p90_ms ms",
    "request_p99_ms ms", "failed_ratio ratio", "peak_rss_mb MiB",
]


def _run(command: List[str], args: List[str], cwd: str,
         env: Optional[Dict[str, str]] = None) -> Tuple[int, List[str], str]:
    proc = subprocess.run(
        command + args, cwd=cwd, env=env, capture_output=True, text=True, timeout=600,
    )
    return proc.returncode, proc.stdout.splitlines(), proc.stderr


def _result(lines: List[str]) -> Dict[str, object]:
    return json.loads(lines[-1])


def _check_units(result: Dict[str, object], wanted: List[Dict[str, str]]) -> List[str]:
    metrics = result["metrics"]
    problems = []
    for spec in wanted:
        got = metrics.get(spec["name"])
        if got is None or got["unit"] != spec["unit"]:
            problems.append(f"metric {spec['name']} [{spec['unit']}] missing or mislabelled: {got}")
    extra = set(metrics) - {spec["name"] for spec in wanted}
    if extra:
        problems.append(f"unexpected metrics {sorted(extra)}")
    return problems


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    command = contract["command"]
    problems: List[str] = []
    tiny = ["--seed", "7", "--seconds", "1", "--tiny"]
    for spec in contract["workloads"]:
        name = spec["name"]
        code, lines, err = _run(command, ["--workload", name, "--trace", "0"] + tiny, root)
        if code != 0:
            problems.append(f"{name}: untraced run exited {code}: {err[-500:]}")
            continue
        result = _result(lines)
        problems += [f"{name}: {p}" for p in _check_units(result, contract["end_to_end"])]
        report = "\n".join(lines[:-1])
        for item in COMMON + REPORTED[name]:
            metric, unit = item.split()
            if not re.search(rf"^# metric {re.escape(metric)} = .* {re.escape(unit)}\b",
                             report, re.M):
                problems.append(f"{name}: report does not print {metric} in {unit}")

        code, lines, err = _run(command, ["--workload", name, "--trace", "1"] + tiny, root)
        if code != 0:
            problems.append(f"{name}: traced run exited {code}: {err[-500:]}")
        else:
            problems += [f"{name} traced: {p}"
                         for p in _check_units(_result(lines), contract["per_layer"])]

        code, lines, err = _run(command, ["--workload", name, "--trace", "0", "--corrupt", "1"] + tiny,
                                root)
        result = _result(lines) if lines and lines[-1].startswith("{") else {}
        if code == 0 or result.get("correct") is not False or not result.get("failed"):
            problems.append(f"{name}: a corrupted result was not counted "
                            f"(exit {code}, {result.get('failed')} failed)")

    env = dict(os.environ, REPRO_FAULTS="shard.run:crash")
    code, lines, _ = _run(command, ["--workload", "adhoc_cold", "--trace", "0"] + tiny, root, env)
    if code == 0 or any(line.startswith("{") for line in lines):
        problems.append("ran with REPRO_FAULTS set")

    bare = os.path.join(root, ".bench_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        for path in contract["paths"]:
            shutil.copytree(os.path.join(root, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        code, lines, _ = _run(command, ["--workload", "adhoc_cold", "--trace", "0"] + tiny, bare)
        if code == 0 or any(line.startswith("{") for line in lines):
            problems.append("produced a result without the program's source")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, ".bench_work"))
        except OSError:
            pass

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
