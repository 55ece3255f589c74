"""``repro-spanner serve`` with the benchmark's layer wrappers installed.

Used by the traced run of ``daemon_warm`` only: the wrappers must be in
place before the daemon forks its fleet, so that the workers inherit them.
The untraced run starts the daemon with ``python -m repro serve``.

    PYTHONPATH=src python perfbench/daemon.py serve --socket S --jobs 2 --trace T
"""

import sys

from layers import install


def main() -> int:
    install()
    from repro.cli import main as cli_main

    return cli_main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
