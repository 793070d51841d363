#!/usr/bin/env python
"""Regenerate the paper's experimental tables in one run.

Prints the markdown experiment report (the same text as
``python -m repro tables``): Table 1 (benchmark characteristics),
Table 2 (runtime performance per configuration, with overhead %) and
its event-count companion, Table 3 (racy objects per accuracy variant,
with the paper's numbers alongside), and the Section 8.2 space numbers.

Run:  python examples/benchmark_tables.py           (quick: small scales)
      python examples/benchmark_tables.py --full    (default scales)
"""

import sys

from repro.harness import build_report


def main() -> None:
    quick = "--full" not in sys.argv
    scale = 4 if quick else None
    repeats = 1 if quick else 3
    print(build_report(scale=scale, repeats=repeats), end="")


if __name__ == "__main__":
    main()
