"""Shared infrastructure for the committed-JSON benchmark runners.

The committed-JSON runners (``bench_compile.py``, ``bench_binlog.py``,
``bench_serve.py``) share one copy of the runner scaffolding here:
the ``machine`` metadata block and the
``--quick``/``--repeats``/``--output`` argument set.  Every
``BENCH_*.json`` writer builds on it so the payload
shape (``quick``, ``repeats``, ``machine: {python, platform, cpus}``)
stays uniform across benchmarks, which the CI validator and the report
writer both rely on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))


def machine_metadata() -> dict:
    """The ``machine`` block every committed BENCH_*.json carries."""
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": os.cpu_count() or 1,
    }


def runner_parser(description: str, default_output: str) -> argparse.ArgumentParser:
    """The common benchmark-runner CLI: ``--quick`` (smoke scales, print
    instead of write), ``--repeats N`` (best-of-N), ``--output PATH``."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smoke scales; print the table but do not write the JSON",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="best-of-N timing (default 3)"
    )
    parser.add_argument(
        "--output",
        default=str(ROOT / default_output),
        help=f"output path (default: {default_output} at the repo root)",
    )
    return parser


def run_benchmark_main(parser: argparse.ArgumentParser, generate, argv=None) -> int:
    """Parse, validate, run ``generate(quick=..., repeats=...)``, and
    print (``--quick``) or write the JSON payload."""
    options = parser.parse_args(argv)
    if options.repeats < 1:
        parser.error("--repeats must be at least 1")
    payload = generate(quick=options.quick, repeats=options.repeats)
    text = json.dumps(payload, indent=2)
    if options.quick:
        print(text)
    else:
        Path(options.output).write_text(text + "\n")
        print(f"[bench] wrote {options.output}")
    return 0
