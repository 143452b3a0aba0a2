"""Command-line entry point.

    preictal <stage> --config run.cfg [--seed N] [--out DIR]

Stages: convert, preprocess, extract, train, score, evaluate, report, all.
Exit codes: 0 ok, 2 config error, 3 data error, 4 numeric failure.
"""
from __future__ import annotations

import argparse
import ctypes
import sys
from pathlib import Path

from .config import validate_config
from .errors import ConfigError, DataError, NumericError
from .pipeline import STAGES, run

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
# glibc's mallopt parameters (malloc.h) and the values main fixes them at;
# 32 MiB is the most glibc's own mmap threshold rises to
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD_BYTES, TRIM_THRESHOLD_BYTES = 32 << 20, 8 << 20


def fix_malloc_thresholds():
    """Fix glibc's mmap and trim thresholds, so every run in one process
    allocates as the first did.  By default each free of a mapped block
    raises them to its size and twice that, and a heap keeps up to the trim
    threshold of freed memory resident: a second `all` on a 1-hour record
    peaked about 30 MB above the first.  Other C libraries are left as they are."""
    libc = ctypes.CDLL(None) if sys.platform.startswith("linux") else None
    if hasattr(libc, "mallopt"):
        libc.mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
        libc.mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="preictal",
        description="ECG-based seizure prediction pipeline (reconstruction-error anomaly detection)",
    )
    parser.add_argument("stage", choices=list(STAGES) + ["all"],
                        help="pipeline stage to run")
    parser.add_argument("--config", required=True, help="key = value config file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="override the output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    fix_malloc_thresholds()
    try:
        try:
            text = Path(args.config).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.out is not None:
            overrides["out"] = args.out
        cfg = validate_config(text, overrides=overrides)
        run(args.stage, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
