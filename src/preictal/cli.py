"""Command-line entry point.

    preictal <stage> --config run.cfg [--seed N] [--out DIR]

Stages: convert, preprocess, extract, train, score, evaluate, report, all.
Exit codes: 0 ok, 2 config error, 3 data error, 4 numeric failure.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import validate_config
from .errors import ConfigError, DataError, NumericError
from .pipeline import STAGES, run

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


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
