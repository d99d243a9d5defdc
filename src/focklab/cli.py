"""Command-line entry point.

Subcommands: hartree, product-scan, coherent-scan, fluctuation-suite,
coeff-suite, all.  Each takes --config, --out and --threads.

Exit codes: 0 success; 1 configuration error; 2 a suite-level basis over
fock.capacity; 3 a recorded failure or another package error.  A table
suite records a package error inside one of its cells (one FLAG line each)
and continues; an error outside every cell stops the run with its code.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import load_config
from .errors import CapacityError, ConfigError, FockLabError
from .experiments import (
    COEFFICIENT_FILES,
    FLUCTUATION_FILES,
    emit_rate_csv,
    emit_suite_csvs,
    emit_trajectory_csv,
    run_coefficient_suite,
    run_coherent_rate_scan,
    run_fluctuation_suite,
    run_hartree_trajectory,
    run_product_rate_scan,
)

def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="focklab",
        description="Mean-field boson dynamics laboratory on a truncated lattice Fock space",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (
        ("hartree", "integrate the Hartree equation and export the trajectory"),
        ("product-scan", "marginal convergence rate for product initial states"),
        ("coherent-scan", "marginal convergence rate for coherent initial states"),
        ("fluctuation-suite", "number growth, dynamics gaps, parity and identity probes"),
        ("coeff-suite", "coefficient tables, partial-sum identity, reconstruction, remainder"),
        ("all", "run every suite"),
    ):
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", required=True, help="path to the JSON experiment config")
        p.add_argument("--out", default="out", help="output directory for CSV files")
        p.add_argument("--threads", type=int, default=None, help="parallel worker count")
    return parser


def _report(suite: str, result) -> int:
    """FLAG lines and a summary for a table suite; returns its failure count."""
    for probe, cell, msg in result.failures:
        print(f"{suite} FLAG [{probe} {cell}]: {msg}", file=sys.stderr)
    print(f"{suite}: {sum(len(v) for v in result.tables.values())} rows, {len(result.failures)} failed cells")
    return len(result.failures)


def _run(command: str, config, out: Path) -> int:
    if command in ("hartree", "all"):
        emit_trajectory_csv(out / "trajectory.csv", run_hartree_trajectory(config))
        print(f"hartree: trajectory written to {out / 'trajectory.csv'}")
    def rate_csv(name):
        return lambda result: emit_rate_csv(out / name, result.tables["rate"])

    # built per call, not at import: the benchmark's tracer swaps these names for timed wrappers
    suites = (
        ("product-scan", run_product_rate_scan, rate_csv("product_rate.csv")),
        ("coherent-scan", run_coherent_rate_scan, rate_csv("coherent_rate.csv")),
        ("fluctuation-suite", run_fluctuation_suite, lambda r: emit_suite_csvs(out, r, FLUCTUATION_FILES)),
        ("coeff-suite", run_coefficient_suite, lambda r: emit_suite_csvs(out, r, COEFFICIENT_FILES)),
    )
    violations = 0
    for suite, run, emit in suites:
        if command in (suite, "all"):
            result = run(config)
            emit(result)
            violations += _report(suite, result)
    return 3 if violations else 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.threads is not None:
            if args.threads < 1:
                raise ConfigError(f"--threads must be >= 1, got {args.threads}")
            config.threads = args.threads
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out {out} cannot be used as an output directory: {exc}") from exc
        return _run(args.command, config, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 2
    except FockLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
