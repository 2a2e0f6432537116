#!/usr/bin/env python3
"""Run every theorem-verification sweep up to a given size."""

import sys
import time

from asmlab.cli import ArgumentParser, report_errors
from asmlab.enumeration import STATEMENT_NAMES, verify_statement


def main() -> int:
    parser = ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=5)
    parser.add_argument("--min-n", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--statements", nargs="+", default=list(STATEMENT_NAMES), choices=STATEMENT_NAMES
    )
    return report_errors(lambda: verify(parser.parse_args()))


def verify(args) -> int:
    failures = 0
    for n in range(args.min_n, args.max_n + 1):
        for name in args.statements:
            t0 = time.perf_counter()
            report = verify_statement(name, n, seed=args.seed)
            status = "PASS" if report.passed else "FAIL"
            if not report.passed:
                failures += 1
            print(
                f"{status} {name} n={n} cases={report.cases} "
                f"({time.perf_counter() - t0:.1f}s)"
            )
            sys.stdout.flush()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
