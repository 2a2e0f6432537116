#!/usr/bin/env python3
"""Run the CM / KM-vd census for a range of sizes and print CSV rows."""

import csv
import sys

from asmlab.cli import ArgumentParser, report_errors
from asmlab.enumeration import ALL_CHECKS, CENSUS_COLUMNS, tabulate
from asmlab.homology import parse_field


def main() -> int:
    parser = ArgumentParser(description=__doc__)
    parser.add_argument("-n", type=int, nargs="+", default=[4, 5])
    parser.add_argument("--checks", default=",".join(ALL_CHECKS))
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--cache")
    parser.add_argument("--filter", dest="filter_spec")
    parser.add_argument("--field", default="rational")
    return report_errors(lambda: census(parser.parse_args()))


def census(args) -> int:
    field = parse_field(args.field)
    checks = tuple(c for c in args.checks.split(",") if c)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(CENSUS_COLUMNS)
    for n in args.n:
        table = tabulate(
            n,
            checks=checks,
            filter_spec=args.filter_spec,
            jobs=args.jobs,
            cache_dir=args.cache,
            field=field,
        )
        writer.writerow(table.row())
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
