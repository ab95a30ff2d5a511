#!/usr/bin/env python3
"""Compare two catalog CSVs in every column but runtime_ms.

Usage:
    python3 scripts/compare_reports.py A.csv B.csv [--skip PREFIX ...]

Rows whose check_id starts with a --skip prefix are left out of both files.
Exits 0 when the remaining rows are equal, in order, and 1 naming the first
check_id whose row differs, or the first one that only one file has.
"""

import argparse
import csv
import sys


def rows(path: str, skip: list) -> list:
    with open(path, newline="") as stream:
        return [{key: value for key, value in row.items() if key != "runtime_ms"}
                for row in csv.DictReader(stream)
                if not row["check_id"].startswith(tuple(skip))]


def first_difference(a: list, b: list):
    """The check_id of the first row that differs or that only one list has, else None."""
    for row_a, row_b in zip(a, b):
        if row_a != row_b:
            return row_a["check_id"]
    if len(a) != len(b):
        return (a if len(a) > len(b) else b)[min(len(a), len(b))]["check_id"]
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--skip", action="append", default=[], metavar="PREFIX",
                        help="leave out rows whose check_id starts with PREFIX (repeatable)")
    args = parser.parse_args(argv)
    a, b = rows(args.a, args.skip), rows(args.b, args.skip)
    if not a and not b:
        print("no rows to compare", file=sys.stderr)
        return 1
    differs = first_difference(a, b)
    if differs is not None:
        print(f"{differs}: differs between {args.a} and {args.b}", file=sys.stderr)
        return 1
    print(f"{len(a)} rows equal apart from runtime_ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
