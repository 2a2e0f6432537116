"""Command-line front end: analyze / enumerate / verify / pattern / diagram.

JSON is the output contract; text renderings are conveniences.  enumerate
takes several sizes and verify several sizes and statements; each run's
line is written as soon as that run finishes.  Every failure path exits
nonzero and reports a machine-parsable error code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import ExitStack

from .asm import Asm, asm_from_json, rank_matrix
from .complexes import asm_complex
from .enumeration import ALL_CHECKS, analyze_asm, tabulate
from .errors import AsmlabError, MalformedInputError, UsageError
from .homology import parse_field
from .ideals import perm_set


def _load_asm(path: str) -> Asm:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise MalformedInputError(f"{path} is not JSON: {exc}") from None
    return asm_from_json(data)


def _emit(args, chunks) -> None:
    """Write each chunk to --out or stdout, flushed, as soon as it is made.
    --out is opened at the first chunk, so a command that fails before
    making one leaves no file, and the chunks made before a failure stay."""
    out = sys.stdout
    with ExitStack() as stack:
        for i, chunk in enumerate(chunks):
            if i == 0 and args.out_path:
                out = stack.enter_context(open(args.out_path, "w"))
            out.write(chunk)
            out.flush()


def cmd_analyze(args) -> int:
    from .combinatorics import ascii_diagram, dominant_part, essential_set, rothe_diagram
    from .squarefree import cell_label, init_ideal, km_vertex_decomposable

    A = _load_asm(args.input_path)
    ps = perm_set(A)
    result = analyze_asm(A, field=args.field)
    report = {
        "asm": A.to_json_dict(),
        "a11_is_one": A.a11_is_one,
        "rank_matrix": [list(row) for row in rank_matrix(A)],
        "rothe_diagram": sorted(map(list, rothe_diagram(A))),
        "essential_set": sorted(map(list, essential_set(A))),
        "dominant_part": sorted(map(list, dominant_part(A))),
        "init_ideal": init_ideal(A).to_json_list(),
        "perms": [
            {"one_line": list(w.one_line), "word": str(w), "length": w.length}
            for w in sorted(ps.perms, key=lambda w: w.one_line)
        ],
        "codim": result.codim,
        "perm_count": result.perm_count,
        "equidimensional": result.equidimensional,
        "cm": result.cm,
        "diagram": ascii_diagram(A),
        "km_vd": result.km_vd,
    }
    if not result.km_vd:
        trace = km_vertex_decomposable(asm_complex(ps))
        report["km_vd_trace"] = trace.to_json_dict()
        report["km_vd_failure_vertex"] = (
            cell_label(trace.failure_vertex) if trace.failure_vertex else None
        )
    if args.out_format == "text":
        lines = [report["diagram"], ""]
        lines += [
            f"codim {report['codim']}  perms {report['perm_count']}  "
            f"equidimensional {report['equidimensional']}",
            f"cm {report['cm']}  km_vd {report['km_vd']}",
        ]
        _emit(args, ["\n".join(lines) + "\n"])
    else:
        _emit(args, [json.dumps(report, indent=2, sort_keys=True) + "\n"])
    return 0


def cmd_enumerate(args) -> int:
    """One census row per size, in the order given: a JSON object per line,
    or CSV with the header once."""

    def rows():
        for i, n in enumerate(args.n):
            table = tabulate(
                n,
                checks=args.checks,
                filter_spec=args.filter_spec,
                jobs=args.jobs,
                cache_dir=args.cache_dir,
                field=args.field,
            )
            if args.out_format == "json":
                yield json.dumps(table.to_json_dict(), sort_keys=True) + "\n"
            else:
                text = table.to_csv()
                yield text if i == 0 else text.partition("\n")[2]

    _emit(args, rows())
    return 0


def cmd_verify(args) -> int:
    """Each statement at each size, sizes outermost: one JSON report per
    line, or `PASS|FAIL <statement> n=<n> <good>/<cases>`, `SKIP` for a run
    with no case.  Exits 1 if any run fails, and exits 2, before any run,
    if a statement is not one of STATEMENT_NAMES."""
    from .sweeps import STATEMENT_NAMES, verify_statement

    statements = args.statement or STATEMENT_NAMES
    for name in statements:
        if name not in STATEMENT_NAMES:
            raise UsageError(
                f"asmlab verify: argument --statement: invalid choice: {name!r} "
                f"(choose from {', '.join(map(repr, STATEMENT_NAMES))})"
            )
    passed = []

    def lines():
        for n in args.n:
            for name in statements:
                report = verify_statement(name, n, seed=args.seed)
                passed.append(report.passed)
                if args.out_format == "json":
                    yield json.dumps(report.to_json_dict(), sort_keys=True) + "\n"
                else:
                    status = "SKIP" if not report.cases else "PASS" if report.passed else "FAIL"
                    good = report.cases - len(report.failures)
                    yield f"{status} {name} n={n} {good}/{report.cases}\n"

    _emit(args, lines())
    return 0 if all(passed) else 1


def cmd_pattern(args) -> int:
    from .combinatorics import check_containment_constraints, find_pattern

    target = _load_asm(args.target_path)
    pattern = _load_asm(args.pattern_path)
    witness = find_pattern(target, pattern)
    if witness is None:
        _emit(args, [json.dumps({"contains": False}) + "\n"])
        return 1
    cr = check_containment_constraints(target, pattern, witness)
    out = {
        "contains": True,
        "kept_rows": list(witness.kept_rows),
        "kept_cols": list(witness.kept_cols),
        "deleted_rows": list(cr.deleted_rows),
        "deleted_cols": list(cr.deleted_cols),
        "entry_sum": cr.entry_sum,
        "constraints_ok": cr.ok,
    }
    _emit(args, [json.dumps(out, sort_keys=True) + "\n"])
    return 0


def cmd_diagram(args) -> int:
    from .combinatorics import ascii_diagram

    A = _load_asm(args.input_path)
    _emit(args, [ascii_diagram(A) + "\n"])
    return 0


class ArgumentParser(argparse.ArgumentParser):
    """A parser whose failures (its subparsers' too) raise UsageError, so a
    bad command line leaves through report_errors like any bad input."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> ArgumentParser:
    parser = ArgumentParser(prog="asmlab")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, formats=(), field=False):
        """A subparser with --out, and --format/--field only if it reads them."""
        p = sub.add_parser(name)
        p.add_argument("--out", dest="out_path")
        if formats:
            p.add_argument(
                "--format", dest="out_format", choices=formats, default=formats[0]
            )
        if field:
            p.add_argument("--field", default="rational")
        return p

    p = command("analyze", ("json", "text"), field=True)
    p.add_argument("--input", dest="input_path", required=True)

    p = command("enumerate", ("csv", "json"), field=True)
    p.add_argument("-n", type=int, nargs="+", required=True)
    p.add_argument("--checks", default=",".join(ALL_CHECKS))
    p.add_argument("--filter", dest="filter_spec")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--cache", dest="cache_dir")

    p = command("verify", ("text", "json"))
    # checked by cmd_verify, which loads the sweeps
    p.add_argument(
        "--statement",
        nargs="+",
        metavar="NAME",
        help="statements to verify (default: all); an unknown name prints the list",
    )
    p.add_argument("-n", type=int, nargs="+", required=True)
    p.add_argument("--seed", type=int, default=0)

    p = command("pattern")
    p.add_argument("--pattern", dest="pattern_path", required=True)
    p.add_argument("--target", dest="target_path", required=True)

    p = command("diagram")
    p.add_argument("--input", dest="input_path", required=True)
    return parser

_COMMANDS = {
    "analyze": cmd_analyze,
    "enumerate": cmd_enumerate,
    "verify": cmd_verify,
    "pattern": cmd_pattern,
    "diagram": cmd_diagram,
}


def parse_args(argv=None):
    """The command line as argparse reads it, with --field parsed, --checks
    split into names and --cache falling back to $ASMLAB_CACHE."""
    args = build_parser().parse_args(argv)
    if hasattr(args, "field"):
        args.field = parse_field(args.field)
    if hasattr(args, "checks"):
        args.checks = tuple(c for c in args.checks.split(",") if c)
        if args.cache_dir is None:
            args.cache_dir = os.environ.get("ASMLAB_CACHE") or None
    return args


def report_errors(run) -> int:
    """Return run()'s exit status.  An AsmlabError or an OSError exits 2
    with one JSON line {"error": code, "message": text} on stderr."""
    try:
        return run()
    except AsmlabError as exc:
        code, message = exc.code, str(exc)
    except FileNotFoundError as exc:
        code, message = "file-not-found", str(exc)
    except OSError as exc:
        code, message = "io-error", str(exc)
    sys.stderr.write(json.dumps({"error": code, "message": message}) + "\n")
    return 2


def main(argv=None) -> int:
    def run():
        args = parse_args(argv)
        return _COMMANDS[args.command](args)

    return report_errors(run)


if __name__ == "__main__":
    sys.exit(main())
