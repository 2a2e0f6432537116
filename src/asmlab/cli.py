"""Command-line front end: analyze / enumerate / verify / pattern / diagram.

JSON is the output contract; text renderings are conveniences.  Every
failure path exits nonzero and reports a machine-parsable error code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from .asm import (
    Asm,
    asm_from_json,
    ascii_diagram,
    check_containment_constraints,
    dominant_part,
    essential_set,
    find_pattern,
    rank_matrix,
    rothe_diagram,
)
from .complexes import km_vertex_decomposable, sr_complex_from_ideal
from .enumeration import (
    ALL_CHECKS,
    STATEMENT_NAMES,
    tabulate,
    verify_statement,
)
from .errors import AsmlabError, MalformedInputError, UsageError
from .homology import cascade_is_cm, characteristic, parse_field
from .ideals import cell_label, init_ideal, perm_set_via_primes


@dataclass
class CliConfig:
    command: str
    input_path: str | None = None
    pattern_path: str | None = None
    target_path: str | None = None
    n: int | None = None
    field: object = "rational"
    checks: tuple = ALL_CHECKS
    filter_spec: str | None = None
    statement: str | None = None
    out_format: str = "text"
    jobs: int = 1
    cache_dir: str | None = None
    out_path: str | None = None
    seed: int = 0


def _load_asm(path: str) -> Asm:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise MalformedInputError(f"{path} is not JSON: {exc}") from None
    return asm_from_json(data)


def _emit(config: CliConfig, text: str) -> None:
    if config.out_path:
        with open(config.out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_analyze(config: CliConfig) -> int:
    A = _load_asm(config.input_path)
    I = init_ideal(A)
    pa = perm_set_via_primes(A)
    delta = sr_complex_from_ideal(I, pa.primes)
    trace = km_vertex_decomposable(delta)
    report = {
        "asm": A.to_json_dict(),
        "a11_is_one": A.a11_is_one,
        "rank_matrix": [list(row) for row in rank_matrix(A)],
        "rothe_diagram": sorted(map(list, rothe_diagram(A))),
        "essential_set": sorted(map(list, essential_set(A))),
        "dominant_part": sorted(map(list, dominant_part(A))),
        "init_ideal": I.to_json_list(),
        "perms": [
            {"one_line": list(w.one_line), "word": str(w), "length": w.length}
            for w in sorted(pa.perms, key=lambda w: w.one_line)
        ],
        "codim": pa.codim,
        "perm_count": len(pa.perms),
        "equidimensional": pa.equidimensional,
        "cm": cascade_is_cm(delta.facets, characteristic(config.field)),
        "diagram": ascii_diagram(A),
        "km_vd": trace.result,
    }
    if not trace.result:
        report["km_vd_trace"] = trace.to_json_dict()
        report["km_vd_failure_vertex"] = (
            cell_label(trace.failure_vertex) if trace.failure_vertex else None
        )
    if config.out_format == "text":
        lines = [report["diagram"], ""]
        lines += [
            f"codim {report['codim']}  perms {report['perm_count']}  "
            f"equidimensional {report['equidimensional']}",
            f"cm {report['cm']}  km_vd {report['km_vd']}",
        ]
        _emit(config, "\n".join(lines) + "\n")
    else:
        _emit(config, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_enumerate(config: CliConfig) -> int:
    table = tabulate(
        config.n,
        checks=config.checks,
        filter_spec=config.filter_spec,
        jobs=config.jobs,
        cache_dir=config.cache_dir,
        field=config.field,
    )
    if config.out_format == "json":
        _emit(config, json.dumps(table.to_json_dict(), sort_keys=True) + "\n")
    else:
        _emit(config, table.to_csv())
    return 0


def cmd_verify(config: CliConfig) -> int:
    report = verify_statement(config.statement, config.n, seed=config.seed)
    if config.out_format == "json":
        _emit(config, json.dumps(report.to_json_dict(), sort_keys=True) + "\n")
    else:
        status = "PASS" if report.passed else "FAIL"
        good = report.cases - len(report.failures)
        _emit(config, f"{status} {good}/{report.cases}\n")
    return 0 if report.passed else 1


def cmd_pattern(config: CliConfig) -> int:
    target = _load_asm(config.target_path)
    pattern = _load_asm(config.pattern_path)
    witness = find_pattern(target, pattern)
    if witness is None:
        _emit(config, json.dumps({"contains": False}) + "\n")
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
    _emit(config, json.dumps(out, sort_keys=True) + "\n")
    return 0


def cmd_diagram(config: CliConfig) -> int:
    A = _load_asm(config.input_path)
    _emit(config, ascii_diagram(A) + "\n")
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
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--checks", default=",".join(ALL_CHECKS))
    p.add_argument("--filter", dest="filter_spec")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--cache", dest="cache_dir")

    p = command("verify", ("text", "json"))
    p.add_argument("--statement", required=True, choices=STATEMENT_NAMES)
    p.add_argument("-n", type=int, required=True)
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


def config_from_args(args) -> CliConfig:
    config = CliConfig(command=args.command)
    for name in vars(config):
        if hasattr(args, name) and getattr(args, name) is not None:
            setattr(config, name, getattr(args, name))
    if hasattr(args, "field"):
        config.field = parse_field(args.field)
    if getattr(args, "checks", None):
        config.checks = tuple(c for c in args.checks.split(",") if c)
    if config.cache_dir is None:
        config.cache_dir = os.environ.get("ASMLAB_CACHE") or None
    return config


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
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](config_from_args(args))

    return report_errors(run)


if __name__ == "__main__":
    sys.exit(main())
