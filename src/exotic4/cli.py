"""Command-line front end.

Either `--spec file` (the run-spec language) or inline `--k/--n/--p/--r/--m`
flags select the models; every value accepts an int or an inclusive
`lo..hi` range.  Exit status: 0 all verdicts pass, 1 some verdict failed,
2 usage/parse/constraint error, including a spec file that cannot be read
or an `--out` path that cannot be written (checked before any model runs).
"""

from __future__ import annotations

import argparse
import sys

from .coset import DEFAULT_LIMIT
from .manifolds import ParameterError
from .report import (
    RunSpec,
    SpecError,
    expand_family,
    parse_range,
    parse_spec,
    render_json,
    render_table,
    run,
    unique_families,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exotic4",
        description=(
            "Build surgered 4-manifold models, machine-check their "
            "fundamental-group and homology claims, and report the "
            "Seiberg-Witten bookkeeping that distinguishes them."
        ),
    )
    parser.add_argument("--spec", metavar="FILE", help="run-spec file (see README)")
    parser.add_argument("--k", help="genus parameter, int or lo..hi range")
    parser.add_argument("--n", help="surgery coefficient magnitude, int or range")
    parser.add_argument("--p", help="first order parameter (default 1)")
    parser.add_argument("--r", help="second order parameter (default 1)")
    parser.add_argument("--m", help="transform multiplicity (default 1)")
    parser.add_argument(
        "--limit", type=int,
        help=f"coset-table size bound (default: the spec's limit line, else {DEFAULT_LIMIT})",
    )
    parser.add_argument(
        "--format", choices=("json", "table"), default="table",
        help="output format (default table)",
    )
    parser.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for sweeps (default 1; any value yields identical output)",
    )
    return parser


def _spec_from_args(args) -> RunSpec:
    if args.spec is not None:
        if any(getattr(args, flag) is not None for flag in "knprm"):
            raise SpecError("--spec and inline --k/--n/--p/--r/--m are mutually exclusive")
        try:
            with open(args.spec, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise SpecError(f"cannot read spec file: {exc}") from None
        spec = parse_spec(text)
        if args.limit is not None:
            spec = RunSpec(spec.families, spec.customs, args.limit)
        return spec
    if args.k is None or args.n is None:
        raise SpecError("no run specified: provide --spec or both --k and --n")
    values = {}
    for flag in ("k", "n", "p", "r", "m"):
        text = getattr(args, flag)
        if text is None:
            text = "1"  # --p, --r and --m default to 1
        try:
            values[flag] = parse_range(text)
        except ValueError:
            raise SpecError(f"bad --{flag} value {text!r} (want int or lo..hi)") from None
    limit = DEFAULT_LIMIT if args.limit is None else args.limit
    return RunSpec(unique_families(expand_family(values)), (), limit)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")  # exits 2
    try:
        spec = _spec_from_args(args)
    except (SpecError, ParameterError) as exc:
        print(f"exotic4: {exc}", file=sys.stderr)
        return 2
    out = sys.stdout
    if args.out:
        # Opened before the sweep, so an unwritable path costs no model run.
        try:
            out = open(args.out, "w", encoding="utf-8")
        except OSError as exc:
            print(f"exotic4: cannot write --out file: {exc}", file=sys.stderr)
            return 2
    try:
        report = run(spec, jobs=args.jobs)
        out.write(render_json(report) if args.format == "json" else render_table(report))
    finally:
        if out is not sys.stdout:
            out.close()
    summary = report["summary"]
    if args.out:
        print(
            f"wrote {args.out}: {summary['models']} models, "
            f"{summary['passed']} passed, {summary['failed']} failed"
        )
    return 0 if summary["failed"] == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
