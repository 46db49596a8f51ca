"""``python -m repro.lint`` — the analyzer's command line.

Modes:

* default — the per-file architectural rules (RPR001-RPR005), exactly
  as before;
* ``--strict`` — additionally runs the project-wide dataflow rules
  (RPR006-RPR011: shared state, purity, p2m typestate, array aliasing,
  reachability)
  and subtracts the committed baseline; any residual finding fails;
* ``--baseline-update`` — reruns the strict rule set and regenerates
  the baseline file deterministically (sorted, stable keys).

Exit codes are honest: 0 clean, 1 findings reported, 2 the analysis
itself failed (usage error, unreadable path, unparsable file, crash) —
a CI gate must be able to tell "violations" from "the linter broke".
"""

from __future__ import annotations

import argparse
import os
import sys
import textwrap
from typing import List, Optional

from repro.errors import ReproError
from repro.lint.analyzer import Analyzer
from repro.lint.baseline import (
    DEFAULT_BASELINE,
    load_baseline,
    save_baseline,
)
from repro.lint.registry import all_rules


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "Static analyzer enforcing the reproduction's architectural "
            "invariants (interface encapsulation, hypercall validation, "
            "migration protocol ordering, typed errors, determinism) and, "
            "in --strict mode, the project-wide dataflow rules (shared "
            "mutable state, purity of the execute_request closure, p2m "
            "typestate, ndarray aliasing, reachability of every function)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to check (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--select",
        action="append",
        metavar="RULE",
        help="run only this rule (id or name); repeatable",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        metavar="RULE",
        help="skip this rule (id or name); repeatable",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help=(
            "run the project-wide dataflow rules too and fail on any "
            "finding not in the baseline"
        ),
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        default=DEFAULT_BASELINE,
        help=(
            f"baseline file for --strict / --baseline-update "
            f"(default: {DEFAULT_BASELINE})"
        ),
    )
    parser.add_argument(
        "--baseline-update",
        action="store_true",
        help=(
            "regenerate the baseline from the current strict findings "
            "(deterministic: sorted, stable keys) and exit 0"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered rules and exit",
    )
    return parser


def _list_rules() -> str:
    blocks = []
    for cls in all_rules():
        body = textwrap.fill(
            cls.description, width=76, initial_indent="    ",
            subsequent_indent="    ",
        )
        blocks.append(f"{cls.rule_id} [{cls.name}]\n{body}")
    return "\n\n".join(blocks)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code.

    Exit codes: 0 clean, 1 findings reported, 2 usage error or the
    analysis itself failed.
    """
    args = _build_parser().parse_args(argv)
    try:
        if args.list_rules:
            print(_list_rules())
            return 0
        baseline = None
        if args.strict and not args.baseline_update:
            if os.path.exists(args.baseline):
                try:
                    baseline = load_baseline(args.baseline)
                except ReproError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    return 2
            elif args.baseline != DEFAULT_BASELINE:
                print(
                    f"error: baseline {args.baseline} does not exist",
                    file=sys.stderr,
                )
                return 2
            # else: no committed baseline yet — strict mode runs bare.
        try:
            analyzer = Analyzer(
                select=args.select,
                ignore=args.ignore,
                project=args.strict or args.baseline_update,
                baseline=baseline,
            )
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        report = analyzer.run(args.paths)
        if args.baseline_update:
            if report.errors:
                for err in report.errors:
                    print(f"error: {err}", file=sys.stderr)
                return 2
            save_baseline(args.baseline, report.findings)
            print(
                f"baseline {args.baseline} updated: "
                f"{len(report.findings)} finding(s) recorded"
            )
            return 0
        if args.format == "json":
            print(report.render_json())
        else:
            print(report.render_text())
        if report.errors:
            return 2
        return 0 if not report.findings else 1
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; not an error.
        return 0
    except Exception as exc:  # repro-lint: ignore[RPR003] - honest crash exit
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
