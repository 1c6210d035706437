"""pcon-lint command line.

Usage:
  python3 tools/pcon_lint [--root REPO] [--rules a,b] [--selftest]
                          [--list-rules] [--strict] [--sarif FILE]
                          [--check-inventory FILE]

Runs the project's static-analysis rules (layering, units,
determinism, concurrency-primitives, unordered-iteration,
pointer-order, wall-clock) over the repository
and reports findings as ``path:line: [rule] message`` lines, and
also as SARIF 2.1.0 with ``--sarif FILE`` (uploaded to GitHub code
scanning; the one machine-readable report). ``--selftest`` first
exercises the shared engine (comment/string/raw-string blanking,
suppressions) and every selected rule against its embedded synthetic
violations — proving each rule still fails where it must — and then
scans the real tree.

Suppressions that no longer silence anything — including markers
naming rules that do not exist — are reported as *stale*;
``--strict`` (the CI mode) turns them into failures so dead
exemptions cannot accumulate. ``--check-inventory FILE``
compares the registered rule names against a pinned list and exits
non-zero on drift, so a silently unregistered rule module fails CI.

Exits 0 when clean, 1 with findings, selftest failures, or (under
--strict) stale suppressions, 2 on usage errors. See
docs/STATIC_ANALYSIS.md for the rule catalogue and the
``// pcon-lint: allow(<rule>)`` suppression syntax.
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from engine import (
    Project,
    engine_selftest,
    report_human,
    run_rules_with_stale,
)
from rules_concurrency import ConcurrencyPrimitivesRule
from rules_determinism import DeterminismRule
from rules_layering import LayeringRule
from rules_pointer_order import PointerOrderRule
from rules_units import UnitsRule
from rules_unordered_iteration import UnorderedIterationRule
from rules_wall_clock import WallClockRule
from sarif import sarif_selftest, write_sarif


def default_rules():
    return [
        LayeringRule(),
        UnitsRule(),
        DeterminismRule(),
        ConcurrencyPrimitivesRule(),
        UnorderedIterationRule(),
        PointerOrderRule(),
        WallClockRule(),
    ]


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="pcon-lint", description=__doc__
    )
    parser.add_argument(
        "--root",
        default=str(
            pathlib.Path(__file__).resolve().parent.parent.parent
        ),
        help="repository root (default: the checkout containing "
        "this tool)",
    )
    parser.add_argument(
        "--rules",
        default="all",
        help="comma-separated rule names to run (default: all)",
    )
    parser.add_argument(
        "--selftest",
        action="store_true",
        help="run the engine selftests and each selected "
        "rule's embedded synthetic-violation fixtures before "
        "scanning the tree",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="fail (exit 1) on stale suppressions — allow() "
        "markers that no longer silence any finding",
    )
    parser.add_argument(
        "--sarif",
        default=None,
        metavar="FILE",
        help="also write the report as SARIF 2.1.0 to FILE (for "
        "GitHub code scanning)",
    )
    parser.add_argument(
        "--check-inventory",
        default=None,
        metavar="FILE",
        help="compare the registered rule names against the pinned "
        "list in FILE (one name per line) and exit non-zero on "
        "drift",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    args = parser.parse_args(argv)

    rules = default_rules()
    inventory = [r.name for r in rules]

    if args.check_inventory:
        pinned = [
            line.strip()
            for line in pathlib.Path(args.check_inventory)
            .read_text(encoding="utf-8")
            .splitlines()
            if line.strip() and not line.lstrip().startswith("#")
        ]
        if sorted(pinned) != sorted(inventory):
            missing = sorted(set(pinned) - set(inventory))
            extra = sorted(set(inventory) - set(pinned))
            sys.stderr.write(
                f"pcon-lint: rule inventory drift — pinned list "
                f"{args.check_inventory} disagrees with the "
                f"registered rules.\n"
                f"  pinned but not registered: "
                f"{', '.join(missing) or '(none)'}\n"
                f"  registered but not pinned: "
                f"{', '.join(extra) or '(none)'}\n"
                f"Update the pin (or register the module in "
                f"default_rules).\n"
            )
            return 1
        sys.stderr.write(
            f"pcon-lint: rule inventory matches "
            f"({len(inventory)} rules)\n"
        )
        return 0
    if args.rules != "all":
        wanted = {r.strip() for r in args.rules.split(",")}
        known = {r.name for r in rules}
        unknown = wanted - known
        if unknown:
            parser.error(
                f"unknown rule(s): {', '.join(sorted(unknown))} "
                f"(known: {', '.join(sorted(known))})"
            )
        rules = [r for r in rules if r.name in wanted]

    if args.list_rules:
        for rule in rules:
            print(f"{rule.name:24s} {rule.description}")
        return 0

    if args.selftest:
        failures = engine_selftest() + sarif_selftest()
        for rule in rules:
            failures.extend(rule.selftest())
        if failures:
            for failure in failures:
                sys.stderr.write(f"selftest FAILED: {failure}\n")
            return 1
        sys.stderr.write(
            f"selftest passed for: engine, "
            f"{', '.join(r.name for r in rules)}\n"
        )

    scopes = sorted({s for r in rules for s in r.scope})
    try:
        project = Project.load(args.root, scopes)
    except FileNotFoundError as err:
        sys.stderr.write(f"pcon-lint: {err}\n")
        return 2

    findings, suppressions, stale = run_rules_with_stale(
        project, rules, known_rule_names=inventory
    )
    report_human(rules, project, findings, suppressions,
                 stale=stale, strict=args.strict)
    if args.sarif:
        write_sarif(args.sarif, rules, project, findings,
                    suppressions, stale, args.strict)
    return 1 if findings or (args.strict and stale) else 0


if __name__ == "__main__":
    sys.exit(main())
