"""Determinism rule: the deterministic core must be reproducible.

Folded into pcon-lint from the original tools/lint_determinism.py
(whose CLI is preserved as a thin shim). Simulation results must be
bit-identical across runs and platforms; this rule scans the
deterministic core for reproducibility hazards:

  wall-clock       time(), clock(), gettimeofday(), std::chrono
                   system/steady/high_resolution clocks.
  ambient-rng      std::random_device, rand()/srand()/random(),
                   drand48(), std::mt19937 & friends.
  unordered-iter   range-for over a std::unordered_{map,set} member
                   declared in the scanned tree.
  ptr-keyed-order  std::{map,set} keyed by a raw pointer type.
  metric-name      registry counter()/gauge()/histogram() names must
                   match the grammar [a-z0-9_.]+.

Suppress with the legacy ``// NOLINT-DETERMINISM(reason)`` (reason
mandatory) on the line or the line above, or with the framework-wide
``// pcon-lint: allow(determinism)``.
"""

import re

from engine import Finding, Rule

CORE_SCOPE = (
    "src/sim",
    "src/core",
    "src/hw",
    "src/obs",
    "src/telemetry",
    "src/trace",
)

LEGACY_SUPPRESS_RE = re.compile(r"NOLINT-DETERMINISM\(([^)]+)\)")

PATTERN_HAZARDS = [
    (
        "wall-clock",
        re.compile(
            r"(?<![\w:.])(?:time|clock|gettimeofday|clock_gettime)"
            r"\s*\("
        ),
        "wall-clock call; use sim::Simulation::now() instead",
    ),
    (
        "wall-clock",
        re.compile(
            r"std\s*::\s*chrono\s*::\s*"
            r"(?:system_clock|steady_clock|high_resolution_clock)"
        ),
        "host clock; simulated components must use sim time",
    ),
    (
        "ambient-rng",
        re.compile(r"std\s*::\s*random_device"),
        "non-deterministic entropy source; seed a sim::Rng instead",
    ),
    (
        "ambient-rng",
        re.compile(
            r"(?<![\w:.])(?:rand|srand|random|drand48|lrand48)\s*\("
        ),
        "C library RNG with process-global state; use sim::Rng",
    ),
    (
        "ambient-rng",
        re.compile(
            r"std\s*::\s*(?:mt19937(?:_64)?|minstd_rand0?|"
            r"default_random_engine|ranlux\w+|knuth_b)"
        ),
        "standard-library engine; distributions differ across "
        "implementations, use sim::Rng",
    ),
    (
        "ptr-keyed-order",
        re.compile(r"std\s*::\s*(?:map|set)\s*<[^,>]*\*\s*[,>]"),
        "ordered container keyed by pointer value; iteration order "
        "depends on allocation addresses",
    ),
]

DECL_RE = re.compile(
    r"std\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<"
    r"[^;{}()]*>(?:\s*&)?\s+(\w+)\s*[;{=]"
)
RANGE_FOR_RE = re.compile(
    r"for\s*\([^;)]*:\s*\*?\s*([A-Za-z_]\w*)\s*\)"
)

METRIC_CALL_RE = re.compile(
    r"(?<![\w:])(?:counter|gauge|histogram)\s*\("
)
METRIC_NAME_RE = re.compile(r"[a-z0-9_.]+")


def metric_name_findings(raw_line, blanked_line):
    """Metric-grammar violations on one line (hazard, message)."""
    bad = []
    for match in METRIC_CALL_RE.finditer(blanked_line):
        at = match.end()
        while at < len(raw_line) and raw_line[at].isspace():
            at += 1
        if at >= len(raw_line) or raw_line[at] != '"':
            continue  # non-literal name: not statically checkable
        end = raw_line.find('"', at + 1)
        if end < 0:
            continue
        name = raw_line[at + 1 : end]
        if not METRIC_NAME_RE.fullmatch(name):
            bad.append(
                (
                    "metric-name",
                    f"metric name '{name}' violates the grammar "
                    f"[a-z0-9_.]+",
                )
            )
    return bad


class DeterminismRule(Rule):
    name = "determinism"
    description = (
        "no wall-clock, ambient RNG, or hash-order dependence in "
        "the deterministic core; metric names follow [a-z0-9_.]+"
    )
    scope = CORE_SCOPE

    def __init__(self, scope=None, metric_names_only=False):
        if scope is not None:
            self.scope = tuple(scope)
        self.metric_names_only = metric_names_only

    def run(self, project):
        files = project.files_under(self.scope)
        unordered_names = set()
        for source in files:
            for m in DECL_RE.finditer(source.blanked):
                unordered_names.add(m.group(1))

        findings = []
        for source in files:
            for idx, line in enumerate(source.blanked_lines):
                hits = []
                if not self.metric_names_only:
                    for hazard, regex, why in PATTERN_HAZARDS:
                        if regex.search(line):
                            hits.append((hazard, why))
                    for m in RANGE_FOR_RE.finditer(line):
                        if m.group(1) in unordered_names:
                            hits.append(
                                (
                                    "unordered-iter",
                                    f"range-for over unordered "
                                    f"container '{m.group(1)}'; "
                                    f"hash order is not "
                                    f"reproducible",
                                )
                            )
                if idx < len(source.raw_lines):
                    hits.extend(
                        metric_name_findings(
                            source.raw_lines[idx], line
                        )
                    )
                for hazard, why in hits:
                    findings.append(
                        Finding(
                            self.name,
                            source.rel,
                            idx + 1,
                            f"[{hazard}] {why}",
                        )
                    )
        return findings

    def suppression_at(self, source, idx):
        """Accept the legacy NOLINT-DETERMINISM(reason) marker in
        addition to the framework-wide allow(determinism)."""
        for look in (idx, idx - 1):
            if 0 <= look < len(source.raw_lines):
                m = LEGACY_SUPPRESS_RE.search(source.raw_lines[look])
                if m:
                    return m.group(1).strip(), look
        return super().suppression_at(source, idx)

    def suppression_markers(self, source):
        """Legacy NOLINT-DETERMINISM markers are also subject to
        stale detection, so retired exemptions cannot linger."""
        out = set(super().suppression_markers(source))
        for idx, line in enumerate(source.raw_lines):
            if LEGACY_SUPPRESS_RE.search(line):
                out.add(idx)
        return sorted(out)

    def selftest(self):
        errors = []
        rule = DeterminismRule()
        project = rule.project_from_texts(
            {
                "src/sim/clock.cc": (
                    "#include <chrono>\n"
                    "auto t = std::chrono::steady_clock::now();\n"
                    "int r = rand();\n"
                    "// NOLINT-DETERMINISM(test fixture)\n"
                    "int s = rand();\n"
                ),
                "src/core/metrics.cc": (
                    'reg.counter("Bad Name");\n'
                    'reg.counter("good.name");\n'
                ),
                "src/core/stale.cc": (
                    "// NOLINT-DETERMINISM(no longer needed)\n"
                    "int fine = 0;\n"
                ),
            }
        )
        from engine import run_rules_with_stale

        kept, _, stale = run_rules_with_stale(project, [rule])
        got = sorted((f.path, f.line) for f in kept)
        want = [
            ("src/core/metrics.cc", 1),
            ("src/sim/clock.cc", 2),
            ("src/sim/clock.cc", 3),
        ]
        if got != want:
            errors.append(
                f"determinism selftest: expected findings at "
                f"{want}, got {[f.render() for f in kept]}"
            )
        got_stale = [(s.path, s.line) for s in stale]
        if got_stale != [("src/core/stale.cc", 1)]:
            errors.append(
                f"determinism selftest: expected one stale legacy "
                f"suppression at src/core/stale.cc:1, got "
                f"{got_stale}"
            )
        return errors
