"""Wall-clock rule: every timestamp in src/ derives from sim time.

The bench-timing rule polices ``bench/``; the determinism rule
polices the deterministic core. This rule closes the gap: *all* of
``src/`` — including os/, util/, fault/, and workloads/ where the
determinism rule does not reach — must take time from the simulation
clock (``sim::Simulation::now()``), never from the host. A host
timestamp anywhere in src/ is either a latent determinism bug (it
differs from run to run) or a self-measurement that belongs in
``telemetry::OverheadProfiler``.

Flags ``std::chrono`` system/steady/high_resolution clocks, the C
clock family (``time``/``clock``/``gettimeofday``/``clock_gettime``
/``timespec_get``), and TSC intrinsics (``__rdtsc``/``__rdtscp``/
``_mm_rdtsc``).

The two sanctioned exceptions keep their existing markers: the
OverheadProfiler's self-measurement sites carry
``NOLINT-DETERMINISM(reason)``, which this rule honours exactly like
the determinism rule does (one marker satisfies both, and stale
detection still applies to it). Anything new needs a justified
``allow(wall-clock)`` — bare allows do not suppress.
"""

import re

from engine import Finding, Rule
from rules_determinism import LEGACY_SUPPRESS_RE

PATTERNS = [
    (
        re.compile(
            r"std\s*::\s*chrono\s*::\s*"
            r"(?:system_clock|steady_clock|high_resolution_clock)"
        ),
        "host chrono clock; derive timestamps from "
        "sim::Simulation::now()",
    ),
    (
        re.compile(
            r"(?<![\w:.])(?:time|clock|gettimeofday|clock_gettime|"
            r"timespec_get)\s*\("
        ),
        "C wall-clock call; derive timestamps from "
        "sim::Simulation::now()",
    ),
    (
        re.compile(r"(?<!\w)(?:__rdtscp?|_mm_rdtsc)\s*\("),
        "TSC read; cycle counters differ from run to run, use sim "
        "time (self-measurement belongs in "
        "telemetry::OverheadProfiler)",
    ),
]


class WallClockRule(Rule):
    name = "wall-clock"
    description = (
        "all of src/ takes time from the sim clock; host clocks "
        "only in bench/ and telemetry::OverheadProfiler"
    )
    scope = ("src",)
    require_justification = True

    def run(self, project):
        findings = []
        for source in project.files_under(self.scope):
            for idx, line in enumerate(source.blanked_lines):
                for regex, why in PATTERNS:
                    if regex.search(line):
                        findings.append(
                            Finding(
                                self.name, source.rel, idx + 1, why
                            )
                        )
        return findings

    def suppression_at(self, source, idx):
        """Honour the OverheadProfiler's existing
        NOLINT-DETERMINISM(reason) markers so one marker satisfies
        both this rule and the determinism rule."""
        for look in (idx, idx - 1):
            if 0 <= look < len(source.raw_lines):
                m = LEGACY_SUPPRESS_RE.search(source.raw_lines[look])
                if m:
                    return m.group(1).strip(), look
        return super().suppression_at(source, idx)

    def suppression_markers(self, source):
        """Track legacy markers for staleness only when they sit on
        a wall-clock pattern (or the line above one): elsewhere in
        src/ the same marker spelling suppresses *other* determinism
        hazards and is not this rule's to police."""
        out = set(super().suppression_markers(source))
        for idx, line in enumerate(source.raw_lines):
            if not LEGACY_SUPPRESS_RE.search(line):
                continue
            nearby = source.blanked_lines[idx : idx + 2]
            if any(
                regex.search(text)
                for text in nearby
                for regex, _ in PATTERNS
            ):
                out.add(idx)
        return sorted(out)

    def selftest(self):
        errors = []
        rule = WallClockRule()
        project = rule.project_from_texts(
            {
                "src/os/sched.cc": (
                    "auto t0 = std::chrono::steady_clock::now();\n"
                    "double when = sim.now();\n"
                    "time_t raw = time(nullptr);\n"
                    "uint64_t c = __rdtsc();\n"
                    "int timeout = settle_time(3);\n"
                ),
                "src/telemetry/overhead.cc": (
                    "// NOLINT-DETERMINISM(profiler self-measures "
                    "its own host-time overhead)\n"
                    "auto t = std::chrono::steady_clock::now();\n"
                ),
                "src/util/fmt.cc": (
                    "// pcon-lint: allow(wall-clock)\n"
                    "clock_t c = clock();\n"
                ),
            }
        )
        from engine import run_rules_with_stale

        kept, sups, stale = run_rules_with_stale(project, [rule])
        got = sorted((f.path, f.line) for f in kept)
        want = [
            ("src/os/sched.cc", 1),
            ("src/os/sched.cc", 3),
            ("src/os/sched.cc", 4),
            ("src/util/fmt.cc", 2),  # bare allow must not suppress
        ]
        if got != want:
            errors.append(
                f"wall-clock selftest: expected findings at {want}, "
                f"got {got} (sim.now(), settle_time() and the "
                f"legacy-marked profiler line must stay quiet)"
            )
        if len(sups) != 1 or "self-measures" not in sups[0].reason:
            errors.append(
                "wall-clock selftest: legacy NOLINT-DETERMINISM "
                "marker not honoured"
            )
        if [(s.path, s.line) for s in stale] != [
            ("src/util/fmt.cc", 1)
        ]:
            errors.append(
                "wall-clock selftest: bare allow() should be "
                "reported stale"
            )
        return errors
