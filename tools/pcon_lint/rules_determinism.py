"""Determinism rule: no ambient randomness, stable metric names.

Simulation results must be bit-identical across runs and platforms.
Host clocks, unordered iteration and pointer-keyed order each have a
rule of their own (``wall-clock``, ``unordered-iteration``,
``pointer-order``); this rule checks the two hazards none of them
covers:

  ambient-rng   std::random_device, rand()/srand()/random(),
                drand48(), std::mt19937 & friends, anywhere in src/.
  metric-name   registry counter()/gauge()/histogram() names must
                match the grammar [a-z0-9_.]+ wherever instruments
                are registered: src/, tests/, examples/ and bench/.

Suppress with ``// pcon-lint: allow(determinism) <reason>`` on the
line or the line above; the reason is mandatory.
"""

import re

from engine import Finding, Rule

RNG_HAZARDS = [
    (
        re.compile(r"std\s*::\s*random_device"),
        "non-deterministic entropy source; seed a sim::Rng instead",
    ),
    (
        re.compile(
            r"(?<![\w:.])(?:rand|srand|random|drand48|lrand48)\s*\("
        ),
        "C library RNG with process-global state; use sim::Rng",
    ),
    (
        re.compile(
            r"std\s*::\s*(?:mt19937(?:_64)?|minstd_rand0?|"
            r"default_random_engine|ranlux\w+|knuth_b)"
        ),
        "standard-library engine; distributions differ across "
        "implementations, use sim::Rng",
    ),
]

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
        "no ambient RNG in src/; metric names follow [a-z0-9_.]+ "
        "wherever instruments are registered"
    )
    scope = ("src", "tests", "examples", "bench")
    require_justification = True

    def run(self, project):
        findings = []
        for source in project.files_under(self.scope):
            in_src = source.rel.startswith("src/")
            for idx, line in enumerate(source.blanked_lines):
                hits = []
                if in_src:
                    for regex, why in RNG_HAZARDS:
                        if regex.search(line):
                            hits.append(("ambient-rng", why))
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

    def selftest(self):
        errors = []
        rule = DeterminismRule()
        project = rule.project_from_texts(
            {
                "src/sim/clock.cc": (
                    "#include <chrono>\n"
                    "auto t = std::chrono::steady_clock::now();\n"
                    "int r = rand();\n"
                    "// pcon-lint: allow(determinism) test fixture\n"
                    "int s = rand();\n"
                    "double u = rng.uniform();\n"
                ),
                # Ambient RNG is checked in every directory of src/.
                "src/os/seed.cc": (
                    "std::random_device entropy;\n"
                    "std::mt19937 engine(42);\n"
                ),
                "src/core/metrics.cc": (
                    'reg.counter("Bad Name");\n'
                    'reg.counter("good.name");\n'
                ),
                # Ambient RNG is src/'s hazard; names are checked
                # wherever instruments are registered.
                "tests/telemetry/registry_test.cc": (
                    "std::mt19937 gen(1);\n"
                    'r.gauge("Bad Name");\n'
                    "// pcon-lint: allow(determinism) name under "
                    "test\n"
                    'r.counter("BadName");\n'
                ),
                "bench/bench_fig.cc": 'reg.counter("Bad Name");\n',
                "examples/demo.cc": 'reg.histogram("demo-ms");\n',
                "src/core/stale.cc": (
                    "// pcon-lint: allow(determinism) no longer "
                    "needed\n"
                    "int fine = 0;\n"
                ),
            }
        )
        from engine import run_rules_with_stale

        kept, sups, stale = run_rules_with_stale(project, [rule])
        got = sorted((f.path, f.line) for f in kept)
        want = [
            ("bench/bench_fig.cc", 1),
            ("examples/demo.cc", 1),
            ("src/core/metrics.cc", 1),
            ("src/os/seed.cc", 1),
            ("src/os/seed.cc", 2),
            ("src/sim/clock.cc", 3),
            ("tests/telemetry/registry_test.cc", 2),
        ]
        if got != want:
            errors.append(
                f"determinism selftest: expected findings at "
                f"{want}, got {[f.render() for f in kept]} (host "
                f"clocks are wall-clock's, and RNG outside src/ "
                f"stays quiet)"
            )
        if len(sups) != 2:
            errors.append(
                f"determinism selftest: expected the two allow() "
                f"markers to suppress, got {len(sups)}"
            )
        got_stale = [(s.path, s.line) for s in stale]
        if got_stale != [("src/core/stale.cc", 1)]:
            errors.append(
                f"determinism selftest: expected one stale "
                f"suppression at src/core/stale.cc:1, got "
                f"{got_stale}"
            )
        return errors
