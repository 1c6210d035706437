"""Bench-timing rule: no raw clocks under bench/.

The figure and table drivers under bench/ print simulated results;
they must not measure host time themselves. Raw ``std::chrono``
clocks, ``clock_gettime``/``gettimeofday``/``time()``/``clock()``, or
rdtsc-style cycle counters anywhere under bench/ produce ad-hoc
numbers with no warmup, repetition or statistics. Micro-benchmarks
time through Google Benchmark's ``benchmark::State`` loop
(bench/bench_sec35_overhead.cc); end-to-end and per-layer host time
is perfbench's job (BENCHMARK.json).

A driver with a genuine reason to touch a clock (e.g. documenting a
host-API cost) takes ``// pcon-lint: allow(bench-timing)`` with the
usual placement rules.
"""

import re

from engine import Finding, Rule

PATTERNS = [
    (
        re.compile(r"std\s*::\s*chrono"),
        "raw std::chrono in a benchmark driver; time a "
        "micro-benchmark in a Google Benchmark benchmark::State "
        "loop, or a whole run with perfbench",
    ),
    (
        re.compile(
            r"(?<![\w:.])(?:clock_gettime|gettimeofday|time|clock)"
            r"\s*\("
        ),
        "C clock call in a benchmark driver; use a Google "
        "Benchmark benchmark::State loop or perfbench instead",
    ),
    (
        re.compile(
            r"(?<![\w:.])(?:__rdtsc|_rdtsc|rdtsc|"
            r"__builtin_readcyclecounter)\s*\("
        ),
        "raw cycle counter in a benchmark driver; use a Google "
        "Benchmark benchmark::State loop or perfbench instead",
    ),
]


class BenchTimingRule(Rule):
    name = "bench-timing"
    description = (
        "no raw clocks under bench/: micro-benchmarks time "
        "through Google Benchmark, whole runs through perfbench"
    )
    scope = ("bench",)

    def run(self, project):
        findings = []
        for source in project.files_under(self.scope):
            for idx, line in enumerate(source.blanked_lines):
                for regex, why in PATTERNS:
                    if regex.search(line):
                        findings.append(
                            Finding(
                                self.name,
                                source.rel,
                                idx + 1,
                                why,
                            )
                        )
        return findings

    def selftest(self):
        errors = []
        rule = BenchTimingRule()
        project = rule.project_from_texts(
            {
                "bench/bench_bad.cc": (
                    "#include <chrono>\n"
                    "auto t0 = std::chrono::steady_clock::now();\n"
                    "struct timespec ts;\n"
                    "clock_gettime(CLOCK_MONOTONIC, &ts);\n"
                    "std::uint64_t c = __rdtsc();\n"
                    "double runtime = simulated_time(x);\n"
                    "// pcon-lint: allow(bench-timing) host API cost\n"
                    "std::uint64_t ok = __rdtsc();\n"
                ),
                # A timing harness of its own gets no exemption.
                "bench/harness.cc": (
                    "auto t = std::chrono::steady_clock::now();\n"
                ),
                "src/telemetry/overhead.cc": (
                    "auto t = std::chrono::steady_clock::now();\n"
                ),
            }
        )
        from engine import split_suppressed

        kept, suppressed = split_suppressed(
            rule, project, rule.run(project)
        )
        got = sorted((f.path, f.line) for f in kept)
        want = [
            ("bench/bench_bad.cc", 2),
            ("bench/bench_bad.cc", 4),
            ("bench/bench_bad.cc", 5),
            ("bench/harness.cc", 1),
        ]
        if got != want:
            errors.append(
                f"bench-timing selftest: expected findings at "
                f"{want}, got {[f.render() for f in kept]}"
            )
        if [(s.path, s.line) for s in suppressed] != [
            ("bench/bench_bad.cc", 8)
        ]:
            errors.append(
                f"bench-timing selftest: expected the allow() "
                f"marker to suppress line 8, got "
                f"{[(s.path, s.line) for s in suppressed]}"
            )
        return errors
