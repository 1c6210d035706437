"""Wall-clock rule: no host clock in src/ or bench/.

All of ``src/`` takes time from the simulation clock
(``sim::Simulation::now()``), never from the host. A host timestamp
there is either a latent determinism bug (it differs from run to run)
or a self-measurement that belongs in the kernel's hook timer
(``os::Kernel::timeHooks``).
The figure and table drivers under ``bench/`` print simulated results
and take no host time themselves: micro-benchmarks time through
Google Benchmark's ``benchmark::State`` loop
(bench/bench_sec35_overhead.cc), and end-to-end and per-layer host
time is perfbench's job (BENCHMARK.json).

Flags any ``std::chrono`` use, the C clock family (``time``/``clock``
/``gettimeofday``/``clock_gettime``/``timespec_get``), and cycle
counters (``__rdtsc``/``__rdtscp``/``_mm_rdtsc``/``rdtsc``/
``__builtin_readcyclecounter``). The sanctioned exception, the
kernel's hook timer, carries justified ``allow(wall-clock)`` markers;
a bare allow does not suppress.
"""

import re

from engine import Finding, Rule

HINT = (
    "simulated time comes from sim::Simulation::now(), host time "
    "from a Google Benchmark benchmark::State loop or perfbench"
)

PATTERNS = [
    (re.compile(r"std\s*::\s*chrono\b"), "host std::chrono; " + HINT),
    (
        re.compile(
            r"(?<![\w:.])(?:time|clock|gettimeofday|clock_gettime|"
            r"timespec_get)\s*\("
        ),
        "C clock call; " + HINT,
    ),
    (
        re.compile(
            r"(?<!\w)(?:__rdtscp?|_mm_rdtsc|_rdtsc|rdtsc|"
            r"__builtin_readcyclecounter)\s*\("
        ),
        "cycle-counter read; " + HINT,
    ),
]


class WallClockRule(Rule):
    name = "wall-clock"
    description = (
        "src/ and bench/ take no host time: sim clock in src/, "
        "Google Benchmark or perfbench for host timing"
    )
    scope = ("src", "bench")
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
                    "auto k = __builtin_readcyclecounter();\n"
                ),
                "src/sim/clock.cc": (
                    "#include <chrono>\n"
                    "auto t = std::chrono::steady_clock::now();\n"
                ),
                "src/os/kernel.cc": (
                    "// pcon-lint: allow(wall-clock) hook timer "
                    "self-measures the host time of hook sets\n"
                    "auto t = std::chrono::steady_clock::now();\n"
                ),
                "src/util/fmt.cc": (
                    "// pcon-lint: allow(wall-clock)\n"
                    "clock_t c = clock();\n"
                ),
                "bench/bench_bad.cc": (
                    "#include <chrono>\n"
                    "auto t0 = std::chrono::steady_clock::now();\n"
                    "struct timespec ts;\n"
                    "clock_gettime(CLOCK_MONOTONIC, &ts);\n"
                    "std::uint64_t c = __rdtsc();\n"
                    "double runtime = simulated_time(x);\n"
                    "// pcon-lint: allow(wall-clock) host API cost\n"
                    "std::uint64_t ok = __rdtsc();\n"
                    "auto d = std::chrono::duration<double>(x);\n"
                ),
                # A timing harness of its own gets no exemption.
                "bench/harness.cc": (
                    "auto t = std::chrono::steady_clock::now();\n"
                ),
            }
        )
        from engine import run_rules_with_stale

        kept, sups, stale = run_rules_with_stale(project, [rule])
        got = sorted((f.path, f.line) for f in kept)
        want = [
            ("bench/bench_bad.cc", 2),
            ("bench/bench_bad.cc", 4),
            ("bench/bench_bad.cc", 5),
            ("bench/bench_bad.cc", 9),
            ("bench/harness.cc", 1),
            ("src/os/sched.cc", 1),
            ("src/os/sched.cc", 3),
            ("src/os/sched.cc", 4),
            ("src/os/sched.cc", 6),
            ("src/sim/clock.cc", 2),
            ("src/util/fmt.cc", 2),  # bare allow must not suppress
        ]
        if got != want:
            errors.append(
                f"wall-clock selftest: expected findings at {want}, "
                f"got {got} (sim.now(), settle_time(), "
                f"simulated_time(), #include <chrono> and the "
                f"allowed lines must stay quiet)"
            )
        got_sups = sorted((s.path, s.line) for s in sups)
        if got_sups != [
            ("bench/bench_bad.cc", 8),
            ("src/os/kernel.cc", 2),
        ]:
            errors.append(
                f"wall-clock selftest: justified allow() markers "
                f"not honoured, got {got_sups}"
            )
        if [(s.path, s.line) for s in stale] != [
            ("src/util/fmt.cc", 1)
        ]:
            errors.append(
                "wall-clock selftest: bare allow() should be "
                "reported stale"
            )
        return errors
