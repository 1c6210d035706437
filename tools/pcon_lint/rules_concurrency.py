"""Concurrency-primitives rule: the single-threaded contract.

The simulator runs the whole cluster as one deterministic event
stream on the thread that constructed its ``sim::Simulation``
(DESIGN.md §2b), so nothing in ``src/`` may name a thread, lock,
atomic or ``volatile``: each would be a second thread's machinery
with no second thread to serve, or a sign that one is being added.
Tests and benches may use raw primitives (the owner-thread test
starts a ``std::thread`` on purpose).

The run-time half of the contract is ``Simulation``'s owner-thread
check, which names ``std::thread::id`` under the rule's one
``// pcon-lint: allow(concurrency-primitives) <reason>``. A marker
suppresses only with its reason text; put it on the line or the line
above.
"""

import re

from engine import Finding, Rule

#: Why every banned primitive is out of place in src/.
CONTRACT = "the simulator is single-threaded by contract (DESIGN.md §2b)"

BANNED = [
    (
        re.compile(
            r"std\s*::\s*(?:recursive_|timed_|recursive_timed_|"
            r"shared_timed_|shared_)?mutex\b"
        ),
        f"std mutex in src/; {CONTRACT}, so there is nothing to lock",
    ),
    (
        re.compile(
            r"std\s*::\s*(?:lock_guard|unique_lock|scoped_lock|"
            r"shared_lock)\b"
        ),
        f"std lock guard in src/; {CONTRACT}, so there is nothing "
        "to lock",
    ),
    (
        re.compile(r"std\s*::\s*(?:jthread|thread)\b"),
        f"std::thread in src/; {CONTRACT}: components stay passive "
        "and the Simulation's thread drives them",
    ),
    (
        re.compile(r"std\s*::\s*(?:atomic\b|atomic_flag\b|atomic_)"),
        f"std::atomic in src/; {CONTRACT}, so a plain value suffices",
    ),
    (
        re.compile(r"std\s*::\s*condition_variable\b"),
        f"condition variable in src/; {CONTRACT}, so no thread "
        "waits on another",
    ),
    (
        re.compile(r"(?<![\w:])volatile\b"),
        f"volatile in src/; {CONTRACT}, and volatile never "
        "synchronizes anyway",
    ),
]


class ConcurrencyPrimitivesRule(Rule):
    name = "concurrency-primitives"
    description = (
        "no std::mutex/std::thread/std::atomic/volatile in src/: "
        "the simulator is single-threaded by contract"
    )
    scope = ("src",)
    require_justification = True

    def run(self, project):
        findings = []
        for source in project.files_under(self.scope):
            for idx, line in enumerate(source.blanked_lines):
                for regex, why in BANNED:
                    if regex.search(line):
                        findings.append(
                            Finding(
                                self.name, source.rel, idx + 1, why
                            )
                        )
        return findings

    def selftest(self):
        errors = []
        rule = ConcurrencyPrimitivesRule()
        project = rule.project_from_texts(
            {
                "src/core/bad.cc": (
                    "#include <mutex>\n"
                    "std::mutex m;\n"
                    "std::lock_guard<std::mutex> g(m);\n"
                    "std::atomic<int> n{0};\n"
                    "volatile int flag = 0;\n"
                    "std::thread worker;\n"
                ),
                "src/core/suppressed.cc": (
                    "// pcon-lint: allow(concurrency-primitives) why\n"
                    "std::atomic_flag once;\n"
                ),
                "src/core/bare.cc": (
                    "// pcon-lint: allow(concurrency-primitives)\n"
                    "std::atomic_flag once;\n"
                ),
                "src/core/clean.cc": (
                    "#include <thread>\n"
                    "bool mine = std::this_thread::get_id() == id;\n"
                    "// a comment saying std::mutex is fine here\n"
                    'const char *s = "std::thread in a string";\n'
                ),
            }
        )
        from engine import run_rules_with_stale

        kept, suppressed, stale = run_rules_with_stale(
            project, [rule]
        )
        bad = [f for f in kept if f.path == "src/core/bad.cc"]
        # line 3 carries two hits (lock_guard + the mutex type arg)
        if sorted({f.line for f in bad}) != [2, 3, 4, 5, 6]:
            errors.append(
                f"concurrency selftest: expected hits on bad.cc "
                f"lines 2-6, got {[f.render() for f in bad]}"
            )
        expected = {"src/core/bad.cc", "src/core/bare.cc"}
        if {f.path for f in kept} != expected:
            errors.append(
                f"concurrency selftest: expected findings only in "
                f"bad.cc and bare.cc (an allow() without a reason "
                f"does not suppress), got "
                f"{[f.render() for f in kept]}"
            )
        if [s.path for s in suppressed] != ["src/core/suppressed.cc"]:
            errors.append(
                "concurrency selftest: justified allow() comment did "
                "not suppress"
            )
        if [s.path for s in stale] != ["src/core/bare.cc"]:
            errors.append(
                f"concurrency selftest: expected the bare allow() in "
                f"bare.cc as the one stale marker, got "
                f"{[s.render() for s in stale]}"
            )
        return errors
