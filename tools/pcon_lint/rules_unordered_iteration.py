"""Unordered-iteration rule: hash order must not reach the output.

``std::unordered_map``/``set`` iteration order depends on the hash
function, the bucket count history, and (for pointer keys) heap
addresses — none of which a byte-identical golden can pin. This rule
flags every range-for in ``src/``, ``bench/`` and ``examples/`` over
a variable declared there as an unordered container, or over a call
to an accessor that ``src/`` declares as returning one (such as
``manager.live()``), whatever the loop body does: whether a body's
effects can reach an output is not something a line pattern can
decide. The fix is the collect-sort-emit idiom
(dense ids exist precisely so sorting is cheap), or a justified
``allow(unordered-iteration)`` saying why the order provably cannot
reach any output (a pure count, a copy sorted before it escapes).
"""

import re

from engine import Finding, Rule

DECL_RE = re.compile(
    r"std\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<"
    r"[^;{}()]*>(?:\s*&)?\s+(\w+)\s*[;{=]"
)
ACCESSOR_RE = re.compile(
    r"std\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<"
    r"[^;{}()]*>\s*&?\s*(\w+)\s*\("
)
RANGE_FOR_RE = re.compile(
    r"for\s*\([^;)]*:\s*\*?\s*([A-Za-z_]\w*)\s*\)"
)
CALL_FOR_RE = re.compile(
    r"for\s*\([^;)]*:\s*[\w.>\-]*?\b([A-Za-z_]\w*)\s*\(\s*\)\s*\)"
)


class UnorderedIterationRule(Rule):
    name = "unordered-iteration"
    description = (
        "no range-for over an unordered container, or over an "
        "accessor returning one, without a sorted copy or a "
        "justified allow()"
    )
    scope = ("src", "bench", "examples")
    require_justification = True

    def run(self, project):
        files = project.files_under(self.scope)
        unordered_names = set()
        for source in files:
            for m in DECL_RE.finditer(source.blanked):
                unordered_names.add(m.group(1))
        accessors = set()
        for source in project.files_under(("src",)):
            for m in ACCESSOR_RE.finditer(source.blanked):
                accessors.add(m.group(1))

        walks = (
            (RANGE_FOR_RE, unordered_names, "unordered container '{}'"),
            (CALL_FOR_RE, accessors, "'{}()', which returns an "
             "unordered container"),
        )
        findings = []
        for source in files:
            for idx, line in enumerate(source.blanked_lines):
                for regex, names, what in walks:
                    for m in regex.finditer(line):
                        if m.group(1) in names:
                            findings.append(
                                Finding(
                                    self.name,
                                    source.rel,
                                    idx + 1,
                                    f"range-for over "
                                    f"{what.format(m.group(1))}; hash "
                                    f"order is not reproducible — "
                                    f"iterate a sorted copy",
                                )
                            )
        return findings

    def selftest(self):
        errors = []
        rule = UnorderedIterationRule()
        project = rule.project_from_texts(
            {
                "src/core/ledger.h": (
                    "std::unordered_map<int, long> by_id;\n"
                    "class Ledger {\n"
                    "  public:\n"
                    "    const std::unordered_map<int,\n"
                    "                             long> &\n"
                    "    entries() const;\n"
                    "    std::vector<int> ids() const;\n"
                    "};\n"
                ),
                "bench/report.cc": (
                    "void report(const Ledger &ledger, Journal &j) {\n"
                    "    for (const auto &[id, e] : ledger.entries())\n"
                    "        j.record(id, e);\n"
                    "    for (int id : ledger.ids())\n"
                    "        j.record(id, 0);\n"
                    "}\n"
                ),
                "src/core/ledger.cc": (
                    "void flush(Journal &j) {\n"
                    "    for (auto &e : by_id) {\n"
                    "        j.record(e.first, e.second);\n"
                    "    }\n"
                    "}\n"
                    "long total() {\n"
                    "    long sum = 0;\n"
                    "    for (auto &e : by_id)\n"
                    "        sum += e.second;\n"
                    "    return sum;\n"
                    "}\n"
                    "void drain(Journal &j) {\n"
                    "    std::vector<int> ids;\n"
                    "    // pcon-lint: allow(unordered-iteration) "
                    "sorted before use\n"
                    "    for (auto &e : by_id)\n"
                    "        ids.push_back(e.first);\n"
                    "    std::sort(ids.begin(), ids.end());\n"
                    "    for (int id : ids) {\n"
                    "        j.record(id, by_id.at(id));\n"
                    "    }\n"
                    "}\n"
                ),
            }
        )
        from engine import run_rules_with_stale

        kept, sups, _ = run_rules_with_stale(project, [rule])
        got = [(f.path, f.line) for f in kept]
        want = [
            ("bench/report.cc", 2),
            ("src/core/ledger.cc", 2),
            ("src/core/ledger.cc", 8),
        ]
        if got != want:
            errors.append(
                f"unordered-iteration selftest: expected the loop "
                f"over the unordered accessor and the journal-writing "
                f"and summing loops, {want}, got {got} (the rule is "
                f"body-blind; the loops over the sorted vector and "
                f"the vector accessor stay quiet)"
            )
        if [(s.path, s.line) for s in sups] != [
            ("src/core/ledger.cc", 15)
        ]:
            errors.append(
                "unordered-iteration selftest: justified allow() "
                "on the collect loop not honoured"
            )
        return errors
