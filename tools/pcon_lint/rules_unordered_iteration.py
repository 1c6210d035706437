"""Unordered-iteration rule: hash order must not reach the output.

``std::unordered_map``/``set`` iteration order depends on the hash
function, the bucket count history, and (for pointer keys) heap
addresses — none of which a byte-identical golden can pin. This rule
flags every range-for in ``src/`` over a variable declared in
``src/`` as an unordered container, whatever the loop body does:
whether a body's effects can reach an output is not something a
line pattern can decide. The fix is the collect-sort-emit idiom
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
RANGE_FOR_RE = re.compile(
    r"for\s*\([^;)]*:\s*\*?\s*([A-Za-z_]\w*)\s*\)"
)


class UnorderedIterationRule(Rule):
    name = "unordered-iteration"
    description = (
        "no range-for over an unordered container in src/ without "
        "a sorted copy or a justified allow()"
    )
    scope = ("src",)
    require_justification = True

    def run(self, project):
        files = project.files_under(self.scope)
        unordered_names = set()
        for source in files:
            for m in DECL_RE.finditer(source.blanked):
                unordered_names.add(m.group(1))

        findings = []
        for source in files:
            for idx, line in enumerate(source.blanked_lines):
                for m in RANGE_FOR_RE.finditer(line):
                    if m.group(1) in unordered_names:
                        findings.append(
                            Finding(
                                self.name,
                                source.rel,
                                idx + 1,
                                f"range-for over unordered container "
                                f"'{m.group(1)}'; hash order is not "
                                f"reproducible — iterate a sorted "
                                f"copy",
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
        want = [("src/core/ledger.cc", 2), ("src/core/ledger.cc", 8)]
        if got != want:
            errors.append(
                f"unordered-iteration selftest: expected the "
                f"journal-writing and the summing loop, {want}, got "
                f"{got} (the rule is body-blind; the loop over the "
                f"sorted vector stays quiet)"
            )
        if [(s.path, s.line) for s in sups] != [
            ("src/core/ledger.cc", 15)
        ]:
            errors.append(
                "unordered-iteration selftest: justified allow() "
                "on the collect loop not honoured"
            )
        return errors
