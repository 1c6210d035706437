"""Unordered-iteration rule: hash order must not reach the output.

``std::unordered_map``/``set`` iteration order depends on the hash
function, the bucket count history, and (for pointer keys) heap
addresses — none of which a byte-identical golden can pin. A
range-for over an unordered container is fine while the loop only
*aggregates* (sums, maxima, membership — order-independent over
integers), but becomes a reproducibility bug the moment the body
writes to anything observable: ledgers, the event queue, the
journal, exporters, streams, or any recorded sequence.

This rule finds every range-for over a variable declared anywhere in
the tree as an unordered container and flags it when the loop body
contains an observable-write pattern (``journal``/``ledger``/
``record``/``emit``/``enqueue``/``post``/``write``/``export``/
``log``/``<<``). Building a *local* collection (``push_back``/
``insert``) is deliberately not observable — that is the first half
of the sanctioned sorted-copy idiom (collect, sort, then emit). The
fix is a sorted copy (dense ids exist precisely so sorting is cheap)
or a justified ``allow(unordered-iteration)`` explaining why the
order provably cannot reach any output.

This generalizes the determinism rule's ``unordered-iter`` hazard
(which flags *any* core-scope iteration, body-blind) to the whole
tree with body sensitivity; inside the deterministic core both still
apply, and one combined ``allow(determinism, unordered-iteration)``
satisfies them.
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
OBSERVABLE_RE = re.compile(
    r"(?:\b(?:journal|ledger|record|emit|enqueue|"
    r"post|write|export|log)\w*\s*\()|<<"
)

#: How many lines of loop body to scan past the ``for`` line before
#: giving up on finding the matching close brace (defensive bound;
#: loops in this codebase are short).
BODY_SCAN_LIMIT = 80


def loop_body(blanked_lines, idx):
    """The loop body text for a range-for starting on line ``idx``
    (0-based): from its opening brace to the matching close, or the
    single statement when braceless."""
    depth = 0
    seen_open = False
    out = []
    for off in range(BODY_SCAN_LIMIT):
        at = idx + off
        if at >= len(blanked_lines):
            break
        line = blanked_lines[at]
        if off > 0:
            out.append(line)
        for c in line:
            if c == "{":
                depth += 1
                seen_open = True
            elif c == "}":
                depth -= 1
        if seen_open and depth <= 0:
            break
        if not seen_open and off > 0 and ";" in line:
            break  # braceless loop: first statement ends it
    return "\n".join(out)


class UnorderedIterationRule(Rule):
    name = "unordered-iteration"
    description = (
        "range-for over an unordered container whose body writes to "
        "observable state needs a sorted copy"
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
                    if m.group(1) not in unordered_names:
                        continue
                    body = loop_body(source.blanked_lines, idx)
                    if OBSERVABLE_RE.search(body):
                        findings.append(
                            Finding(
                                self.name,
                                source.rel,
                                idx + 1,
                                f"iterating unordered container "
                                f"'{m.group(1)}' with observable "
                                f"writes in the body; hash order "
                                f"reaches the output — iterate a "
                                f"sorted copy",
                            )
                        )
        return findings

    def selftest(self):
        errors = []
        rule = UnorderedIterationRule()
        project = rule.project_from_texts(
            {
                "src/core/ledger.cc": (
                    "std::unordered_map<int, long> by_id;\n"
                    "void flush(Journal &j) {\n"
                    "    for (auto &e : by_id) {\n"
                    "        j.record(e.first, e.second);\n"
                    "    }\n"
                    "}\n"
                    "long total() {\n"
                    "    long sum = 0;\n"
                    "    for (auto &e : by_id) {\n"
                    "        sum += e.second;\n"
                    "    }\n"
                    "    return sum;\n"
                    "}\n"
                    "void drain(Journal &j) {\n"
                    "    std::vector<int> ids;\n"
                    "    for (auto &e : by_id) {\n"
                    "        ids.push_back(e.first);\n"
                    "    }\n"
                    "    std::sort(ids.begin(), ids.end());\n"
                    "    for (int id : ids) {\n"
                    "        j.record(id, by_id.at(id));\n"
                    "    }\n"
                    "}\n"
                ),
            }
        )
        from engine import run_rules_with_stale

        kept, _, _ = run_rules_with_stale(project, [rule])
        got = [(f.path, f.line) for f in kept]
        if got != [("src/core/ledger.cc", 3)]:
            errors.append(
                f"unordered-iteration selftest: expected exactly "
                f"the journal-writing loop at line 3, got {got} "
                f"(aggregation loops and the collect-sort-emit "
                f"idiom must stay quiet)"
            )
        return errors
