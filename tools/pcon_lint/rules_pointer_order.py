"""Pointer-order rule: never order or hash by heap address.

Ordering anything by a raw pointer value ties the result to the
allocator's address choices — different across runs and platforms,
so byte-identical goldens would drift. The codebase
assigns dense integer ids to every simulated entity precisely so
code never needs address-based ordering. This rule flags the
patterns through which addresses leak into an observable order:

  * ``std::map``/``set`` (and multi- variants) keyed by a raw
    pointer — iteration order is the allocation order;
  * ``std::unordered_map``/``set`` keyed by a raw pointer — bucket
    placement (hence iteration order) hashes the address;
  * ``std::less<T*>`` / ``std::greater<T*>`` — an explicit
    address comparator;
  * ``std::hash<T*>`` — an explicit address hasher;
  * ``reinterpret_cast<uintptr_t>`` — laundering an address into an
    integer, almost always to compare or hash it.

A pointer anywhere in a key's first template argument counts, so a
composite key such as ``std::pair<Task *, int>`` is caught too.
Smart-pointer keys (``unique_ptr``/``shared_ptr``) compare by the
held address and are caught by the same ``*``-in-key patterns where
spelled with a raw pointer; a genuinely order-insensitive use (e.g.
an address key in a debug-only cache) takes a justified
``allow(pointer-order)``.
"""

import re

from engine import Finding, Rule

PATTERNS = [
    (
        re.compile(
            r"std\s*::\s*(?:map|set|multimap|multiset)\s*<"
            r"[^,>]*\*\s*[,>]"
        ),
        "ordered container keyed by raw pointer; iteration order "
        "is the allocator's, use dense ids",
    ),
    (
        re.compile(
            r"std\s*::\s*unordered_(?:map|set|multimap|multiset)"
            r"\s*<[^,>]*\*\s*[,>]"
        ),
        "unordered container keyed by raw pointer; bucket order "
        "hashes the address, use dense ids",
    ),
    (
        re.compile(r"std\s*::\s*(?:less|greater)\s*<[^<>]*\*\s*>"),
        "explicit pointer comparator; ordering by address is not "
        "reproducible",
    ),
    (
        re.compile(r"std\s*::\s*hash\s*<[^<>]*\*\s*>"),
        "explicit pointer hasher; hashing by address is not "
        "reproducible",
    ),
    (
        re.compile(
            r"reinterpret_cast\s*<\s*(?:std\s*::\s*)?uintptr_t\s*>"
        ),
        "address laundered into an integer; if this feeds any "
        "order or hash it is not reproducible",
    ),
]


class PointerOrderRule(Rule):
    name = "pointer-order"
    description = (
        "no ordering, sorting, or hashing by raw pointer value "
        "where output can observe it — dense ids exist for this"
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

    def selftest(self):
        errors = []
        rule = PointerOrderRule()
        project = rule.project_from_texts(
            {
                "src/core/index.cc": (
                    "std::map<Task *, int> order;\n"
                    "std::unordered_set<Segment *> live;\n"
                    "std::set<std::less<Node *>> cmp;\n"
                    "std::hash<Span *> h;\n"
                    "auto key = reinterpret_cast<uintptr_t>(p);\n"
                    "std::map<int, Task *> by_id;\n"
                    "std::unordered_map<std::string, int> names;\n"
                    "// pcon-lint: allow(pointer-order) debug-only "
                    "identity cache, never serialized\n"
                    "std::hash<Op *> debug_h;\n"
                    "std::map<std::pair<Task *, int>, int> by_pair;\n"
                    "std::unordered_map<std::pair<Seg *, int>, int> u;\n"
                    "std::map<std::pair<int, int>, Task *> by_ids;\n"
                ),
            }
        )
        from engine import run_rules_with_stale

        kept, sups, _ = run_rules_with_stale(project, [rule])
        got = sorted({f.line for f in kept})
        if got != [1, 2, 3, 4, 5, 10, 11]:
            errors.append(
                f"pointer-order selftest: expected findings on "
                f"lines 1-5, 10 and 11 only, got {got} (pointer "
                f"*values* in maps and string and id-pair keys must "
                f"stay quiet; the justified allow must suppress "
                f"line 9)"
            )
        if len(sups) != 1:
            errors.append(
                "pointer-order selftest: justified allow not "
                "honoured"
            )
        return errors
