"""Arena-nodes rule: hot-path node types are arena-allocated only.

The hot-path allocation pass moved the per-event node types — trace
spans (``util::ChunkedVector`` in the span collector), socket segment
nodes (``util::SlabPool`` in os/socket.h), and per-container ledger
slots (``core::LedgerStore``'s SoA columns) — onto slab arenas
(util/slab_arena.h). A stray ``new Span`` or
``std::make_unique<SegmentQueue::Node>`` reintroduces exactly the
global-allocator churn that pass removed, and worse: it creates a
node whose lifetime is no longer tied to the owning arena, so the
ASan-poisoning lifetime checks cannot see it.

This rule forbids direct heap allocation (``new T``,
``std::make_unique<T>``, ``std::make_shared<T>``) of the listed node
types anywhere in ``src/`` outside each type's owning files. Stack
values, arena placement-new, and pool allocation are untouched.
Escape hatch (justification mandatory)::

    // pcon-lint: allow(arena-nodes) <why this heap node is safe>
"""

import re

from engine import ALLOW_RE, Finding, Rule

#: Arena-owned node types → the files allowed to manage their
#: storage (the arena/pool owners). Everyone else takes nodes from
#: the owner's allocation surface or builds stack values.
DEFAULT_NODE_TYPES = {
    "Span": ("src/trace/span.h", "src/trace/span.cc"),
    "Segment": ("src/os/socket.h",),
    "SegmentQueue::Node": ("src/os/socket.h",),
    # PowerContainer is a handle over LedgerStore's SoA columns (the
    # actual ledger slots); the lifecycle manager is its one
    # sanctioned allocation surface.
    "PowerContainer": (
        "src/core/container.h",
        "src/core/container_manager.cc",
    ),
}


def heap_alloc_pattern(names):
    """Regex matching a heap allocation of any listed type name,
    optionally namespace-qualified (``new trace::Span``). Longest
    names first so ``SegmentQueue::Node`` beats ``Node``-less
    prefixes; a trailing ``(?!\\w)`` keeps ``Span`` from matching
    ``SpanTracer``."""
    alts = "|".join(
        re.escape(n) for n in sorted(names, key=len, reverse=True)
    )
    return re.compile(
        r"(?:\bnew\s+|\bmake_unique<\s*|\bmake_shared<\s*)"
        r"(?:[A-Za-z_]\w*::)*(" + alts + r")(?!\w)"
    )


class ArenaNodesRule(Rule):
    name = "arena-nodes"
    description = (
        "arena-owned node types (spans, segments, ledger slots) must "
        "not be heap-allocated outside their owning files"
    )
    scope = ("src",)

    def __init__(self, node_types=None):
        self.node_types = dict(
            DEFAULT_NODE_TYPES if node_types is None else node_types
        )
        self.pattern = heap_alloc_pattern(self.node_types)

    def run(self, project):
        findings = []
        for source in project.files_under(self.scope):
            for idx, line in enumerate(source.blanked.splitlines()):
                for m in self.pattern.finditer(line):
                    type_name = m.group(1)
                    owners = self.node_types[type_name]
                    if source.rel in owners:
                        continue
                    findings.append(
                        Finding(
                            self.name,
                            source.rel,
                            idx + 1,
                            f"heap allocation of arena-owned node "
                            f"type '{type_name}' (owned by "
                            f"{', '.join(owners)}); allocate from "
                            f"the owning arena/pool, or add "
                            f"'// pcon-lint: allow(arena-nodes) "
                            f"<why this heap node is safe>'",
                        )
                    )
        return findings

    def suppression_at(self, source, idx):
        """allow(arena-nodes) only counts with a justification."""
        hit = super().suppression_at(source, idx)
        if hit is None:
            return None
        _, marker = hit
        line = source.raw_lines[marker]
        m = ALLOW_RE.search(line)
        tail = line[m.end():].strip() if m else ""
        if not tail:
            return None  # bare allow(): rejected, finding stands
        return f"allow(arena-nodes): {tail}", marker

    def selftest(self):
        errors = []
        rule = ArenaNodesRule(
            node_types={
                "Span": ("src/trace/span.cc",),
                "SegmentQueue::Node": ("src/os/socket.h",),
            }
        )
        project = rule.project_from_texts(
            {
                "src/os/router.cc": (
                    "namespace pcon {\n"
                    "void bad() {\n"
                    "    auto *a = new trace::Span();\n"
                    "    auto b = std::make_unique<Span>();\n"
                    "    auto c = "
                    "std::make_shared<os::SegmentQueue::Node>();\n"
                    "    auto *d = new SpanTracer();\n"
                    "    Span on_stack;\n"
                    "    // pcon-lint: allow(arena-nodes) JSON "
                    "reload path, freed before the arena\n"
                    "    auto *e = new Span();\n"
                    "    // pcon-lint: allow(arena-nodes)\n"
                    "    auto *f = new Span();\n"
                    "}\n"
                    "} // namespace pcon\n"
                ),
                "src/trace/span.cc": (
                    "namespace pcon {\n"
                    "void owner() { auto *s = new Span(); }\n"
                    "} // namespace pcon\n"
                ),
            }
        )
        from engine import run_rules_with_stale

        kept, suppressed, stale = run_rules_with_stale(
            project, [rule]
        )
        got = sorted((f.path, f.line) for f in kept)
        want = [
            ("src/os/router.cc", 3),   # new trace::Span
            ("src/os/router.cc", 4),   # make_unique<Span>
            ("src/os/router.cc", 5),   # make_shared<...::Node>
            ("src/os/router.cc", 11),  # bare allow(): rejected
        ]
        if got != want:
            errors.append(
                f"arena-nodes selftest: expected findings at "
                f"{want}, got {[f.render() for f in kept]}"
            )
        if (
            len(suppressed) != 1
            or "JSON reload" not in suppressed[0].reason
        ):
            errors.append(
                f"arena-nodes selftest: justified allow() did not "
                f"suppress: {[s.render() for s in suppressed]}"
            )
        # The bare allow() must surface as stale so the author
        # learns the comment was rejected, not silently honored.
        if [(s.path, s.line) for s in stale] != [
            ("src/os/router.cc", 10)
        ]:
            errors.append(
                f"arena-nodes selftest: bare allow() should be "
                f"reported stale, got {[s.render() for s in stale]}"
            )
        return errors
