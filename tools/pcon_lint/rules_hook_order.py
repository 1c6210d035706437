"""Hook-contract rule: wiring order.

A trace::SpanTracer consumes per-container charge deltas produced by
the core::ContainerManager's hooks, so at every wiring site that
registers both with the same kernel, the manager must be registered
(``addHooks(&manager)``) before the tracer. Checked per file: the
first ContainerManager registration must precede the first SpanTracer
registration.
"""

import re

from engine import Finding, Rule

ADDHOOKS_RE = re.compile(r"\baddHooks\s*\(\s*&\s*(\w+)\s*\)")

# `ContainerManager x` / `core::ContainerManager &x` declarations; one
# declarator per line matches the codebase style.
DECL_TEMPLATE = r"\b{type}\s*&?\s+(\w+)\s*[;={{(,)]"


def declared_names(source, type_name):
    """Identifiers declared with the given type anywhere in a file."""
    regex = re.compile(DECL_TEMPLATE.format(type=type_name))
    names = set()
    for line in source.blanked_lines:
        for m in regex.finditer(line):
            names.add(m.group(1))
    return names


class HookOrderRule(Rule):
    name = "hook-order"
    description = "SpanTracer registered after ContainerManager"
    scope = ("src", "tests", "examples", "bench")

    def run(self, project):
        findings = []
        for source in project.files_under(self.scope):
            findings.extend(self.check_wiring_order(source))
        return findings

    def check_wiring_order(self, source):
        managers = declared_names(source, "ContainerManager")
        tracers = declared_names(source, "SpanTracer")
        if not managers or not tracers:
            return []
        first_manager = first_tracer = None
        tracer_line = None
        for idx, line in enumerate(source.blanked_lines):
            for m in ADDHOOKS_RE.finditer(line):
                name = m.group(1)
                if name in managers and first_manager is None:
                    first_manager = idx + 1
                if name in tracers and first_tracer is None:
                    first_tracer = idx + 1
                    tracer_line = name
        if first_tracer is None or first_manager is None:
            return []
        if first_tracer < first_manager:
            return [
                Finding(
                    self.name,
                    source.rel,
                    first_tracer,
                    f"SpanTracer '{tracer_line}' is registered "
                    f"before the ContainerManager (line "
                    f"{first_manager}); the tracer consumes charge "
                    f"deltas the manager's hooks produce, so it "
                    f"must be added after it",
                )
            ]
        return []

    def selftest(self):
        errors = []
        rule = HookOrderRule()

        # Tracer registered first: one finding at the tracer line.
        bad = rule.project_from_texts(
            {
                "tests/wiring.cc": (
                    "core::ContainerManager manager;\n"
                    "trace::SpanTracer tracer;\n"
                    "kernel.addHooks(&tracer);\n"
                    "kernel.addHooks(&manager);\n"
                ),
            }
        )
        found = [
            f for f in rule.run(bad) if f.path == "tests/wiring.cc"
        ]
        if len(found) != 1 or found[0].line != 3:
            errors.append(
                f"hook-order selftest: expected a wiring finding at "
                f"tests/wiring.cc:3, got "
                f"{[f.render() for f in found]}"
            )

        # Correct order: clean.
        good = rule.project_from_texts(
            {
                "tests/wiring.cc": (
                    "core::ContainerManager manager;\n"
                    "trace::SpanTracer tracer;\n"
                    "kernel.addHooks(&manager);\n"
                    "kernel.addHooks(&tracer);\n"
                ),
            }
        )
        if any(
            f.path == "tests/wiring.cc" for f in rule.run(good)
        ):
            errors.append(
                "hook-order selftest: correct wiring was flagged"
            )
        return errors
