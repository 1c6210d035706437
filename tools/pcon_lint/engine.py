"""pcon-lint rule engine.

A rule is a class with a stable name, a scope (directories it scans,
relative to the repository root), and a ``run(project)`` method that
returns Finding objects. The engine owns everything shared between
rules: file discovery, comment/string blanking, suppression comments,
stale-suppression detection, and the human-readable report (the
SARIF report lives in sarif.py).

Suppression: append ``// pcon-lint: allow(<rule>)`` to the offending
line or the line directly above it; it is the only suppression
syntax. A suppression that no longer silences any finding is
reported as *stale* so exemptions cannot rot; ``--strict`` turns
stale suppressions into failures.
"""

import dataclasses
import pathlib
import re
import sys

SOURCE_SUFFIXES = {".h", ".hh", ".hpp", ".cc", ".cpp", ".cxx"}

ALLOW_RE = re.compile(r"pcon-lint:\s*allow\(([a-z0-9_,\- ]+)\)")

# A C++ raw string literal opener: optional encoding prefix, R, quote,
# then a delimiter of at most 16 non-special characters before '('.
RAW_STRING_PREFIXES = ("u8R", "uR", "UR", "LR", "R")


@dataclasses.dataclass
class Finding:
    """One rule violation at a file:line."""

    rule: str
    path: str  # repo-relative, forward slashes
    line: int  # 1-based
    message: str

    def render(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclasses.dataclass
class Suppression:
    """A finding silenced by an allow() marker."""

    rule: str
    path: str
    line: int
    reason: str

    def render(self):
        return (
            f"note: {self.path}:{self.line}: suppressed "
            f"[{self.rule}]: {self.reason}"
        )


@dataclasses.dataclass
class StaleSuppression:
    """An allow() marker that silenced nothing this run."""

    rule: str
    path: str
    line: int  # 1-based line of the marker itself
    note: str = ""  # overrides the default explanation when set

    def render(self):
        why = self.note or (
            f"'{self.rule}' suppression no longer matches any "
            f"finding; delete it (suppressions must not rot)"
        )
        return f"{self.path}:{self.line}: [stale-suppression] {why}"


def _raw_string_start(text, i):
    """If a raw string literal's opening quote sits at ``i``, return
    the index just past its opening ``(`` sequence's delimiter — i.e.
    (delimiter, content_start) — else None. ``text[i]`` must be '"'."""
    for prefix in RAW_STRING_PREFIXES:
        start = i - len(prefix)
        if start < 0 or text[start:i] != prefix:
            continue
        before = text[start - 1] if start > 0 else ""
        if before.isalnum() or before == "_":
            continue  # identifier ending in R (e.g. FACTOR"...")
        j = i + 1
        delim = []
        while (
            j < len(text)
            and text[j] not in '()\\ \t\n"'
            and len(delim) <= 16
        ):
            delim.append(text[j])
            j += 1
        if j < len(text) and text[j] == "(":
            return "".join(delim), j + 1
        return None  # R"... without '(' — malformed; scan normally
    return None


def blank_comments_and_strings(text):
    """Replace comment and literal bodies with spaces, preserving
    line structure so reported line numbers stay meaningful. Handles
    line/block comments, character literals, ordinary strings with
    escapes, and raw string literals (``R"delim(...)delim"``) — a
    ``//`` or ``"`` inside a raw string must not derail the scan."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | str | chr
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                raw = _raw_string_start(text, i)
                if raw is not None:
                    delim, content = raw
                    closer = ')' + delim + '"'
                    end = text.find(closer, content)
                    if end < 0:
                        end = n  # unterminated; blank to EOF
                    else:
                        end += len(closer)
                    for k in range(i, end):
                        out.append("\n" if text[k] == "\n" else " ")
                    i = end
                    continue
                state = "str"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "chr"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state in ("str", "chr"):
            quote = '"' if state == "str" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(" ")
            elif c == "\n":  # unterminated; recover
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        i += 1
    return "".join(out)


class SourceFile:
    """One scanned file: raw text plus a comment/string-blanked copy
    with identical line structure."""

    def __init__(self, rel, text):
        self.rel = rel  # repo-relative posix path (str)
        self.text = text
        self.raw_lines = text.splitlines()
        self.blanked = blank_comments_and_strings(text)
        self.blanked_lines = self.blanked.splitlines()


#: Fixture trees (tests/lint/README.md) are miniature repository roots,
#: each scanned as a --root of its own, never as part of a tree that
#: holds them: their deliberate violations are not the tree's.
FIXTURE_ROOTS = "tests/lint/"


class Project:
    """The scanned tree. Files are loaded once and shared by rules."""

    def __init__(self, root, files):
        self.root = pathlib.Path(root)
        self.files = files  # list[SourceFile], sorted by rel

    @classmethod
    def load(cls, root, scopes):
        root = pathlib.Path(root).resolve()
        seen = {}
        for rel in scopes:
            base = root / rel
            if not base.exists():
                raise FileNotFoundError(f"no such directory: {base}")
            for p in sorted(base.rglob("*")):
                if p.suffix in SOURCE_SUFFIXES and p.is_file():
                    key = p.relative_to(root).as_posix()
                    if key.startswith(FIXTURE_ROOTS):
                        continue
                    if key not in seen:
                        seen[key] = SourceFile(
                            key,
                            p.read_text(
                                encoding="utf-8", errors="replace"
                            ),
                        )
        return cls(root, [seen[k] for k in sorted(seen)])

    def files_under(self, prefixes):
        out = []
        for f in self.files:
            if any(
                f.rel == p or f.rel.startswith(p.rstrip("/") + "/")
                for p in prefixes
            ):
                out.append(f)
        return out


class Rule:
    """Base class for pcon-lint rules."""

    #: stable rule name, used in reports and allow(<name>) comments
    name = "base"
    #: one-line description for --list-rules and the JSON report
    description = ""
    #: directories (repo-relative) this rule scans
    scope = ("src",)
    #: when True, a bare ``allow(<rule>)`` does not suppress — the
    #: marker must carry justification text after the closing paren
    require_justification = False

    def run(self, project):
        """Return a list of Finding for the given project."""
        raise NotImplementedError

    def selftest(self):
        """Run the rule against embedded synthetic violations.

        Returns a list of error strings; empty means the fixtures
        behaved (violations were flagged, clean code was not).
        """
        return []

    # -- helpers shared by subclasses --------------------------------

    def suppression_at(self, source, idx):
        """(reason, marker_idx) for an allow(<rule>) marker on this or
        the preceding raw line, or None. Both indices are 0-based."""
        for look in (idx, idx - 1):
            if 0 <= look < len(source.raw_lines):
                m = ALLOW_RE.search(source.raw_lines[look])
                if m:
                    names = [
                        n.strip() for n in m.group(1).split(",")
                    ]
                    if self.name in names:
                        tail = source.raw_lines[look][
                            m.end():
                        ].strip()
                        if self.require_justification:
                            if not tail:
                                # A bare allow() records nothing;
                                # the finding stands (and the dead
                                # marker surfaces as stale).
                                continue
                            return (
                                f"allow({self.name}): {tail}",
                                look,
                            )
                        return (
                            f"pcon-lint: allow({self.name})",
                            look,
                        )
        return None

    def suppression_reason(self, source, idx):
        """An allow(<rule>) marker on this or the preceding raw line,
        or None. ``idx`` is 0-based."""
        hit = self.suppression_at(source, idx)
        return hit[0] if hit else None

    def suppression_markers(self, source):
        """0-based line indices of every suppression marker naming
        this rule in the file (for stale detection)."""
        out = []
        for idx, line in enumerate(source.raw_lines):
            m = ALLOW_RE.search(line)
            if m:
                names = [n.strip() for n in m.group(1).split(",")]
                if self.name in names:
                    out.append(idx)
        return out

    def project_from_texts(self, texts):
        """Build an in-memory Project for selftests.

        ``texts`` maps repo-relative paths to file contents.
        """
        files = [
            SourceFile(rel, text) for rel, text in sorted(texts.items())
        ]
        return Project(pathlib.Path("."), files)


def split_suppressed(rule, project, findings, used=None):
    """Partition raw findings into (kept, suppressed) using the
    shared allow() comment convention. When ``used`` (a set) is given,
    record each consumed marker as (path, marker_line_1based)."""
    kept, suppressed = [], []
    by_rel = {f.rel: f for f in project.files}
    for finding in findings:
        source = by_rel.get(finding.path)
        hit = None
        if source is not None:
            hit = rule.suppression_at(source, finding.line - 1)
        if hit:
            reason, marker_idx = hit
            if used is not None:
                used.add((finding.path, marker_idx + 1))
            suppressed.append(
                Suppression(
                    finding.rule, finding.path, finding.line, reason
                )
            )
        else:
            kept.append(finding)
    return kept, suppressed


def stale_suppressions(rule, project, used):
    """Markers naming this rule (within its scope) that silenced
    nothing. ``used`` holds (path, marker_line_1based) pairs."""
    stale = []
    for source in project.files_under(rule.scope):
        for idx in rule.suppression_markers(source):
            if (source.rel, idx + 1) not in used:
                stale.append(
                    StaleSuppression(rule.name, source.rel, idx + 1)
                )
    return stale


def unknown_rule_markers(project, known_rule_names):
    """allow() markers naming rules that do not exist — usually a
    typo, which would otherwise silence nothing forever without a
    peep. Returned as StaleSuppression entries (fails --strict)."""
    known = set(known_rule_names)
    out = []
    for source in project.files:
        for idx, line in enumerate(source.raw_lines):
            m = ALLOW_RE.search(line)
            if not m:
                continue
            names = [n.strip() for n in m.group(1).split(",")]
            for name in names:
                if name and name not in known:
                    out.append(
                        StaleSuppression(
                            name,
                            source.rel,
                            idx + 1,
                            note=(
                                f"allow({name}) names no known "
                                f"rule; fix the rule name or "
                                f"delete the marker"
                            ),
                        )
                    )
    return out


def run_rules_with_stale(project, rules, known_rule_names=None):
    """Run every rule; returns (findings, suppressions, stale), each
    sorted by path, line, rule.

    The consumed-marker set is shared across rules so a combined
    ``allow(a, b)`` marker used by either rule is stale under
    neither; an unused marker is reported once, not once per rule it
    names. When ``known_rule_names`` is given (the full inventory,
    even when only a subset runs), markers naming nonexistent rules
    are also reported as stale."""
    findings, suppressions = [], []
    used = set()
    candidates = []
    for rule in rules:
        raw = rule.run(project)
        kept, suppressed = split_suppressed(rule, project, raw, used)
        findings.extend(kept)
        suppressions.extend(suppressed)
        candidates.append(rule)
    stale, stale_seen = [], set()
    for rule in candidates:
        for entry in stale_suppressions(rule, project, used):
            spot = (entry.path, entry.line)
            if spot not in stale_seen:
                stale_seen.add(spot)
                stale.append(entry)
    if known_rule_names is not None:
        stale.extend(unknown_rule_markers(project, known_rule_names))
    key = lambda f: (f.path, f.line, f.rule)  # noqa: E731
    return (
        sorted(findings, key=key),
        sorted(suppressions, key=key),
        sorted(stale, key=lambda s: (s.path, s.line, s.rule)),
    )


def report_human(rules, project, findings, suppressions,
                 out=sys.stdout, stale=(), strict=False):
    for s in suppressions:
        out.write(s.render() + "\n")
    for s in stale:
        prefix = "" if strict else "note: "
        out.write(prefix + s.render() + "\n")
    failed = bool(findings) or (strict and stale)
    if findings:
        for f in findings:
            out.write(f.render() + "\n")
    if failed:
        out.write(
            f"\npcon-lint: {len(findings)} finding(s) and "
            f"{len(stale)} stale suppression(s) from "
            f"{len(rules)} rule(s) over {len(project.files)} "
            f"file(s). Silence a deliberate use with "
            f"`// pcon-lint: allow(<rule>)` on the offending line "
            f"or the line above it; delete suppressions that no "
            f"longer fire.\n"
        )
    else:
        names = ", ".join(r.name for r in rules)
        out.write(
            f"pcon-lint: clean ({names}; {len(project.files)} files, "
            f"{len(suppressions)} suppression(s), "
            f"{len(stale)} stale)\n"
        )


def engine_selftest():
    """Exercise the shared scanner against tricky inputs. Returns a
    list of error strings; empty means pass."""
    errors = []

    # Raw string literals: '//' and '"' inside the body must not open
    # a comment or string state, and line structure must survive.
    text = (
        'const char *q = R"(no // comment "quote\n'
        'still raw)" ;\n'
        "int after = 1; // real comment\n"
    )
    blanked = blank_comments_and_strings(text)
    lines = blanked.splitlines()
    if len(lines) != 3:
        errors.append(
            f"engine selftest: raw string broke line structure "
            f"({len(lines)} lines, want 3)"
        )
    else:
        if "//" in lines[0] or "quote" in lines[0]:
            errors.append(
                "engine selftest: raw string body leaked into the "
                "blanked text"
            )
        if ";" not in lines[1]:
            errors.append(
                "engine selftest: code after the raw string "
                "terminator was blanked"
            )
        if "int after = 1;" not in lines[2]:
            errors.append(
                "engine selftest: code after a raw string was "
                "corrupted"
            )
        if "real comment" in lines[2]:
            errors.append(
                "engine selftest: comment after a raw string "
                "survived blanking"
            )

    # Custom delimiters, encoding prefixes, and an identifier that
    # merely ends in R (not a raw string prefix).
    text = (
        'auto a = u8R"x(body " )x" + 1;\n'
        'auto b = LR"(multi\n'
        'line)" ;\n'
        'int FACTOR = 2; const char *s = "FACTOR";\n'
    )
    blanked = blank_comments_and_strings(text)
    lines = blanked.splitlines()
    if len(lines) != 4 or "+ 1;" not in lines[0]:
        errors.append(
            "engine selftest: custom-delimiter raw string mishandled"
        )
    elif ";" not in lines[2]:
        errors.append(
            "engine selftest: multi-line raw string terminator missed"
        )
    elif "int FACTOR = 2;" not in lines[3] or '"FACTOR"' in lines[3]:
        errors.append(
            "engine selftest: identifier ending in R confused the "
            "raw-string detector"
        )

    # An unterminated raw string blanks to EOF without crashing.
    blanked = blank_comments_and_strings('auto c = R"(never ends\nx')
    if "never" in blanked or "x" in blanked.splitlines()[-1]:
        errors.append(
            "engine selftest: unterminated raw string not blanked "
            "to EOF"
        )

    # Ordinary escapes still work next to raw strings.
    blanked = blank_comments_and_strings(
        'const char *e = "a\\"b"; int live = 3;\n'
    )
    if "int live = 3;" not in blanked:
        errors.append(
            "engine selftest: escaped quote handling regressed"
        )

    # -- suppression machinery ----------------------------------------

    class _NeedleRule(Rule):
        """Flags every line containing NEEDLE."""

        scope = ("src",)

        def __init__(self, name, require_justification=False):
            self.name = name
            self.require_justification = require_justification

        def run(self, project):
            out = []
            for f in project.files_under(self.scope):
                for idx, line in enumerate(f.blanked_lines):
                    if "NEEDLE" in line:
                        out.append(
                            Finding(self.name, f.rel, idx + 1,
                                    "needle")
                        )
            return out

    helper = Rule()
    text = (
        "int a = NEEDLE;  // pcon-lint: allow(na) same line\n"
        "// pcon-lint: allow(na) line above\n"
        "int b = NEEDLE;\n"
        "int c = NEEDLE;\n"
    )
    project = helper.project_from_texts({"src/x.cc": text})
    rule = _NeedleRule("na")
    findings, sups, stale = run_rules_with_stale(project, [rule])
    if len(sups) != 2 or len(findings) != 1 or findings[0].line != 4:
        errors.append(
            "engine selftest: same-line / line-above allow() "
            "placement not both honoured"
        )
    if stale:
        errors.append(
            "engine selftest: consumed line-above marker reported "
            "stale"
        )

    # A combined allow(a, b) marker consumed by rule 'a' must not be
    # stale under rule 'b'; one that neither consumes is reported
    # exactly once.
    text = (
        "int a = NEEDLE;  // pcon-lint: allow(na, nb)\n"
        "int clean = 0;  // pcon-lint: allow(na, nb)\n"
    )
    project = helper.project_from_texts({"src/y.cc": text})
    findings, sups, stale = run_rules_with_stale(
        project, [_NeedleRule("na"), _NeedleRule("nb")]
    )
    if len(stale) != 1 or stale[0].line != 2:
        errors.append(
            f"engine selftest: shared-marker staleness wrong "
            f"({len(stale)} stale, want 1 at line 2)"
        )

    # require_justification: a bare allow() does not suppress (the
    # finding stands, the marker is stale); justified text does.
    text = (
        "int a = NEEDLE;  // pcon-lint: allow(nj)\n"
        "int b = NEEDLE;  // pcon-lint: allow(nj) caller holds lock\n"
    )
    project = helper.project_from_texts({"src/z.cc": text})
    findings, sups, stale = run_rules_with_stale(
        project, [_NeedleRule("nj", require_justification=True)]
    )
    if len(findings) != 1 or findings[0].line != 1:
        errors.append(
            "engine selftest: bare allow() suppressed a "
            "justification-requiring rule"
        )
    if len(sups) != 1 or "caller holds lock" not in sups[0].reason:
        errors.append(
            "engine selftest: justified allow() not honoured or "
            "reason text lost"
        )
    if len(stale) != 1 or stale[0].line != 1:
        errors.append(
            "engine selftest: bare allow() on a justification-"
            "requiring rule not reported stale"
        )

    # Markers naming nonexistent rules fail when the inventory is
    # supplied, and pass through silently when it is not (selftest
    # and single-rule callers).
    text = "int ok = 0;  // pcon-lint: allow(no-such-rule)\n"
    project = helper.project_from_texts({"src/w.cc": text})
    _, _, stale = run_rules_with_stale(
        project, [_NeedleRule("na")], known_rule_names=["na"]
    )
    if len(stale) != 1 or "names no known rule" not in stale[0].note:
        errors.append(
            "engine selftest: unknown-rule allow() marker not "
            "reported"
        )
    _, _, stale = run_rules_with_stale(project, [_NeedleRule("na")])
    if stale:
        errors.append(
            "engine selftest: unknown-rule check ran without an "
            "inventory"
        )
    return errors
