"""Scanner core shared by tools/lint.py, tools/determinism_lint.py and
tools/protocol_lint.py.

Each linter keeps its own rules; this module holds everything they scan
with:

  strip_source        blanks comments (and, by default, the contents of
                      string, char and raw string literals), keeping line
                      structure so reported line numbers stay exact.
  closing             the bracket matcher: index of the bracket closing the
                      one at a given position.
  Annotation          one in-source suppression: ``// <token>(<reason>)``,
                      trailing on the flagged line or in the comment block
                      just above it; the reason may wrap across comment
                      lines and ends at the balanced closing parenthesis.
  SourceFile          one scanned .cpp/.hpp file: raw text, stripped code,
                      and its annotations.
  Linter              findings, JSON loading that reports a missing or
                      malformed file as a finding, the suppression drift
                      checks and the findings printer.

The annotation rule is the same for every kind: an annotation that
suppresses no finding is itself a finding, and where a kind is paired with
a manifest, drift in either direction (a live suppression the manifest
lacks, a manifest entry no live annotation backs) is a finding too.
"""

from __future__ import annotations

import json
import pathlib
import re
import sys

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')
RAW_OPEN_RE = re.compile(r'R"([^()\\\s]*)\(')

BRACKETS = {"(": ")", "{": "}", "<": ">"}


def collapse_ws(text: str) -> str:
    return " ".join(text.split())


def strip_source(text: str, keep_strings: bool = False) -> str:
    """Blanks out comments and, unless ``keep_strings``, the contents of
    string, char and raw string literals (the quotes stay). Newlines are
    kept everywhere, so line N of the result is line N of ``text``. Rules
    that read literals themselves (obs-hygiene's metric names) keep them."""
    out: list[str] = []
    i, n = 0, len(text)
    state = "code"  # code | line | block | str | chr
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            raw = RAW_OPEN_RE.match(text, i) if c == "R" and nxt == '"' \
                else None
            if raw:
                close = text.find(")" + raw.group(1) + '"', raw.end())
                stop = n if close < 0 else close + len(raw.group(1)) + 2
                if keep_strings:
                    out.append(text[i:stop])
                else:
                    out.append('"' + "\n" * text.count("\n", i, stop) + '"')
                i = stop
                continue
            if c == '"':
                state = "str"
            elif c == "'":
                state = "chr"
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append(c)
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        else:  # str | chr
            if c == "\\":
                if keep_strings:
                    out.append(text[i:i + 2])
                i += 2
                continue
            if c == ('"' if state == "str" else "'") or c == "\n":
                state = "code"  # a newline ends an unterminated literal
                out.append(c)
            elif keep_strings:
                out.append(c)
        i += 1
    return "".join(out)


def closing(text: str, start: int) -> int:
    """Index of the bracket that closes the one at ``text[start]`` (one of
    ``( { <``), or ``len(text)`` when it is never closed."""
    open_c, close_c = text[start], BRACKETS[text[start]]
    depth = 0
    for i in range(start, len(text)):
        if text[i] == open_c:
            depth += 1
        elif text[i] == close_c:
            depth -= 1
            if depth == 0:
                return i
    return len(text)


def line_of(text: str, pos: int) -> int:
    """1-based line number of offset ``pos``."""
    return text.count("\n", 0, pos) + 1


def walk_sources(root: pathlib.Path, dirs, skip: pathlib.Path | None = None):
    """The .cpp/.hpp files under each of ``dirs`` (relative to ``root``),
    sorted per directory; a missing directory yields nothing, and files
    below ``skip`` are left out."""
    for d in dirs:
        base = root / d
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in (".cpp", ".hpp") and \
                    (skip is None or skip not in path.parents):
                yield path


class Annotation:
    """One ``<token>(<reason>)`` occurrence in a raw source."""

    def __init__(self, token: str, line: int, end_line: int, reason: str):
        self.token = token        # e.g. "determinism: allow"
        self.line = line          # line the token starts on (1-based)
        self.end_line = end_line  # line the balanced ')' closes on
        self.reason = collapse_ws(reason)
        self.used = False


def collect_annotations(raw: str, tokens) -> list[Annotation]:
    """Every annotation of each token in ``tokens``, token by token. A
    wrapped reason loses its comment-continuation markers."""
    out = []
    for token in tokens:
        pos = raw.find(token + "(")
        while pos >= 0:
            open_paren = pos + len(token)
            end = closing(raw, open_paren)
            reason = re.sub(r"\n\s*//+", " ", raw[open_paren + 1:end])
            out.append(Annotation(token, line_of(raw, pos),
                                  line_of(raw, end), reason))
            pos = raw.find(token + "(", end + 1)
    return out


class SourceFile:
    def __init__(self, root: pathlib.Path, path: pathlib.Path, tokens):
        self.path = path
        self.rel = path.relative_to(root).as_posix()
        self.raw = path.read_text(encoding="utf-8")
        self.raw_lines = self.raw.splitlines()
        self.code = strip_source(self.raw)
        self.code_lines = self.code.splitlines()
        self.annotations = collect_annotations(self.raw, tokens)

    def annotation_for(self, lineno: int, token: str) -> Annotation | None:
        """The ``token`` annotation covering ``lineno``: trailing on the
        line itself, or closing on the immediately preceding line (a comment
        block just above the flagged statement)."""
        for a in self.annotations:
            if a.token == token and (a.line <= lineno <= a.end_line or
                                     a.end_line == lineno - 1):
                return a
        return None


class Linter:
    """Findings, suppression bookkeeping and the printer of one linter."""

    def __init__(self, tool: str):
        self.tool = tool
        self.findings: list[str] = []
        # (rel, rule, reason) of every annotation that silenced a finding.
        self.used_suppressions: set[tuple[str, str, str]] = set()

    def report(self, where, line: int, rule: str, msg: str):
        self.findings.append(f"{where}:{line}: {rule}: {msg}")

    def suppressed(self, f: SourceFile, lineno: int, token: str,
                   rule: str) -> bool:
        """Whether a ``token`` annotation silences ``rule`` at ``lineno``;
        marks the annotation used."""
        a = f.annotation_for(lineno, token)
        if a is None:
            return False
        a.used = True
        self.used_suppressions.add((f.rel, rule, a.reason))
        return True

    def load_json(self, path: pathlib.Path, rule: str, what: str,
                  shown=None):
        """The parsed JSON file, or None after reporting it (as ``shown``,
        by default ``path``) missing or malformed."""
        shown = path if shown is None else shown
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            self.report(shown, 1, rule, f"{what} is missing")
        except json.JSONDecodeError as err:
            self.report(shown, err.lineno, rule,
                        f"{what} is not valid JSON: {err}")
        return None

    def check_drift(self, manifest: dict, path: pathlib.Path, rule: str,
                    sections: dict[str, str | None], rules):
        """Pairs the live suppressions with the (file, rule, reason) entries
        of the manifest ``sections`` at ``path``, in both directions. A
        section maps to the rule its entries suppress, or to None when each
        entry names its own. Malformed entries are findings."""
        declared = set()
        for section, fixed_rule in sections.items():
            for entry in manifest.get(section, []):
                r = fixed_rule or entry.get("rule", "")
                if r not in rules:
                    self.report(path, 1, rule,
                                f"unknown rule '{r}' (expected one of "
                                f"{', '.join(rules)})")
                    continue
                key = (entry.get("file", ""), r,
                       collapse_ws(entry.get("reason", "")))
                if not key[0] or not key[2]:
                    self.report(path, 1, rule, "entry needs non-empty "
                                "'file', 'rule' and 'reason'")
                    continue
                declared.add(key)
        for rel, r, reason in sorted(self.used_suppressions - declared):
            self.report(rel, 1, rule, f"live suppression not in {path.name}: "
                        f"rule={r} reason=\"{reason}\"")
        for rel, r, reason in sorted(declared - self.used_suppressions):
            self.report(path, 1, rule, f"stale entry — no live annotation "
                        f"in {rel} suppresses a {r} finding with reason "
                        f"\"{reason}\"")

    def check_unused(self, files, rule: str, then: str):
        """An annotation that silences nothing is dead weight and hides the
        next real finding placed near it."""
        for f in files:
            for a in f.annotations:
                if not a.used:
                    self.report(f.rel, a.line, rule,
                                f"`{a.token}` annotation suppresses no "
                                f"finding; {then}")

    def finish(self, clean_note: str = "") -> int:
        for finding in self.findings:
            print(finding)
        if self.findings:
            print(f"\n{self.tool}: {len(self.findings)} finding(s)",
                  file=sys.stderr)
            return 1
        print(f"{self.tool}: clean{clean_note}")
        return 0
