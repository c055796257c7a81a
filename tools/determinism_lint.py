#!/usr/bin/env python3
"""Nondeterminism linter for the SCMP protocol stack.

The repo's core guarantee — DCDM trees, BRANCH/PRUNE traffic and golden
traces are bit-identical regardless of thread count or run — depends on no
protocol decision, packet emission or trace/exporter line deriving from an
unordered source. TSan and the golden traces only catch the interleavings
and seeds we happen to run; this linter statically rejects the constructs
that make runs diverge in the first place.

Scanned directories (src/core, src/graph, src/sim, src/protocols,
src/verify) are checked for five rule classes:

  unordered-iteration  iteration (range-for or .begin()/.cbegin()) over a
                       std::unordered_map / std::unordered_set. Hash-table
                       order is salted and load-factor dependent; anything
                       it feeds — candidate scans, packet emission, trace
                       output — varies run to run. Use std::map/std::set,
                       or copy into a sorted vector before iterating.
  pointer-key          containers keyed or ordered by object pointers
                       (std::map<T*, ...>, std::set<T*>, std::less<T*>,
                       or their unordered variants). Pointer values depend
                       on the allocator; iteration and tie-breaks over them
                       are address-space-layout lottery. Key by a stable id.
  wall-clock           rand()/srand()/std::random_device (unseeded entropy)
                       and time()/clock()/system_clock/steady_clock/
                       high_resolution_clock (wall time) outside util/rng.
                       Deterministic paths draw randomness from the seeded
                       util/rng xoshiro generator and time from sim::SimTime.
  thread-count         std::thread::hardware_concurrency(): the detected
                       core count differs across runners, so any value
                       derived from it must be proven not to reach protocol
                       results (and the derivation suppressed with a reason).
  float-equality       == / != where either operand is a floating-point
                       literal or an identifier declared float/double (or a
                       float alias such as SimTime). Exact float comparison
                       as a tie-break is only deterministic while every
                       platform computes bit-identical intermediates; each
                       deliberate use must justify why that holds here.

Suppressions: a true-but-reviewed finding is silenced with a
``// determinism: allow(<reason>)`` annotation — trailing on the flagged
line, or in the comment block immediately above it (the reason may wrap
across comment lines; it ends at the balanced closing parenthesis). Every
suppression must also appear in tools/determinism_manifest.json with the
same (file, rule, reason); drift in either direction — an annotation
missing from the manifest, a manifest entry no live annotation backs, or an
annotation that no longer suppresses anything — is itself a finding, so
suppressions cannot rot silently. This linter is the only drift check for
the manifest; ctest (determinism_lint_tree) and CI run it tree-wide. The
annotation and drift engine is tools/lintcore.py, shared by all three
linters.

Usage: tools/determinism_lint.py [--root ROOT] [--manifest FILE]
                                 [--scan DIR ...]
Exits non-zero when any finding is reported.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from lintcore import Linter, SourceFile, closing, walk_sources  # noqa: E402

DEFAULT_SCAN_DIRS = ("src/core", "src/graph", "src/sim", "src/topo",
                     "src/protocols", "src/verify")
DEFAULT_MANIFEST = "tools/determinism_manifest.json"

RULES = ("unordered-iteration", "pointer-key", "wall-clock", "thread-count",
         "float-equality")

ALLOW = "determinism: allow"

UNORDERED_DECL_RE = re.compile(r"\bstd\s*::\s*unordered_(?:map|set)\s*<")
FLOAT_ALIAS_RE = re.compile(
    r"\b(?:using\s+(\w+)\s*=\s*(?:double|float)\s*;"
    r"|typedef\s+(?:double|float)\s+(\w+)\s*;)")
POINTER_KEY_RE = re.compile(
    r"\bstd\s*::\s*(?:unordered_)?(?:map|set)\s*<\s*(?:const\s+)?"
    r"[\w:]+\s*(?:const\s*)?\*"
    r"|\bstd\s*::\s*less\s*<\s*[^>]*\*\s*>")
WALL_CLOCK_RE = re.compile(
    r"\brand\s*\(|\bsrand\s*\(|\brandom_device\b|\btime\s*\(|\bclock\s*\("
    r"|\bsystem_clock\b|\bsteady_clock\b|\bhigh_resolution_clock\b")
THREAD_COUNT_RE = re.compile(r"\bhardware_concurrency\b")
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;{)]*:\s*([^){]+)\)")
CMP_RE = re.compile(
    r"([A-Za-z_]\w*|\d+\.\d*(?:[eE][-+]?\d+)?[fF]?|\.\d+)"
    r"\s*(==|!=)\s*"
    r"([A-Za-z_]\w*|\d+\.\d*(?:[eE][-+]?\d+)?[fF]?|\.\d+)")
FLOAT_LITERAL_RE = re.compile(r"^(?:\d+\.\d*(?:[eE][-+]?\d+)?[fF]?|\.\d+)$")


# Keywords and qualifiers that look like a type token in `Type name`
# declaration scans but never are one.
NOT_A_TYPE = {
    "return", "case", "new", "delete", "else", "const", "constexpr",
    "static", "inline", "using", "typedef", "namespace", "struct", "class",
    "enum", "public", "private", "protected", "if", "while", "for", "do",
    "break", "continue", "goto", "sizeof", "template", "typename",
    "operator", "throw", "catch", "try", "virtual", "override", "final",
    "friend", "mutable", "volatile", "explicit", "noexcept", "default",
    "switch", "this", "true", "false", "nullptr", "and", "or", "not",
}

# Builtin / idiomatic integer-ish type tokens (beyond the uppercase-start
# and `::`-qualified heuristics below).
INTEGRAL_TYPES = {
    "int", "unsigned", "long", "short", "bool", "char", "signed", "auto",
    "size_t", "ssize_t", "ptrdiff_t", "uint8_t", "uint16_t", "uint32_t",
    "uint64_t", "int8_t", "int16_t", "int32_t", "int64_t",
}

DECL_RE = re.compile(r"\b([A-Za-z_][\w:]*)\s*(\*+|&+)?\s+([A-Za-z_]\w*)")
# Qualifiers that can precede the type token in a declaration; stripped
# before the DECL_RE scan so `const double x` still matches `double x`.
QUALIFIER_RE = re.compile(
    r"\b(?:const|constexpr|static|inline|mutable|volatile|extern|thread_local)\b")


class DeterminismLinter(Linter):
    def __init__(self, root: pathlib.Path, manifest_path: pathlib.Path,
                 scan_dirs: list[str]):
        super().__init__("tools/determinism_lint.py")
        self.root = root
        self.manifest_path = manifest_path
        self.scan_dirs = scan_dirs
        self.files: list[SourceFile] = []
        self.float_aliases: set[str] = set()
        self.unordered_names: set[str] = set()
        # rel -> identifiers that are unambiguously floating-point in that
        # file's scope (its own declarations plus its paired header/source).
        self.float_names: dict[str, set[str]] = {}

    # ---- collection ------------------------------------------------------

    def load(self):
        self.files = [SourceFile(self.root, path, (ALLOW,))
                      for path in walk_sources(self.root, self.scan_dirs)]
        self._collect_float_names()
        self._collect_unordered_names()

    def _scan_declarations(self, code: str) -> tuple[set[str], set[str]]:
        """(float_names, other_names) declared in ``code``. A pointer or
        reference declaration is never float (comparing the handle, not the
        value); a type token that is a known integral, an UpperCamel or
        ``::``-qualified type, or a ``*_t`` counts as non-float."""
        floats: set[str] = set()
        others: set[str] = set()
        code = QUALIFIER_RE.sub(" ", code)
        for m in DECL_RE.finditer(code):
            type_tok, ptr, name = m.group(1), m.group(2), m.group(3)
            if type_tok in NOT_A_TYPE or name in NOT_A_TYPE:
                continue
            if type_tok in self.float_aliases:
                (others if ptr else floats).add(name)
            elif (type_tok in INTEGRAL_TYPES or "::" in type_tok or
                  type_tok[0].isupper() or type_tok.endswith("_t") or ptr):
                others.add(name)
        return floats, others

    def _collect_float_names(self):
        """Per-file sets of identifiers that are unambiguously floating
        point. Scope of a file's declarations = the file plus its paired
        header/source (``dcdm.cpp`` sees ``double delay_slack`` from
        ``dcdm.hpp``). A name also declared with a non-float type in that
        scope is ambiguous and dropped — short names like ``at`` or ``w``
        are reused across types, and a false positive here would train
        people to write unreviewed suppressions."""
        self.float_aliases = {"double", "float"}
        for f in self.files:
            for m in FLOAT_ALIAS_RE.finditer(f.code):
                self.float_aliases.add(m.group(1) or m.group(2))
        per_file: dict[str, tuple[set[str], set[str]]] = {
            f.rel: self._scan_declarations(f.code) for f in self.files
        }
        pair = {".cpp": ".hpp", ".hpp": ".cpp"}
        for f in self.files:
            floats, others = map(set, per_file[f.rel])
            sibling = str(pathlib.PurePosixPath(f.rel).with_suffix(
                pair[pathlib.PurePosixPath(f.rel).suffix]))
            if sibling in per_file:
                floats |= per_file[sibling][0]
                others |= per_file[sibling][1]
            self.float_names[f.rel] = floats - others

    def _collect_unordered_names(self):
        """Variable / member names declared with an unordered container
        type anywhere in the scan set."""
        for f in self.files:
            for m in UNORDERED_DECL_RE.finditer(f.code):
                end = closing(f.code, m.end() - 1) + 1
                after = f.code[end:end + 120]
                dm = re.match(r"\s*&?\s*(\w+)", after)
                if dm and dm.group(1) not in ("const",):
                    self.unordered_names.add(dm.group(1))

    # ---- rules -----------------------------------------------------------

    def flag(self, f: SourceFile, lineno: int, rule: str, msg: str):
        if not self.suppressed(f, lineno, ALLOW, rule):
            self.report(f.rel, lineno, rule, msg)

    def check_file(self, f: SourceFile):
        for lineno, line in enumerate(f.code_lines, 1):
            self._check_unordered_iteration(f, lineno, line)
            if POINTER_KEY_RE.search(line):
                self.flag(f, lineno, "pointer-key",
                          "container keyed or ordered by a raw pointer; "
                          "addresses vary run to run — key by a stable id")
            m = WALL_CLOCK_RE.search(line)
            if m:
                self.flag(f, lineno, "wall-clock",
                          f"nondeterministic source `{m.group(0).strip()}`; "
                          "draw randomness from the seeded util/rng "
                          "generator and time from sim::SimTime")
            if THREAD_COUNT_RE.search(line):
                self.flag(f, lineno, "thread-count",
                          "hardware_concurrency() differs across machines; "
                          "prove results cannot depend on it and suppress "
                          "with a reason, or pin the count explicitly")
            self._check_float_equality(f, lineno, line)

    def _check_unordered_iteration(self, f: SourceFile, lineno: int,
                                   line: str):
        hit = None
        m = RANGE_FOR_RE.search(line)
        if m:
            words = set(re.findall(r"[A-Za-z_]\w*", m.group(1)))
            over = sorted(words & self.unordered_names)
            if over:
                hit = f"range-for over unordered container `{over[0]}`"
        if hit is None:
            for name in self.unordered_names:
                if re.search(rf"\b{re.escape(name)}\s*\.\s*c?begin\s*\(",
                             line):
                    hit = f"iterator walk over unordered container `{name}`"
                    break
        if hit is not None:
            self.flag(f, lineno, "unordered-iteration",
                      f"{hit}; hash order is salted and load-factor "
                      "dependent — iterate a sorted copy or use an ordered "
                      "container")

    def _check_float_equality(self, f: SourceFile, lineno: int, line: str):
        floats = self.float_names.get(f.rel, set())
        for m in CMP_RE.finditer(line):
            lhs, op, rhs = m.group(1), m.group(2), m.group(3)
            involved = [t for t in (lhs, rhs)
                        if FLOAT_LITERAL_RE.match(t) or t in floats]
            if not involved:
                continue
            self.flag(f, lineno, "float-equality",
                      f"floating-point `{op}` on `{lhs} {op} {rhs}`; exact "
                      "float comparison is only deterministic when both "
                      "sides are bit-identical by construction — justify "
                      "with a suppression or restructure the tie-break")
            return  # one report per line is enough

    # ---- driver ----------------------------------------------------------

    def run(self) -> int:
        self.load()
        for f in self.files:
            self.check_file(f)
        # Every determinism suppression must be declared, so a missing
        # manifest is a finding and leaves nothing to pair.
        manifest = self.load_json(self.manifest_path, "suppression-manifest",
                                  "manifest")
        if manifest is not None:
            self.check_drift(manifest, self.manifest_path,
                             "suppression-manifest", {"suppressions": None},
                             RULES)
            self.check_unused(self.files, "suppression-manifest",
                              "delete it (and its manifest entry)")
        return self.finish()


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root",
                    default=pathlib.Path(__file__).resolve().parent.parent,
                    type=pathlib.Path, help="repository root")
    ap.add_argument("--manifest", type=pathlib.Path, default=None,
                    help=f"suppression manifest (default {DEFAULT_MANIFEST})")
    ap.add_argument("--scan", nargs="*", default=None, metavar="DIR",
                    help="directories to scan, relative to --root "
                         f"(default: {' '.join(DEFAULT_SCAN_DIRS)})")
    args = ap.parse_args()
    root = args.root.resolve()
    manifest = args.manifest if args.manifest is not None \
        else root / DEFAULT_MANIFEST
    scan = args.scan if args.scan else list(DEFAULT_SCAN_DIRS)
    return DeterminismLinter(root, manifest, scan).run()


if __name__ == "__main__":
    sys.exit(main())
