#!/usr/bin/env python3
"""Protocol-flow and architecture linter for the SCMP stack.

The control plane is a fixed packet grammar (JOIN/LEAVE/TREE/BRANCH/PRUNE/
CLEAR/ACK, paper §III) dispatched by hand-written switches, and the PR-5
reliability machinery only protects the send sites that were routed through
it. Both properties rot silently: a new PacketType compiles fine while no
handler matches it, and a new `net().send_*` call quietly bypasses the
retransmission table. This linter extracts the full send→handle graph over
``sim::PacketType`` from the sources and enforces four rule classes:

  dispatch-exhaustiveness
      Every ``switch`` whose cases name ``PacketType`` enumerators (the
      protocol dispatch switches in src/core and src/protocols) must either
      cover every enumerator of the enum explicitly, or carry a ``default:``
      that *asserts* (SCMP_ASSERT / contract_failure) or *counts a drop*
      (a ``drops``-named counter increment or a ``net.drops.*`` metric).
      A default that silently falls through — empty, bare ``break``/
      ``return`` — swallows unexpected packets invisibly.

  handler-coverage
      A packet type *sent* somewhere (``x.type = PacketType::kFoo``) must be
      *received* somewhere — matched by a ``case`` or an ``==`` comparison
      inside a function whose name contains ``handle`` — and vice versa.
      With the real enum available (src/sim/packet.hpp under --root), an
      enumerator that is neither sent nor received is also flagged: dead
      wire types hide grammar drift. Legitimately unpaired types (reserved
      wire numbers) are declared in the manifest's ``unpaired_types``.

  reliability-coverage
      Every raw network send (``net().send_link/send_unicast/inject``) in a
      ``core/`` source must either sit in a function that arms the
      retransmission table (contains a ``.arm(`` call — the reliable-send
      wrappers), or carry a reviewed ``protocol: fire-and-forget(<reason>)``
      annotation (data traffic, and the ACKs that terminate the reliability
      handshake itself). New SCMP control send sites therefore cannot
      silently bypass PR-5 reliability.

  layer-dag
      tools/layers.json declares the module layering of src/ (util → obs →
      graph → topo/fabric → sim → igmp → protocols → core → verify). An
      ``#include`` from a lower layer into a higher one (or across modules
      within one layer) is a back edge and fails; the extracted file-level
      include graph is additionally checked for cycles. Reviewed exceptions
      live in the manifest's ``layer_exceptions``.

Suppressions: a true-but-reviewed finding is silenced with an annotation —
``// protocol: allow(<reason>)`` for dispatch-exhaustiveness, ``// protocol:
fire-and-forget(<reason>)`` for reliability-coverage — trailing on the
flagged line or in the comment block immediately above it (the reason may
wrap; it ends at the balanced closing parenthesis). Every annotation must
also appear in tools/protocol_manifest.json with the same (file, reason),
every ``unpaired_types`` / ``layer_exceptions`` entry must still match a
live unpaired type / include edge, and drift in either direction is itself
a finding. This linter is the only drift check for the manifest; ctest
(protocol_lint_tree) and CI run it tree-wide. The annotation and drift
engine is tools/lintcore.py, shared by all three linters.

Function boundaries are recovered from the repo's clang-format layout: a
top-level definition starts at column 0, so the region between consecutive
column-0 declarations approximates one function body. This is exact for the
formatted tree and good enough for the fixture mini-repos.

Usage: tools/protocol_lint.py [--root ROOT] [--manifest FILE]
                              [--layers FILE] [--scan DIR ...]
                              [--only RULE[,RULE...]]
Exits non-zero when any finding is reported.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from lintcore import (INCLUDE_RE, Linter, SourceFile, closing,  # noqa: E402
                      line_of, strip_source, walk_sources)

DEFAULT_SCAN_DIRS = ("src/core", "src/protocols")
DEFAULT_MANIFEST = "tools/protocol_manifest.json"
DEFAULT_LAYERS = "tools/layers.json"
PACKET_ENUM_HPP = "src/sim/packet.hpp"

RULES = ("dispatch-exhaustiveness", "handler-coverage",
         "reliability-coverage", "layer-dag")

ALLOW = "protocol: allow"
FNF = "protocol: fire-and-forget"

CASE_RE = re.compile(r"\bcase\s+(?:sim\s*::\s*)?PacketType\s*::\s*(k\w+)")
TYPE_ASSIGN_RE = re.compile(
    r"\.\s*type\s*=\s*(?:sim\s*::\s*)?PacketType\s*::\s*(k\w+)")
TYPE_EQ_RE = re.compile(
    r"(?:==\s*(?:sim\s*::\s*)?PacketType\s*::\s*(k\w+)"
    r"|(?:sim\s*::\s*)?PacketType\s*::\s*(k\w+)\s*==)")
RAW_SEND_RE = re.compile(
    r"\bnet(?:\s*\(\s*\)\s*\.|_\s*->\s*)\s*(send_link|send_unicast|inject)"
    r"\s*\(")
ARM_RE = re.compile(r"[.>]\s*arm\s*\(")
ASSERT_RE = re.compile(r"\bSCMP_(?:ASSERT|EXPECTS|ENSURES)\s*\(|"
                       r"\bcontract_failure\s*\(")
DROP_COUNT_RE = re.compile(r"\b\w*drops?\w*\s*\.\s*inc\s*\(|"
                           r"\bdrop_unexpected\s*\(")
DROP_NAME_RE = re.compile(r"net\.drops\.")


class ProtocolSource(SourceFile):
    """A scanned protocol source, plus the top-level definition regions
    that stand in for function bodies."""

    def __init__(self, root: pathlib.Path, path: pathlib.Path):
        super().__init__(root, path, (ALLOW, FNF))
        self._regions: list[tuple[int, str]] | None = None

    def regions(self) -> list[tuple[int, str]]:
        """(start_line, header) of every top-level definition region: a
        column-0 line starting with a letter opens a region that runs to the
        next such line (clang-format puts every function definition, and
        nothing inside one, at column 0)."""
        if self._regions is None:
            self._regions = []
            for lineno, line in enumerate(self.code_lines, 1):
                if line and (line[0].isalpha() or line[0] == "_"):
                    self._regions.append((lineno, line.strip()))
        return self._regions

    def region_of(self, lineno: int) -> tuple[int, int, str]:
        """(start_line, end_line, header) of the region containing lineno."""
        start, header = 1, ""
        for rl, h in self.regions():
            if rl > lineno:
                return start, rl - 1, header
            start, header = rl, h
        return start, len(self.code_lines), header

    def region_text(self, lineno: int) -> str:
        start, end, _ = self.region_of(lineno)
        return "\n".join(self.code_lines[start - 1:end])

    def region_name(self, lineno: int) -> str:
        """The (possibly qualified) function name of the region's header,
        following it across the continuation lines clang-format may wrap a
        long signature onto."""
        start, end, header = self.region_of(lineno)
        text = header
        for extra in self.code_lines[start:min(start + 3, end)]:
            text += " " + extra.strip()
        m = re.search(r"([\w:~]+)\s*\(", text)
        return m.group(1) if m else ""


def parse_packet_enum(root: pathlib.Path) -> list[str] | None:
    """PacketType enumerators from src/sim/packet.hpp, or None when the
    header is not part of the scanned tree (fixture mini-repos)."""
    hpp = root / PACKET_ENUM_HPP
    if not hpp.is_file():
        return None
    code = strip_source(hpp.read_text(encoding="utf-8"))
    m = re.search(r"enum\s+class\s+PacketType\s*\{", code)
    if not m:
        return None
    body = code[m.end():closing(code, m.end() - 1)]
    return re.findall(r"\b(k\w+)\b", body)


class ProtocolLinter(Linter):
    def __init__(self, root: pathlib.Path, manifest_path: pathlib.Path,
                 layers_path: pathlib.Path, scan_dirs: list[str],
                 only: set[str]):
        super().__init__("tools/protocol_lint.py")
        self.root = root
        self.manifest_path = manifest_path
        self.layers_path = layers_path
        self.scan_dirs = scan_dirs
        self.only = only
        self.files: list[ProtocolSource] = []
        self.enum = parse_packet_enum(root)
        # type -> (rel, line) of one witness occurrence.
        self.sent: dict[str, tuple[str, int]] = {}
        self.received: dict[str, tuple[str, int]] = {}
        # manifest usage tracking
        self.used_unpaired: set[str] = set()
        self.used_exceptions: set[tuple[str, str]] = set()
        self.declared_unpaired: set[str] = set()
        self.declared_exceptions: set[tuple[str, str]] = set()

    def enabled(self, rule: str) -> bool:
        return not self.only or rule in self.only

    # ---- collection ------------------------------------------------------

    def load(self):
        self.files = [ProtocolSource(self.root, path)
                      for path in walk_sources(self.root, self.scan_dirs)]
        self.manifest = self.load_json(self.manifest_path, "manifest",
                                       "protocol manifest")
        for entry in (self.manifest or {}).get("unpaired_types", []):
            t, reason = entry.get("type", ""), entry.get("reason", "")
            if not t or not reason.strip():
                self.report(self.manifest_path, 1, "manifest",
                            "unpaired_types entry needs non-empty 'type' and "
                            "'reason'")
                continue
            self.declared_unpaired.add(t)
        for entry in (self.manifest or {}).get("layer_exceptions", []):
            f, inc = entry.get("file", ""), entry.get("include", "")
            if not f or not inc or not entry.get("reason", "").strip():
                self.report(self.manifest_path, 1, "manifest",
                            "layer_exceptions entry needs non-empty 'file', "
                            "'include' and 'reason'")
                continue
            self.declared_exceptions.add((f, inc))

    # ---- rule 1: dispatch-exhaustiveness ---------------------------------

    def packet_switches(self, f: ProtocolSource):
        """Yields (line, cases, default_line, default_body) for every switch
        whose cases name PacketType enumerators."""
        for m in re.finditer(r"\bswitch\s*\(", f.code):
            body_open = f.code.find("{", closing(f.code, m.end() - 1))
            if body_open < 0:
                continue
            body = f.code[body_open:closing(f.code, body_open) + 1]
            cases = CASE_RE.findall(body)
            if not cases:
                continue
            line = line_of(f.code, m.start())
            dm = re.search(r"\bdefault\s*:", body)
            if dm is None:
                yield line, cases, None, ""
            else:
                default_line = line + body.count("\n", 0, dm.start())
                yield line, cases, default_line, body[dm.end():]

    def check_dispatch(self, f: ProtocolSource):
        for line, cases, default_line, default_body in self.packet_switches(f):
            if default_line is None:
                if self.enum is None:
                    self.report(
                        f.rel, line, "dispatch-exhaustiveness",
                        "switch over PacketType has no default and the enum "
                        f"({PACKET_ENUM_HPP}) is not in the scanned tree, so "
                        "coverage cannot be verified")
                    continue
                missing = sorted(set(self.enum) - set(cases))
                if missing:
                    self.report(
                        f.rel, line, "dispatch-exhaustiveness",
                        "switch over PacketType has no default and does not "
                        f"cover {', '.join(missing)}; list every type this "
                        "component can receive, and assert or count a drop "
                        "for the rest")
                continue
            raw_default = "\n".join(
                f.raw_lines[default_line - 1:
                            default_line - 1 + default_body.count("\n") + 1])
            handled = (ASSERT_RE.search(default_body) or
                       DROP_COUNT_RE.search(default_body) or
                       DROP_NAME_RE.search(raw_default))
            if handled or self.suppressed(f, default_line, ALLOW,
                                          "dispatch-exhaustiveness"):
                continue
            self.report(
                f.rel, default_line, "dispatch-exhaustiveness",
                "default of a PacketType dispatch switch silently swallows "
                "unexpected types; SCMP_ASSERT a programming error or count "
                "the drop (net.drops.unexpected_type) and log it")

    # ---- rule 2: handler-coverage ----------------------------------------

    def collect_flow(self, f: ProtocolSource):
        for lineno, line in enumerate(f.code_lines, 1):
            for t in TYPE_ASSIGN_RE.findall(line):
                self.sent.setdefault(t, (f.rel, lineno))
        in_handler_cache: dict[int, bool] = {}

        def in_handler(lineno: int) -> bool:
            start, _, _ = f.region_of(lineno)
            if start not in in_handler_cache:
                in_handler_cache[start] = \
                    "handle" in f.region_name(lineno).lower()
            return in_handler_cache[start]

        for lineno, line in enumerate(f.code_lines, 1):
            hits = CASE_RE.findall(line)
            for a, b in TYPE_EQ_RE.findall(line):
                hits.append(a or b)
            for t in hits:
                if in_handler(lineno):
                    self.received.setdefault(t, (f.rel, lineno))

    def check_handler_coverage(self):
        for t in sorted(set(self.sent) - set(self.received)):
            if t in self.declared_unpaired:
                self.used_unpaired.add(t)
                continue
            rel, line = self.sent[t]
            self.report(
                rel, line, "handler-coverage",
                f"PacketType::{t} is sent here but no handle* function "
                "matches on it — an orphan packet type; add the receiving "
                "case or declare it in the manifest's unpaired_types")
        for t in sorted(set(self.received) - set(self.sent)):
            if t in self.declared_unpaired:
                self.used_unpaired.add(t)
                continue
            rel, line = self.received[t]
            self.report(
                rel, line, "handler-coverage",
                f"PacketType::{t} is handled here but never sent — a dead "
                "packet type; delete the handler or declare it in the "
                "manifest's unpaired_types")
        if self.enum is not None:
            for t in sorted(set(self.enum) - set(self.sent)
                            - set(self.received)):
                if t in self.declared_unpaired:
                    self.used_unpaired.add(t)
                    continue
                self.report(
                    PACKET_ENUM_HPP, 1, "handler-coverage",
                    f"PacketType::{t} is neither sent nor handled anywhere "
                    "in the protocol sources — a dead wire type; remove it "
                    "or declare it in the manifest's unpaired_types")

    # ---- rule 3: reliability-coverage ------------------------------------

    def check_reliability(self, f: ProtocolSource):
        if "core/" not in f.rel:
            return
        for lineno, line in enumerate(f.code_lines, 1):
            m = RAW_SEND_RE.search(line)
            if not m:
                continue
            if ARM_RE.search(f.region_text(lineno)):
                continue  # reliable-send wrapper: the function arms RetxTable
            if self.suppressed(f, lineno, FNF, "reliability-coverage"):
                continue
            self.report(
                f.rel, lineno, "reliability-coverage",
                f"raw {m.group(1)}() in core bypasses the retransmission "
                "table; route it through the reliable-send wrappers or "
                "annotate `// protocol: fire-and-forget(<reason>)` and "
                "declare it in the manifest")

    # ---- rule 4: layer-dag -----------------------------------------------

    def check_layers(self):
        spec = self.load_json(self.layers_path, "layer-dag", "layers file")
        if spec is None:
            return
        level: dict[str, int] = {}
        for i, layer in enumerate(spec.get("layers", [])):
            for module in layer:
                if module in level:
                    self.report(self.layers_path, 1, "layer-dag",
                                f"module '{module}' declared in two layers")
                level[module] = i

        src = self.root / "src"
        if not src.is_dir():
            return
        includes: dict[str, list[tuple[int, str]]] = {}
        for path in walk_sources(self.root, ("src",)):
            rel = path.relative_to(self.root).as_posix()
            edges = []
            for lineno, line in enumerate(
                    path.read_text(encoding="utf-8").splitlines(), 1):
                m = INCLUDE_RE.match(line)
                if m and "/" in m.group(1):
                    edges.append((lineno, m.group(1)))
            includes[rel] = edges
            module = rel.split("/")[1]
            if module not in level:
                self.report(rel, 1, "layer-dag",
                            f"module 'src/{module}' is not declared in "
                            f"{self.layers_path.name}")
        for module in sorted(level):
            if not (src / module).is_dir():
                self.report(self.layers_path, 1, "layer-dag",
                            f"declared module '{module}' has no "
                            f"src/{module}/ directory")

        for rel in sorted(includes):
            module = rel.split("/")[1]
            if module not in level:
                continue
            for lineno, inc in includes[rel]:
                inc_module = inc.split("/")[0]
                if inc_module not in level:
                    continue  # already reported above via its own files
                ok = (inc_module == module or
                      level[inc_module] < level[module])
                if ok:
                    continue
                if (rel, inc) in self.declared_exceptions:
                    self.used_exceptions.add((rel, inc))
                    continue
                kind = ("back edge" if level[inc_module] > level[module]
                        else "cross-module edge within one layer")
                self.report(
                    rel, lineno, "layer-dag",
                    f'#include "{inc}": {kind} — src/{module} (layer '
                    f"{level[module]}) must not depend on src/{inc_module} "
                    f"(layer {level[inc_module]}); invert the dependency or "
                    "declare a reviewed layer_exceptions entry")

        # File-level cycle detection over the quoted-include graph.
        graph = {rel: [f"src/{inc}" for _, inc in edges
                       if (self.root / "src" / inc).is_file()]
                 for rel, edges in includes.items()}
        state: dict[str, int] = {}  # 0 visiting, 1 done
        stack: list[str] = []

        def visit(node: str) -> list[str] | None:
            state[node] = 0
            stack.append(node)
            for nxt in graph.get(node, []):
                if state.get(nxt) == 0:
                    return stack[stack.index(nxt):] + [nxt]
                if nxt not in state:
                    cyc = visit(nxt)
                    if cyc:
                        return cyc
            state[node] = 1
            stack.pop()
            return None

        for rel in sorted(graph):
            if rel not in state:
                cycle = visit(rel)
                if cycle:
                    self.report(cycle[0], 1, "layer-dag",
                                "include cycle: " + " -> ".join(cycle))
                    break

    # ---- suppression manifest cross-check --------------------------------

    def check_manifest(self):
        if self.manifest is None:
            return
        self.check_drift(
            self.manifest, self.manifest_path, "manifest",
            {"suppressions": None, "fire_and_forget": "reliability-coverage"},
            RULES)
        for t in sorted(self.declared_unpaired - self.used_unpaired):
            self.report(self.manifest_path, 1, "manifest",
                        f"stale unpaired_types entry '{t}': the type is "
                        "paired (or gone); delete the entry")
        for rel, inc in sorted(self.declared_exceptions -
                               self.used_exceptions):
            self.report(self.manifest_path, 1, "manifest",
                        f"stale layer_exceptions entry: {rel} no longer "
                        f"includes \"{inc}\" across layers")
        self.check_unused(self.files, "manifest",
                          "delete it (and its manifest entry)")

    # ---- driver ----------------------------------------------------------

    def run(self) -> int:
        self.load()
        if self.enabled("dispatch-exhaustiveness"):
            for f in self.files:
                self.check_dispatch(f)
        if self.enabled("handler-coverage"):
            for f in self.files:
                self.collect_flow(f)
            self.check_handler_coverage()
        if self.enabled("reliability-coverage"):
            for f in self.files:
                self.check_reliability(f)
        if self.enabled("layer-dag"):
            self.check_layers()
        if not self.only:
            self.check_manifest()
        scope = ",".join(sorted(self.only)) if self.only else "all rules"
        return self.finish(f" ({scope})")


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root",
                    default=pathlib.Path(__file__).resolve().parent.parent,
                    type=pathlib.Path, help="repository root")
    ap.add_argument("--manifest", type=pathlib.Path, default=None,
                    help=f"suppression manifest (default {DEFAULT_MANIFEST})")
    ap.add_argument("--layers", type=pathlib.Path, default=None,
                    help=f"layer declaration (default {DEFAULT_LAYERS})")
    ap.add_argument("--scan", nargs="*", default=None, metavar="DIR",
                    help="protocol directories to scan, relative to --root "
                         f"(default: {' '.join(DEFAULT_SCAN_DIRS)})")
    ap.add_argument("--only", default="", metavar="RULE[,RULE...]",
                    help="run only the named rules (skips the manifest "
                         "drift cross-check)")
    args = ap.parse_args()
    root = args.root.resolve()
    manifest = args.manifest if args.manifest is not None \
        else root / DEFAULT_MANIFEST
    layers = args.layers if args.layers is not None \
        else root / DEFAULT_LAYERS
    only = {r for r in args.only.split(",") if r} if args.only else set()
    unknown = only - set(RULES)
    if unknown:
        print(f"unknown rule(s): {', '.join(sorted(unknown))}",
              file=sys.stderr)
        return 2
    scan = args.scan if args.scan else list(DEFAULT_SCAN_DIRS)
    return ProtocolLinter(root, manifest, layers, scan, only).run()


if __name__ == "__main__":
    sys.exit(main())
