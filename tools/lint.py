#!/usr/bin/env python3
"""Repo-specific lint rules clang-tidy cannot express.

Rules (each failure prints ``file:line: rule-id: message``):

  contracts        every src/**/*.cpp translation unit guards its public
                   entry points with SCMP_EXPECTS/SCMP_ENSURES/SCMP_ASSERT
                   (files with genuinely precondition-free APIs are
                   allowlisted below, with justification).
  include-paths    quoted includes are src/-rooted module paths
                   ("core/dcdm.hpp"), never relative ("../x.hpp") or bare
                   filenames, and must resolve to a tracked file.
  no-naked-new     no `new` / `delete` expressions in src/ — ownership goes
                   through std::unique_ptr / containers.
  no-raw-abort     std::abort/exit/_Exit only inside util/contracts.hpp;
                   everything else fails through the contract macros so the
                   diagnostic names the violated condition.
  pragma-once      every header starts include-guarding with #pragma once.
  header-using     no `using namespace` at namespace scope in headers.
  verify-hygiene   every public mutating (non-const) method of the classes
                   named in src/verify/coverage_manifest.json is mapped to at
                   least one registered invariant (or carries an "exempt:"
                   justification), the manifest's invariant list matches
                   verify::kInvariantIds, and no manifest entry is stale.
                   Adding a mutating entry point to src/core/scmp.hpp or
                   src/fabric/mrouter_fabric.hpp fails lint until the
                   verification catalog covers it.
  obs-hygiene      every metric name passed to obs::counter/gauge/histogram
                   and every OBS_SPAN label in src/ (outside src/obs/ itself),
                   bench/ and examples/ is declared with the matching kind in
                   src/obs/metrics_manifest.json, and every declared entry is
                   still used somewhere — instrumentation and manifest cannot
                   drift apart in either direction. tests/ is exempt: tests
                   exercise the registry with throwaway "test.*" names.
                   Additionally, every net.tx.* metric's declared "tags" list
                   must equal the wire names of sim::PacketType (parsed from
                   to_string in src/sim/packet.cpp), so adding a packet type
                   without updating the tx-counter manifest fails lint.
  hot-path-alloc   the functions listed in HOT_PATH_FUNCS (DCDM's per-join
                   path, the tree operations it runs, the Dijkstra kernel,
                   its link-failure repair and the event core) must not
                   construct a std::vector or call the allocating
                   convenience accessors (members()/on_tree_nodes()/
                   sl_path()/lc_path()/path_to()) — they reuse
                   per-instance scratch buffers instead. A
                   deliberate exception carries a same- or previous-line
                   ``// hot-path: allow(<why>)`` annotation.

Suppression-manifest drift is not checked here: tools/determinism_lint.py
and tools/protocol_lint.py each pair their annotations with their manifest
in both directions, and ctest and CI run all three linters.

Usage: tools/lint.py [--root REPO_ROOT]
Exits non-zero when any finding is reported.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import sys

# Translation units whose public API has no checkable preconditions.
NO_CONTRACT_OK = {
    "src/sim/packet.cpp",   # enum-to-string formatters only
    "src/sim/trace.cpp",    # passive recorder; accepts any packet stream
}

# Local convenience headers test/bench sources may include unqualified.
LOCAL_INCLUDE_OK = {"helpers.hpp", "bench_common.hpp"}

# The invariant-coverage manifest the verify-hygiene rule cross-checks.
VERIFY_MANIFEST = "src/verify/coverage_manifest.json"
VERIFY_INVARIANTS_HPP = "src/verify/invariants.hpp"

# The observability-surface manifest the obs-hygiene rule cross-checks.
OBS_MANIFEST = "src/obs/metrics_manifest.json"

# Where the PacketType wire grammar lives: its to_string mapping feeds the
# obs-hygiene (net.tx tags) check.
PACKET_CPP = "src/sim/packet.cpp"

# Allocation-free hot paths: file -> function definitions the hot-path-alloc
# rule scans. join() runs per membership change — with its delay-cache
# refresh, the tree mutations it makes and the validate() it ensures —
# dijkstra_into() n times per path-database rebuild, the subtree repair
# (repair_after_removal, and the routing update built on it) once per source
# and metric per link failure, and the event-queue/transmit trio once per
# simulated event or link crossing; an
# accidental per-call allocation here is a real throughput regression even
# when every test stays green.
HOT_PATH_FUNCS = {
    "src/core/dcdm.cpp": ("DcdmTree::join", "DcdmTree::leave",
                          "DcdmTree::delay_bound_for",
                          "DcdmTree::refresh_delays"),
    "src/graph/multicast_tree.cpp": ("MulticastTree::graft_path",
                                     "MulticastTree::prune_upward_from",
                                     "MulticastTree::validate"),
    "src/graph/dijkstra.cpp": ("dijkstra_into", "repair_after_removal"),
    "src/sim/event_queue.cpp": ("EventQueue::schedule_at",
                                "EventQueue::run_next"),
    "src/sim/network.cpp": ("Network::transmit",),
    "src/sim/routing.cpp": ("UnicastRouting::remove_link",),
}

CONTRACT_RE = re.compile(r"\bSCMP_(EXPECTS|ENSURES|ASSERT)\s*\(")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')
NEW_RE = re.compile(r"\bnew\b\s*(?:\(|\[|[A-Za-z_:<])")
DELETE_RE = re.compile(r"(?<![=\w])\s*\bdelete\b\s*(?:\[\s*\])?\s*[A-Za-z_(*]")
ABORT_RE = re.compile(r"\b(?:std\s*::\s*)?(abort|_Exit|quick_exit|exit)\s*\(")
USING_NS_RE = re.compile(r"^\s*using\s+namespace\b")
OBS_SPAN_RE = re.compile(r'\bOBS_SPAN\s*\(\s*"([^"]+)"')
HOT_VECTOR_RE = re.compile(r"\bstd\s*::\s*vector\s*<")
HOT_ALLOC_CALL_RE = re.compile(
    r"[.>]\s*(members|on_tree_nodes|sl_path|lc_path|path_to)\s*\(")
HOT_ALLOW_RE = re.compile(r"hot-path:\s*allow\(")
OBS_METRIC_RE = re.compile(
    r'\bobs\s*::\s*(counter|gauge|histogram)\s*\(\s*"([^"]+)"')


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments, string literals and char literals, preserving
    line structure so reported line numbers stay accurate."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line | block | str | chr | raw
    raw_delim = ""
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
            if c == "R" and nxt == '"':
                m = re.match(r'R"([^()\s]*)\(', text[i:])
                if m:
                    raw_delim = ")" + m.group(1) + '"'
                    state = "raw"
                    i += m.end()
                    continue
            if c == '"':
                state = "str"
                out.append(c)
                i += 1
                continue
            if c == "'":
                state = "chr"
                out.append(c)
                i += 1
                continue
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
        elif state in ("str", "chr"):
            quote = '"' if state == "str" else "'"
            if c == "\\":
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(c)
            elif c == "\n":  # unterminated; bail to keep line numbers sane
                state = "code"
                out.append(c)
        elif state == "raw":
            end = text.find(raw_delim, i)
            if end == -1:
                break
            out.append("\n" * text.count("\n", i, end + len(raw_delim)))
            i = end + len(raw_delim)
            continue
        i += 1
    return "".join(out)


def strip_comments(text: str) -> str:
    """Blanks out comments only, preserving string literals and line
    structure — for rules that inspect the literals themselves (obs-hygiene
    reads metric/span names out of call arguments)."""
    out = []
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
            quote = '"' if state == "str" else "'"
            if c == "\\" and i + 1 < n:
                out.append(text[i:i + 2])
                i += 2
                continue
            if c == quote or c == "\n":
                state = "code"
            out.append(c)
        i += 1
    return "".join(out)


def function_bodies(code: str, name: str):
    """Yields (body_start_line, body_text) for every *definition* of
    ``name`` (qualified or not) in comment/string-stripped ``code``. Call
    sites are skipped: a definition's parameter list is followed by an
    optional const/noexcept and an opening brace, a call's by ``;`` or an
    operator."""
    n = len(code)
    for m in re.finditer(re.escape(name) + r"\s*\(", code):
        i = m.end() - 1
        depth = 0
        while i < n:
            if code[i] == "(":
                depth += 1
            elif code[i] == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        after = re.match(r"\s*(?:const\b\s*)?(?:noexcept\b\s*)?\{",
                         code[i + 1:])
        if not after:
            continue
        body_start = i + 1 + after.end()
        depth = 1
        j = body_start
        while j < n and depth > 0:
            if code[j] == "{":
                depth += 1
            elif code[j] == "}":
                depth -= 1
            j += 1
        yield code.count("\n", 0, body_start) + 1, code[body_start:j - 1]


def class_body_declarations(code: str, class_name: str) -> str | None:
    """Returns the top-level declaration text of ``class class_name``'s body
    with nested brace bodies (inline definitions, member structs) collapsed
    to ``;`` so every member reads as a ``;``-terminated declaration.
    ``code`` must already be comment/string-stripped."""
    m = re.search(rf"\bclass\s+{re.escape(class_name)}\b[^;{{]*{{", code)
    if not m:
        return None
    out: list[str] = []
    depth, pdepth = 1, 0
    for c in code[m.end():]:
        if c == "(" and depth == 1:
            pdepth += 1
        elif c == ")" and depth == 1 and pdepth > 0:
            pdepth -= 1
        if pdepth == 0:
            if c == "{":
                depth += 1
                continue
            if c == "}":
                depth -= 1
                if depth == 0:
                    break
                if depth == 1:
                    out.append(";")
                continue
        if depth == 1:
            out.append(c)
    return "".join(out)


def public_mutating_methods(code: str, class_name: str) -> set[str]:
    """Names of the public non-const member functions of ``class_name`` —
    the entry points that may mutate protocol state and therefore need
    invariant coverage. Constructors, destructors, operators and type/member
    declarations are skipped."""
    body = class_body_declarations(code, class_name)
    if body is None:
        return set()
    methods: set[str] = set()
    access = "private"  # class default
    for piece in re.split(r"\b(public|protected|private)\s*:", body):
        if piece in ("public", "protected", "private"):
            access = piece
            continue
        if access != "public":
            continue
        for decl in piece.split(";"):
            decl = " ".join(decl.split())
            paren = decl.find("(")
            if not decl or paren < 0:
                continue
            head = decl[:paren]
            first = head.split(None, 1)[0] if head.split() else ""
            if first in ("using", "typedef", "friend", "static_assert",
                         "struct", "class", "enum"):
                continue
            if "operator" in head or "~" in head:
                continue
            names = re.findall(r"[A-Za-z_]\w*", head)
            if not names or names[-1] == class_name:
                continue  # malformed or a constructor
            nested = 0
            close = paren
            for close in range(paren, len(decl)):
                nested += {"(": 1, ")": -1}.get(decl[close], 0)
                if nested == 0:
                    break
            if re.search(r"\bconst\b", decl[close + 1:]):
                continue  # const-qualified: cannot mutate state
            methods.add(names[-1])
    return methods


class Linter:
    def __init__(self, root: pathlib.Path):
        self.root = root
        self.findings: list[str] = []

    def report(self, path: pathlib.Path, line: int, rule: str, msg: str):
        rel = path.relative_to(self.root)
        self.findings.append(f"{rel}:{line}: {rule}: {msg}")

    # ---- rules -----------------------------------------------------------

    def check_contracts(self, path: pathlib.Path, code: str):
        rel = str(path.relative_to(self.root))
        if rel in NO_CONTRACT_OK:
            if CONTRACT_RE.search(code):
                self.report(path, 1, "contracts",
                            "file uses contracts; drop it from NO_CONTRACT_OK")
            return
        if not CONTRACT_RE.search(code):
            self.report(
                path, 1, "contracts",
                "no SCMP_EXPECTS/SCMP_ENSURES/SCMP_ASSERT in this translation "
                "unit; guard its public entry points (or allowlist it in "
                "tools/lint.py with a justification)")

    def check_includes(self, path: pathlib.Path, raw: str):
        in_tests = "tests/" in str(path.relative_to(self.root)) or \
                   "bench/" in str(path.relative_to(self.root))
        for lineno, line in enumerate(raw.splitlines(), 1):
            m = INCLUDE_RE.match(line)
            if not m:
                continue
            inc = m.group(1)
            if ".." in inc.split("/"):
                self.report(path, lineno, "include-paths",
                            f'relative include "{inc}"; use a src/-rooted '
                            'module path')
                continue
            if inc in LOCAL_INCLUDE_OK and in_tests:
                continue
            if "/" not in inc:
                self.report(path, lineno, "include-paths",
                            f'bare include "{inc}"; use a src/-rooted module '
                            'path like "core/dcdm.hpp"')
                continue
            if not (self.root / "src" / inc).is_file():
                self.report(path, lineno, "include-paths",
                            f'include "{inc}" does not resolve under src/')

    def check_naked_new(self, path: pathlib.Path, code: str):
        for lineno, line in enumerate(code.splitlines(), 1):
            if NEW_RE.search(line):
                self.report(path, lineno, "no-naked-new",
                            "`new` expression; use std::make_unique or a "
                            "container")
            if DELETE_RE.search(line):
                self.report(path, lineno, "no-naked-new",
                            "`delete` expression; ownership must be RAII")

    def check_raw_abort(self, path: pathlib.Path, code: str):
        if path.name == "contracts.hpp":
            return
        for lineno, line in enumerate(code.splitlines(), 1):
            m = ABORT_RE.search(line)
            if m:
                self.report(path, lineno, "no-raw-abort",
                            f"direct {m.group(1)}() call; fail through "
                            "SCMP_EXPECTS/SCMP_ASSERT so the diagnostic names "
                            "the condition")

    def check_pragma_once(self, path: pathlib.Path, code: str):
        for line in code.splitlines():
            s = line.strip()
            if not s:
                continue
            if s == "#pragma once":
                return
            self.report(path, 1, "pragma-once",
                        "header must start with #pragma once")
            return
        # empty header: fine

    def check_header_using(self, path: pathlib.Path, code: str):
        for lineno, line in enumerate(code.splitlines(), 1):
            if USING_NS_RE.match(line):
                self.report(path, lineno, "header-using",
                            "`using namespace` in a header leaks into every "
                            "includer")

    def check_verify_hygiene(self):
        manifest_path = self.root / VERIFY_MANIFEST
        if not manifest_path.is_file():
            self.report(manifest_path, 1, "verify-hygiene",
                        "coverage manifest is missing")
            return
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as err:
            self.report(manifest_path, getattr(err, "lineno", 1),
                        "verify-hygiene", f"manifest is not valid JSON: {err}")
            return

        # The manifest's invariant list must be exactly the registered ids
        # (the kInvariantIds catalog in invariants.hpp).
        registered = self._registered_invariants()
        declared = manifest.get("invariants", [])
        if registered is not None and sorted(declared) != sorted(registered):
            self.report(
                manifest_path, 1, "verify-hygiene",
                "manifest 'invariants' disagrees with kInvariantIds in "
                f"{VERIFY_INVARIANTS_HPP}: manifest={sorted(declared)} "
                f"registered={sorted(registered)}")
        valid_ids = set(declared) | set(registered or [])

        for rel, spec in manifest.get("entry_points", {}).items():
            header = self.root / rel
            if not header.is_file():
                self.report(manifest_path, 1, "verify-hygiene",
                            f"entry_points names missing file {rel}")
                continue
            raw = header.read_text(encoding="utf-8")
            code = strip_comments_and_strings(raw)
            cls = spec.get("class", "")
            found = public_mutating_methods(code, cls)
            if not found and class_body_declarations(code, cls) is None:
                self.report(manifest_path, 1, "verify-hygiene",
                            f"class {cls} not found in {rel}")
                continue
            mapped = spec.get("methods", {})
            for name in sorted(found - set(mapped)):
                line = 1
                m = re.search(rf"\b{re.escape(name)}\s*\(", code)
                if m:
                    line = code.count("\n", 0, m.start()) + 1
                self.report(
                    header, line, "verify-hygiene",
                    f"public mutating method {cls}::{name} has no invariant "
                    f"coverage; map it in {VERIFY_MANIFEST} (or exempt it "
                    "with a justification)")
            for name, cover in sorted(mapped.items()):
                if name not in found:
                    self.report(manifest_path, 1, "verify-hygiene",
                                f"stale manifest entry {cls}::{name}: no such "
                                f"public mutating method in {rel}")
                    continue
                if isinstance(cover, str):
                    if not cover.startswith("exempt:") or \
                            not cover[len("exempt:"):].strip():
                        self.report(
                            manifest_path, 1, "verify-hygiene",
                            f"{cls}::{name}: string coverage must be "
                            "'exempt: <justification>'")
                    continue
                if not isinstance(cover, list) or not cover:
                    self.report(
                        manifest_path, 1, "verify-hygiene",
                        f"{cls}::{name}: coverage must be a non-empty list "
                        "of invariant ids or an 'exempt:' string")
                    continue
                for inv in cover:
                    if inv not in valid_ids:
                        self.report(
                            manifest_path, 1, "verify-hygiene",
                            f"{cls}::{name}: unknown invariant id '{inv}'")

    def check_obs_hygiene(self):
        manifest_path = self.root / OBS_MANIFEST
        if not manifest_path.is_file():
            self.report(manifest_path, 1, "obs-hygiene",
                        "metrics manifest is missing")
            return
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as err:
            self.report(manifest_path, getattr(err, "lineno", 1),
                        "obs-hygiene", f"manifest is not valid JSON: {err}")
            return
        declared_metrics = {m["name"]: m.get("kind", "")
                            for m in manifest.get("metrics", [])}
        declared_spans = {s["name"] for s in manifest.get("spans", [])}

        used_metrics: dict[tuple[str, str], tuple[pathlib.Path, int]] = {}
        used_spans: dict[str, tuple[pathlib.Path, int]] = {}
        # src/obs is scanned like every other layer: its self-metrics
        # (obs.spans.dropped, obs.flight.dropped) must be declared too. The
        # dynamic span.<name>.seconds registration never matches the literal
        # obs::histogram("...") pattern, so it cannot leak in.
        for d in (self.root / "src", self.root / "bench",
                  self.root / "examples"):
            for path in sorted(d.rglob("*")):
                if path.suffix not in (".cpp", ".hpp"):
                    continue
                code = strip_comments(path.read_text(encoding="utf-8"))
                for lineno, line in enumerate(code.splitlines(), 1):
                    for kind, name in OBS_METRIC_RE.findall(line):
                        used_metrics.setdefault((name, kind), (path, lineno))
                    for name in OBS_SPAN_RE.findall(line):
                        used_spans.setdefault(name, (path, lineno))

        for (name, kind), (path, lineno) in sorted(used_metrics.items()):
            if name not in declared_metrics:
                self.report(path, lineno, "obs-hygiene",
                            f'metric "{name}" is not declared in '
                            f"{OBS_MANIFEST}")
            elif declared_metrics[name] != kind:
                self.report(
                    path, lineno, "obs-hygiene",
                    f'metric "{name}" used as a {kind} but declared as a '
                    f"{declared_metrics[name]} in {OBS_MANIFEST}")
        for name, (path, lineno) in sorted(used_spans.items()):
            if name not in declared_spans:
                self.report(path, lineno, "obs-hygiene",
                            f'span "{name}" is not declared in '
                            f"{OBS_MANIFEST}")
        used_metric_names = {name for name, _ in used_metrics}
        for name in sorted(set(declared_metrics) - used_metric_names):
            self.report(manifest_path, 1, "obs-hygiene",
                        f'stale manifest metric "{name}": no obs::counter/'
                        "gauge/histogram call uses it")
        for name in sorted(declared_spans - set(used_spans)):
            self.report(manifest_path, 1, "obs-hygiene",
                        f'stale manifest span "{name}": no OBS_SPAN uses it')

        # The per-type net.tx.* counters are tagged with to_string(t); their
        # declared "tags" lists must track the PacketType wire grammar
        # exactly, so a new packet type fails lint until the observability
        # surface acknowledges it.
        wire = self._packet_wire_names()
        if wire is not None:
            for entry in manifest.get("metrics", []):
                name = entry.get("name", "")
                if not name.startswith("net.tx."):
                    continue
                tags = entry.get("tags", [])
                missing = sorted(set(wire) - set(tags))
                unknown = sorted(set(tags) - set(wire))
                if missing or unknown:
                    self.report(
                        manifest_path, 1, "obs-hygiene",
                        f'metric "{name}" tags disagree with the PacketType '
                        f"wire names in {PACKET_CPP}: missing={missing} "
                        f"unknown={unknown}")

    def _packet_wire_names(self) -> list[str] | None:
        """The wire names to_string(PacketType) can produce — the tag values
        of the per-type net.tx.* counters."""
        cpp = self.root / PACKET_CPP
        if not cpp.is_file():
            self.report(cpp, 1, "obs-hygiene",
                        "PacketType to_string source is missing; update "
                        "PACKET_CPP in tools/lint.py")
            return None
        text = strip_comments(cpp.read_text(encoding="utf-8"))
        names = re.findall(
            r'case\s+(?:sim\s*::\s*)?PacketType\s*::\s*k\w+\s*:\s*'
            r'return\s+"([^"]+)"', text)
        if not names:
            self.report(cpp, 1, "obs-hygiene",
                        "no PacketType to_string cases found")
            return None
        return names

    def check_hot_paths(self):
        for rel, funcs in HOT_PATH_FUNCS.items():
            path = self.root / rel
            if not path.is_file():
                self.report(path, 1, "hot-path-alloc",
                            "file listed in HOT_PATH_FUNCS is missing")
                continue
            raw_lines = path.read_text(encoding="utf-8").splitlines()
            code = strip_comments_and_strings("\n".join(raw_lines))
            for name in funcs:
                found = False
                for start_line, body in function_bodies(code, name):
                    found = True
                    for off, line in enumerate(body.splitlines()):
                        lineno = start_line + off
                        hit = None
                        if HOT_VECTOR_RE.search(line):
                            hit = "std::vector constructed"
                        else:
                            m = HOT_ALLOC_CALL_RE.search(line)
                            if m:
                                hit = f"allocating call {m.group(1)}()"
                        if hit is None:
                            continue
                        # A deliberate exception is annotated on the same or
                        # the immediately preceding source line.
                        annotated = any(
                            0 < ln <= len(raw_lines) and
                            HOT_ALLOW_RE.search(raw_lines[ln - 1])
                            for ln in (lineno, lineno - 1))
                        if annotated:
                            continue
                        self.report(
                            path, lineno, "hot-path-alloc",
                            f"{hit} in hot path {name}(); reuse a scratch "
                            "buffer, or annotate the line with "
                            "`// hot-path: allow(<why>)`")
                if not found:
                    self.report(path, 1, "hot-path-alloc",
                                f"no definition of {name}() found; update "
                                "HOT_PATH_FUNCS in tools/lint.py")

    def _registered_invariants(self) -> list[str] | None:
        """The string values of the constants listed in kInvariantIds."""
        hpp = self.root / VERIFY_INVARIANTS_HPP
        if not hpp.is_file():
            self.report(hpp, 1, "verify-hygiene",
                        "invariants header is missing")
            return None
        text = hpp.read_text(encoding="utf-8")
        values = dict(re.findall(
            r'constexpr\s+const\s+char\*\s+(k\w+)\s*=\s*"([^"]+)"', text))
        block = re.search(r"kInvariantIds\[\]\s*=\s*\{([^}]*)\}", text)
        if not block:
            self.report(hpp, 1, "verify-hygiene",
                        "kInvariantIds[] not found")
            return None
        names = re.findall(r"k\w+", block.group(1))
        missing = [n for n in names if n not in values]
        if missing:
            self.report(hpp, 1, "verify-hygiene",
                        f"kInvariantIds entries without a string value: "
                        f"{missing}")
        return [values[n] for n in names if n in values]

    # ---- driver ----------------------------------------------------------

    def run(self) -> int:
        src = self.root / "src"
        all_dirs = [src, self.root / "tests", self.root / "bench",
                    self.root / "examples"]
        # The linter-fixture miniature repositories are deliberately not real
        # code (unresolvable includes, injected violations); their linting is
        # done by the fixture tests themselves.
        fixtures = self.root / "tests" / "tools" / "fixtures"
        for d in all_dirs:
            for path in sorted(d.rglob("*")):
                if path.suffix not in (".cpp", ".hpp"):
                    continue
                if fixtures in path.parents:
                    continue
                raw = path.read_text(encoding="utf-8")
                code = strip_comments_and_strings(raw)
                self.check_includes(path, raw)
                under_src = src in path.parents
                if under_src:
                    self.check_naked_new(path, code)
                    self.check_raw_abort(path, code)
                    if path.suffix == ".cpp":
                        self.check_contracts(path, code)
                if path.suffix == ".hpp":
                    self.check_pragma_once(path, code)
                    self.check_header_using(path, code)
        self.check_verify_hygiene()
        self.check_obs_hygiene()
        self.check_hot_paths()
        for f in self.findings:
            print(f)
        if self.findings:
            print(f"\ntools/lint.py: {len(self.findings)} finding(s)",
                  file=sys.stderr)
            return 1
        print("tools/lint.py: clean")
        return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", default=pathlib.Path(__file__).resolve().parent.parent,
                    type=pathlib.Path, help="repository root")
    args = ap.parse_args()
    return Linter(args.root.resolve()).run()


if __name__ == "__main__":
    sys.exit(main())
