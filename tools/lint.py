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
                   its link-failure repair, the event core, the per-hop
                   DATA path — SCMP's forwarding, IGMP's membership test
                   and the network's link crossing — and the
                   retransmission table's per-request arm/ack) must not
                   construct a std::vector or call the allocating
                   convenience accessors (members()/on_tree_nodes()/
                   sl_path()/lc_path()/path_to()) — they reuse
                   per-instance scratch buffers instead — nor call the
                   O(n) MulticastTree::validate(), whose per-operation
                   stand-ins are validate_graft()/validate_prune(). A
                   deliberate exception carries a same- or previous-line
                   ``// hot-path: allow(<why>)`` annotation; one that
                   suppresses nothing is itself a finding.

The scanning machinery (comment and literal stripping, bracket matching,
annotations, the source walker, findings) lives in tools/lintcore.py,
shared with tools/determinism_lint.py and tools/protocol_lint.py.
Hot-path annotations follow the same rule as those linters' annotations,
but have no manifest, so no suppression-manifest drift is checked here;
the other two linters pair their annotations with their manifests in both
directions, and ctest and CI run all three.

Usage: tools/lint.py [--root REPO_ROOT]
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
# rule scans. join() and leave() run per membership change — with the
# delay-cache refresh, the tree mutations they make and the local
# postconditions (validate_graft/validate_prune) they ensure —
# dijkstra_into() n times per path-store build, the subtree repair
# (repair_after_removal, and the store update built on it, first hops
# included) once per source and metric per link failure, the event core
# (schedule_at, a template defined in the header, the enqueue it ends in,
# and run_next) once per simulated event, and the retransmission table's
# arm and ack once per reliable control request (a ring slot indexed by
# request id, the resend closure stored inline). The per-hop DATA path runs
# once per link crossing: forward_data reads the entry and asks IGMP
# router_is_member, send_link or forward_unicast hands the packet to
# transmit. An accidental per-call allocation here is a real throughput
# regression even when every test stays green.
HOT_PATH_FUNCS = {
    "src/core/dcdm.cpp": ("DcdmTree::join", "DcdmTree::leave",
                          "DcdmTree::delay_bound_for",
                          "DcdmTree::refresh_delays"),
    "src/core/retx.cpp": ("RetxTable::arm", "RetxTable::ack"),
    "src/core/scmp.cpp": ("Scmp::forward_data",),
    "src/graph/multicast_tree.cpp": ("MulticastTree::graft_path",
                                     "MulticastTree::prune_upward_from",
                                     "MulticastTree::validate",
                                     "MulticastTree::validate_graft",
                                     "MulticastTree::validate_prune"),
    "src/graph/dijkstra.cpp": ("dijkstra_into", "repair_after_removal"),
    "src/graph/paths.cpp": ("AllPairsPaths::apply_link_event",),
    "src/igmp/igmp.cpp": ("IgmpDomain::router_is_member",),
    "src/sim/event_queue.hpp": ("EventQueue::schedule_at",),
    "src/sim/event_queue.cpp": ("EventQueue::enqueue",
                                "EventQueue::run_next"),
    "src/sim/network.cpp": ("Network::transmit", "Network::send_link",
                            "Network::forward_unicast"),
}

CONTRACT_RE = re.compile(r"\bSCMP_(EXPECTS|ENSURES|ASSERT)\s*\(")
NEW_RE = re.compile(r"\bnew\b\s*(?:\(|\[|[A-Za-z_:<])")
DELETE_RE = re.compile(r"(?<![=\w])\s*\bdelete\b\s*(?:\[\s*\])?\s*[A-Za-z_(*]")
ABORT_RE = re.compile(r"\b(?:std\s*::\s*)?(abort|_Exit|quick_exit|exit)\s*\(")
USING_NS_RE = re.compile(r"^\s*using\s+namespace\b")
OBS_SPAN_RE = re.compile(r'\bOBS_SPAN\s*\(\s*"([^"]+)"')
HOT_VECTOR_RE = re.compile(r"\bstd\s*::\s*vector\s*<")
HOT_ALLOC_CALL_RE = re.compile(
    r"[.>]\s*(members|on_tree_nodes|sl_path|lc_path|path_to)\s*\(")
HOT_VALIDATE_RE = re.compile(r"\bvalidate\s*\(")
HOT_ALLOW = "hot-path: allow"
OBS_METRIC_RE = re.compile(
    r'\bobs\s*::\s*(counter|gauge|histogram)\s*\(\s*"([^"]+)"')


def function_bodies(code: str, name: str):
    """Yields (body_start_line, body_text) for every *definition* of
    ``name`` (qualified or not) in comment/string-stripped ``code``. Call
    sites are skipped: a definition's parameter list is followed by an
    optional const/noexcept and an opening brace, a call's by ``;`` or an
    operator."""
    for m in re.finditer(re.escape(name) + r"\s*\(", code):
        params_end = closing(code, m.end() - 1) + 1
        after = re.match(r"\s*(?:const\b\s*)?(?:noexcept\b\s*)?\{",
                         code[params_end:])
        if not after:
            continue
        body_open = params_end + after.end() - 1
        yield (line_of(code, body_open + 1),
               code[body_open + 1:closing(code, body_open)])


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
            if re.search(r"\bconst\b", decl[closing(decl, paren) + 1:]):
                continue  # const-qualified: cannot mutate state
            methods.add(names[-1])
    return methods


class RepoLinter(Linter):
    def __init__(self, root: pathlib.Path):
        super().__init__("tools/lint.py")
        self.root = root
        self.files: dict[str, SourceFile] = {}

    # ---- rules -----------------------------------------------------------

    def check_contracts(self, f: SourceFile):
        if f.rel in NO_CONTRACT_OK:
            if CONTRACT_RE.search(f.code):
                self.report(f.rel, 1, "contracts",
                            "file uses contracts; drop it from NO_CONTRACT_OK")
            return
        if not CONTRACT_RE.search(f.code):
            self.report(
                f.rel, 1, "contracts",
                "no SCMP_EXPECTS/SCMP_ENSURES/SCMP_ASSERT in this translation "
                "unit; guard its public entry points (or allowlist it in "
                "tools/lint.py with a justification)")

    def check_includes(self, f: SourceFile):
        in_tests = "tests/" in f.rel or "bench/" in f.rel
        for lineno, line in enumerate(f.raw_lines, 1):
            m = INCLUDE_RE.match(line)
            if not m:
                continue
            inc = m.group(1)
            if ".." in inc.split("/"):
                self.report(f.rel, lineno, "include-paths",
                            f'relative include "{inc}"; use a src/-rooted '
                            'module path')
                continue
            if inc in LOCAL_INCLUDE_OK and in_tests:
                continue
            if "/" not in inc:
                self.report(f.rel, lineno, "include-paths",
                            f'bare include "{inc}"; use a src/-rooted module '
                            'path like "core/dcdm.hpp"')
                continue
            if not (self.root / "src" / inc).is_file():
                self.report(f.rel, lineno, "include-paths",
                            f'include "{inc}" does not resolve under src/')

    def check_naked_new(self, f: SourceFile):
        for lineno, line in enumerate(f.code_lines, 1):
            if NEW_RE.search(line):
                self.report(f.rel, lineno, "no-naked-new",
                            "`new` expression; use std::make_unique or a "
                            "container")
            if DELETE_RE.search(line):
                self.report(f.rel, lineno, "no-naked-new",
                            "`delete` expression; ownership must be RAII")

    def check_raw_abort(self, f: SourceFile):
        if f.path.name == "contracts.hpp":
            return
        for lineno, line in enumerate(f.code_lines, 1):
            m = ABORT_RE.search(line)
            if m:
                self.report(f.rel, lineno, "no-raw-abort",
                            f"direct {m.group(1)}() call; fail through "
                            "SCMP_EXPECTS/SCMP_ASSERT so the diagnostic names "
                            "the condition")

    def check_pragma_once(self, f: SourceFile):
        first = next((s for s in map(str.strip, f.code_lines) if s), None)
        if first is not None and first != "#pragma once":  # empty is fine
            self.report(f.rel, 1, "pragma-once",
                        "header must start with #pragma once")

    def check_header_using(self, f: SourceFile):
        for lineno, line in enumerate(f.code_lines, 1):
            if USING_NS_RE.match(line):
                self.report(f.rel, lineno, "header-using",
                            "`using namespace` in a header leaks into every "
                            "includer")

    def check_verify_hygiene(self):
        manifest = self.load_json(self.root / VERIFY_MANIFEST,
                                  "verify-hygiene", "coverage manifest",
                                  shown=VERIFY_MANIFEST)
        if manifest is None:
            return

        # The manifest's invariant list must be exactly the registered ids
        # (the kInvariantIds catalog in invariants.hpp).
        registered = self._registered_invariants()
        declared = manifest.get("invariants", [])
        if registered is not None and sorted(declared) != sorted(registered):
            self.report(
                VERIFY_MANIFEST, 1, "verify-hygiene",
                "manifest 'invariants' disagrees with kInvariantIds in "
                f"{VERIFY_INVARIANTS_HPP}: manifest={sorted(declared)} "
                f"registered={sorted(registered)}")
        valid_ids = set(declared) | set(registered or [])

        for rel, spec in manifest.get("entry_points", {}).items():
            header = self.root / rel
            if not header.is_file():
                self.report(VERIFY_MANIFEST, 1, "verify-hygiene",
                            f"entry_points names missing file {rel}")
                continue
            code = strip_source(header.read_text(encoding="utf-8"))
            cls = spec.get("class", "")
            found = public_mutating_methods(code, cls)
            if not found and class_body_declarations(code, cls) is None:
                self.report(VERIFY_MANIFEST, 1, "verify-hygiene",
                            f"class {cls} not found in {rel}")
                continue
            mapped = spec.get("methods", {})
            for name in sorted(found - set(mapped)):
                m = re.search(rf"\b{re.escape(name)}\s*\(", code)
                self.report(
                    rel, line_of(code, m.start()) if m else 1,
                    "verify-hygiene",
                    f"public mutating method {cls}::{name} has no invariant "
                    f"coverage; map it in {VERIFY_MANIFEST} (or exempt it "
                    "with a justification)")
            for name, cover in sorted(mapped.items()):
                if name not in found:
                    self.report(VERIFY_MANIFEST, 1, "verify-hygiene",
                                f"stale manifest entry {cls}::{name}: no such "
                                f"public mutating method in {rel}")
                    continue
                if isinstance(cover, str):
                    if not cover.startswith("exempt:") or \
                            not cover[len("exempt:"):].strip():
                        self.report(
                            VERIFY_MANIFEST, 1, "verify-hygiene",
                            f"{cls}::{name}: string coverage must be "
                            "'exempt: <justification>'")
                    continue
                if not isinstance(cover, list) or not cover:
                    self.report(
                        VERIFY_MANIFEST, 1, "verify-hygiene",
                        f"{cls}::{name}: coverage must be a non-empty list "
                        "of invariant ids or an 'exempt:' string")
                    continue
                for inv in cover:
                    if inv not in valid_ids:
                        self.report(
                            VERIFY_MANIFEST, 1, "verify-hygiene",
                            f"{cls}::{name}: unknown invariant id '{inv}'")

    def check_obs_hygiene(self):
        manifest = self.load_json(self.root / OBS_MANIFEST, "obs-hygiene",
                                  "metrics manifest", shown=OBS_MANIFEST)
        if manifest is None:
            return
        declared_metrics = {m["name"]: m.get("kind", "")
                            for m in manifest.get("metrics", [])}
        declared_spans = {s["name"] for s in manifest.get("spans", [])}

        used_metrics: dict[tuple[str, str], tuple[str, int]] = {}
        used_spans: dict[str, tuple[str, int]] = {}
        # src/obs is scanned like every other layer: its self-metrics
        # (obs.spans.dropped, obs.flight.dropped) must be declared too. The
        # dynamic span.<name>.seconds registration never matches the literal
        # obs::histogram("...") pattern, so it cannot leak in.
        for f in self.files.values():
            if not f.rel.startswith(("src/", "bench/", "examples/")):
                continue
            code = strip_source(f.raw, keep_strings=True)
            for lineno, line in enumerate(code.splitlines(), 1):
                for kind, name in OBS_METRIC_RE.findall(line):
                    used_metrics.setdefault((name, kind), (f.rel, lineno))
                for name in OBS_SPAN_RE.findall(line):
                    used_spans.setdefault(name, (f.rel, lineno))

        for (name, kind), (rel, lineno) in sorted(used_metrics.items()):
            if name not in declared_metrics:
                self.report(rel, lineno, "obs-hygiene",
                            f'metric "{name}" is not declared in '
                            f"{OBS_MANIFEST}")
            elif declared_metrics[name] != kind:
                self.report(
                    rel, lineno, "obs-hygiene",
                    f'metric "{name}" used as a {kind} but declared as a '
                    f"{declared_metrics[name]} in {OBS_MANIFEST}")
        for name, (rel, lineno) in sorted(used_spans.items()):
            if name not in declared_spans:
                self.report(rel, lineno, "obs-hygiene",
                            f'span "{name}" is not declared in '
                            f"{OBS_MANIFEST}")
        used_metric_names = {name for name, _ in used_metrics}
        for name in sorted(set(declared_metrics) - used_metric_names):
            self.report(OBS_MANIFEST, 1, "obs-hygiene",
                        f'stale manifest metric "{name}": no obs::counter/'
                        "gauge/histogram call uses it")
        for name in sorted(declared_spans - set(used_spans)):
            self.report(OBS_MANIFEST, 1, "obs-hygiene",
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
                        OBS_MANIFEST, 1, "obs-hygiene",
                        f'metric "{name}" tags disagree with the PacketType '
                        f"wire names in {PACKET_CPP}: missing={missing} "
                        f"unknown={unknown}")

    def _packet_wire_names(self) -> list[str] | None:
        """The wire names to_string(PacketType) can produce — the tag values
        of the per-type net.tx.* counters."""
        cpp = self.root / PACKET_CPP
        if not cpp.is_file():
            self.report(PACKET_CPP, 1, "obs-hygiene",
                        "PacketType to_string source is missing; update "
                        "PACKET_CPP in tools/lint.py")
            return None
        text = strip_source(cpp.read_text(encoding="utf-8"),
                            keep_strings=True)
        names = re.findall(
            r'case\s+(?:sim\s*::\s*)?PacketType\s*::\s*k\w+\s*:\s*'
            r'return\s+"([^"]+)"', text)
        if not names:
            self.report(PACKET_CPP, 1, "obs-hygiene",
                        "no PacketType to_string cases found")
            return None
        return names

    def check_hot_paths(self):
        for rel, funcs in HOT_PATH_FUNCS.items():
            f = self.files.get(rel)
            if f is None:
                self.report(rel, 1, "hot-path-alloc",
                            "file listed in HOT_PATH_FUNCS is missing")
                continue
            for name in funcs:
                found = False
                for start_line, body in function_bodies(f.code, name):
                    found = True
                    for lineno, line in enumerate(body.splitlines(),
                                                  start_line):
                        hit = None
                        if HOT_VECTOR_RE.search(line):
                            hit = ("std::vector constructed",
                                   "reuse a scratch buffer")
                        elif HOT_VALIDATE_RE.search(line):
                            hit = ("O(n) validate() call",
                                   "check what the operation touched")
                        else:
                            m = HOT_ALLOC_CALL_RE.search(line)
                            if m:
                                hit = (f"allocating call {m.group(1)}()",
                                       "reuse a scratch buffer")
                        if hit is None or self.suppressed(
                                f, lineno, HOT_ALLOW, "hot-path-alloc"):
                            continue
                        self.report(
                            rel, lineno, "hot-path-alloc",
                            f"{hit[0]} in hot path {name}(); {hit[1]}, or "
                            "annotate the line with "
                            "`// hot-path: allow(<why>)`")
                if not found:
                    self.report(rel, 1, "hot-path-alloc",
                                f"no definition of {name}() found; update "
                                "HOT_PATH_FUNCS in tools/lint.py")
        # Hot-path annotations have no manifest, but one that silences
        # nothing is a finding like any other unused suppression.
        self.check_unused(self.files.values(), "hot-path-alloc",
                          "delete it")

    def _registered_invariants(self) -> list[str] | None:
        """The string values of the constants listed in kInvariantIds."""
        hpp = self.root / VERIFY_INVARIANTS_HPP
        if not hpp.is_file():
            self.report(VERIFY_INVARIANTS_HPP, 1, "verify-hygiene",
                        "invariants header is missing")
            return None
        text = hpp.read_text(encoding="utf-8")
        values = dict(re.findall(
            r'constexpr\s+const\s+char\*\s+(k\w+)\s*=\s*"([^"]+)"', text))
        block = re.search(r"kInvariantIds\[\]\s*=\s*\{([^}]*)\}", text)
        if not block:
            self.report(VERIFY_INVARIANTS_HPP, 1, "verify-hygiene",
                        "kInvariantIds[] not found")
            return None
        names = re.findall(r"k\w+", block.group(1))
        missing = [n for n in names if n not in values]
        if missing:
            self.report(VERIFY_INVARIANTS_HPP, 1, "verify-hygiene",
                        f"kInvariantIds entries without a string value: "
                        f"{missing}")
        return [values[n] for n in names if n in values]

    # ---- driver ----------------------------------------------------------

    def run(self) -> int:
        # The linter-fixture miniature repositories are deliberately not real
        # code (unresolvable includes, injected violations); their linting is
        # done by the fixture tests themselves.
        fixtures = self.root / "tests" / "tools" / "fixtures"
        for path in walk_sources(self.root,
                                 ("src", "tests", "bench", "examples"),
                                 skip=fixtures):
            f = SourceFile(self.root, path, (HOT_ALLOW,))
            self.files[f.rel] = f
            self.check_includes(f)
            if f.rel.startswith("src/"):
                self.check_naked_new(f)
                self.check_raw_abort(f)
                if path.suffix == ".cpp":
                    self.check_contracts(f)
            if path.suffix == ".hpp":
                self.check_pragma_once(f)
                self.check_header_using(f)
        self.check_verify_hygiene()
        self.check_obs_hygiene()
        self.check_hot_paths()
        return self.finish()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", default=pathlib.Path(__file__).resolve().parent.parent,
                    type=pathlib.Path, help="repository root")
    args = ap.parse_args()
    return RepoLinter(args.root.resolve()).run()


if __name__ == "__main__":
    sys.exit(main())
