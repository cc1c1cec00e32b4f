#!/usr/bin/env python3
"""Docs consistency gate (run by the CI docs job and locally).

1. Every intra-repo markdown link in README.md, ROADMAP.md, CHANGES.md and
   docs/*.md must resolve to an existing file (anchors are stripped;
   external http(s)/mailto links are ignored).
2. Every snippet embedded in docs/*.md between `<!-- BEGIN <file> -->` /
   `<!-- END <file> -->` markers must be byte-identical to examples/<file>
   (quickstart.cpp, sharded_quickstart.cpp, ...).
3. docs/CONCURRENCY.md stays in sync with the code it documents: every
   API name its "## API surface" section attributes to a header must
   literally appear in that header, and the canonical contract-C4 wording
   ("schedule-independent commit") must appear both in the doc and in the
   headers that claim it.
4. The Graph access API stays in sync: the sorted-view surface
   (NeighborView, EdgeDelta, apply_edge_deltas, ...) must appear both in
   docs/API.md and as code tokens in src/graph/graph.h, FlatCountMap must
   exist and be named by docs/DESIGN.md, and unordered_set must never
   reappear in the Graph header.
4b. The repair path stays hash-free: no unordered_map/unordered_set code
   token in the structural core, the sharded forest, or the dist engine
   (the PR-8 flat-container acceptance criterion — SlotTable, sorted-flat
   analysis sets, and binary-searched DAG knowledge replaced them all).
5. The healer-service surface stays in sync: the serving-loop names
   (HealerService, ChurnOp, certify_every, ...) must appear both in
   docs/API.md and as code tokens in src/fg/healer_service.h, and
   docs/DESIGN.md must keep its "Healer service" section.
5b. The self-stabilization surface stays in sync: the audit/recovery
   names (Stabilizer, AuditReport, ViolationKind, ...) must appear both
   in docs/API.md and as code tokens in src/fg/stabilizer.h,
   docs/SELF_STABILIZATION.md must exist and name every violation-kind
   string the auditor can report, and docs/DESIGN.md must keep its
   "Self-stabilizing recovery" section.
6. The certificate subsystem keeps its independence guarantee
   (docs/CERTIFICATES.md): src/cert sources never include engine headers
   (fg/, harness/, heal/, net/, adversary/), the fgcheck link line in
   CMakeLists.txt names fg_cert only (never fg_core), the cert API names
   documented in docs/CERTIFICATES.md exist as code tokens in their
   headers, and the "fgcert 1" format version string matches between the
   doc and src/cert/certificate.h.

Exits non-zero with a per-problem report on any violation.
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def markdown_files():
    for name in ("README.md", "ROADMAP.md", "CHANGES.md"):
        p = REPO / name
        if p.exists():
            yield p
    yield from sorted((REPO / "docs").glob("*.md"))


def check_links():
    problems = []
    for md in markdown_files():
        in_fence = False
        for lineno, line in enumerate(md.read_text().splitlines(), 1):
            if line.lstrip().startswith("```"):
                in_fence = not in_fence
                continue
            if in_fence:  # code, not markdown: [&](NodeId x) is not a link
                continue
            for target in LINK_RE.findall(line):
                if target.startswith(("http://", "https://", "mailto:")):
                    continue
                path = target.split("#", 1)[0]
                if not path:  # pure in-page anchor
                    continue
                resolved = (md.parent / path).resolve()
                if not resolved.exists():
                    problems.append(
                        f"{md.relative_to(REPO)}:{lineno}: broken link -> {target}")
    return problems


# Snippets that must exist somewhere in docs/ (a deleted marker pair would
# otherwise silently drop the check).
REQUIRED_SNIPPETS = (
    "quickstart.cpp",
    "sharded_quickstart.cpp",
    "healer_service_quickstart.cpp",
)

SNIPPET_RE = re.compile(
    r"<!-- BEGIN (?P<name>[\w.\-]+) -->\n```cpp\n(?P<body>.*?)```\n<!-- END (?P=name) -->",
    re.S,
)


def check_snippet_sync():
    problems = []
    seen = set()
    for md in markdown_files():
        for m in SNIPPET_RE.finditer(md.read_text()):
            name = m.group("name")
            seen.add(name)
            example = REPO / "examples" / name
            if not example.exists():
                problems.append(
                    f"{md.relative_to(REPO)}: snippet marker {name} has no examples/{name}")
                continue
            if m.group("body") != example.read_text():
                problems.append(
                    f"{md.relative_to(REPO)}: embedded {name} snippet differs from "
                    f"examples/{name} — copy the file verbatim between the markers")
    for name in REQUIRED_SNIPPETS:
        if name not in seen:
            problems.append(f"docs: required snippet markers for {name} missing")
    return problems


# The canonical C4 phrase: the concurrency doc pins it, and the headers
# that promise it must keep using the same words (a silent rewording in
# either place is drift).
C4_PHRASE = "schedule-independent commit"
C4_FILES = (
    "docs/CONCURRENCY.md",
    "src/fg/sharded_forest.h",
    "src/fg/core/structural_core.h",
)

# "- `src/...h` — `name`, `name`, ..." bullets of the API surface section.
API_ENTRY_RE = re.compile(r"- `(?P<header>src/[^`]+)` — (?P<names>.*?)(?=\n- |\n\n|\Z)", re.S)
API_NAME_RE = re.compile(r"`([^`]+)`")

COMMENT_RE = re.compile(r"//[^\n]*|/\*.*?\*/", re.S)


def header_code(path):
    """Header text with comments stripped: an API name must survive as a
    code token, not merely appear in prose (otherwise short names like
    `commit` could never fail the check)."""
    return COMMENT_RE.sub("", path.read_text())


def check_concurrency_sync():
    doc = REPO / "docs" / "CONCURRENCY.md"
    if not doc.exists():
        return ["docs/CONCURRENCY.md: missing (the concurrency model doc is required)"]
    problems = []
    text = doc.read_text()

    for rel in C4_FILES:
        path = REPO / rel
        if not path.exists():
            problems.append(f"{rel}: missing, but docs/CONCURRENCY.md documents it")
        elif C4_PHRASE not in path.read_text():
            problems.append(
                f"{rel}: C4 wording drifted — must contain the canonical phrase "
                f"\"{C4_PHRASE}\" (docs/CONCURRENCY.md pins it)")

    marker = "## API surface"
    if marker not in text:
        return problems + [
            "docs/CONCURRENCY.md: missing the '## API surface' section the sync check reads"]
    section = text.split(marker, 1)[1]
    entries = API_ENTRY_RE.findall(section)
    if not entries:
        problems.append("docs/CONCURRENCY.md: API surface section lists no headers")
    for header, names in entries:
        path = REPO / header
        if not path.exists():
            problems.append(f"docs/CONCURRENCY.md: API surface names missing header {header}")
            continue
        code = header_code(path)
        for name in API_NAME_RE.findall(names):
            if not re.search(r"\b" + re.escape(name) + r"\b", code):
                problems.append(
                    f"docs/CONCURRENCY.md: `{name}` is attributed to {header} "
                    "but does not appear in its code — update the doc or the header")
    return problems


# The Graph access API gate: the sorted-view surface documented in
# docs/API.md and docs/DESIGN.md must exist as code tokens in its header,
# and the redesign's acceptance criterion — no unordered_set anywhere in
# the Graph public API — is pinned here so it cannot silently regress.
GRAPH_API_NAMES = (
    "NeighborView",
    "EdgeDelta",
    "apply_edge_deltas",
    "for_each_neighbor",
    "neighbors",
)
GRAPH_HEADER = "src/graph/graph.h"
FLAT_MAP_HEADER = "src/util/flat_count_map.h"

# The hash-free repair path (PR 8): these files must never regrow an
# unordered container — the hot paths run on SlotTable, sorted-flat
# victim/dirty sets, and binary-searched DAG knowledge instead.
FLAT_ONLY_FILES = (
    "src/fg/core/structural_core.h",
    "src/fg/core/structural_core.cpp",
    "src/fg/core/slot_table.h",
    "src/fg/sharded_forest.h",
    "src/fg/sharded_forest.cpp",
    "src/fg/dist/dist_forgiving_graph.h",
    "src/fg/dist/dist_forgiving_graph.cpp",
    "src/net/network.h",
    "src/net/network.cpp",
)


def check_graph_api_sync():
    problems = []
    header = REPO / GRAPH_HEADER
    api_md = (REPO / "docs" / "API.md").read_text()
    design_md = (REPO / "docs" / "DESIGN.md").read_text()
    if not header.exists():
        return [f"{GRAPH_HEADER}: missing, but the docs document its API"]
    code = header_code(header)
    for name in GRAPH_API_NAMES:
        if not re.search(r"\b" + re.escape(name) + r"\b", code):
            problems.append(
                f"{GRAPH_HEADER}: documented Graph API name `{name}` does not "
                "appear in its code — update docs/API.md or the header")
        if name not in api_md:
            problems.append(
                f"docs/API.md: Graph API name `{name}` is undocumented — the "
                "Graph section must cover the full access surface")
    if re.search(r"\bunordered_set\b", code):
        problems.append(
            f"{GRAPH_HEADER}: unordered_set crept back into the Graph API — "
            "neighbors() must stay a sorted flat view (docs/DESIGN.md, "
            "'Graph substrate')")
    for rel in FLAT_ONLY_FILES:
        path = REPO / rel
        if not path.exists():
            problems.append(f"{rel}: missing, but the flat-container ban covers it")
            continue
        if re.search(r"\bunordered_(?:map|set)\b", header_code(path)):
            problems.append(
                f"{rel}: unordered_map/unordered_set crept back into the "
                "repair path — the core, the sharded forest, the dist "
                "engine and the network simulator are flat only (SlotTable, "
                "binary-searched analysis sets, NodeId-indexed counters; "
                "docs/DESIGN.md, docs/CONCURRENCY.md)")
    flat_map = REPO / FLAT_MAP_HEADER
    if not flat_map.exists():
        problems.append(
            f"{FLAT_MAP_HEADER}: missing, but docs/DESIGN.md documents the "
            "flat multiplicity map")
    elif not re.search(r"\bFlatCountMap\b", header_code(flat_map)):
        problems.append(f"{FLAT_MAP_HEADER}: FlatCountMap not found in its code")
    if "FlatCountMap" not in design_md:
        problems.append(
            "docs/DESIGN.md: the substrate section must name FlatCountMap "
            "(the image-multiplicity representation)")
    return problems


# The healer-service gate: the serving-loop surface documented in
# docs/API.md and docs/DESIGN.md must exist as code tokens in its header,
# and both docs must actually carry their sections (a deleted heading
# would silently orphan the quickstart and the API table).
HEALER_HEADER = "src/fg/healer_service.h"
HEALER_API_NAMES = (
    "HealerService",
    "HealerConfig",
    "HealerStats",
    "ChurnOp",
    "ChurnStream",
    "VectorChurnStream",
    "wave_size",
    "certify_every",
    "push",
    "flush",
    "run",
    "set_alert",
    "set_certificate_stream",
    "set_admission_hook",
    "break_workers",
    "stale_replans",
    "cert_rejections",
    "latency_percentile",
    "audit_every",
    "audits",
    "audit_violations",
    "recoveries",
)


def check_healer_service_sync():
    problems = []
    header = REPO / HEALER_HEADER
    api_md = (REPO / "docs" / "API.md").read_text()
    design_md = (REPO / "docs" / "DESIGN.md").read_text()
    if not header.exists():
        return [f"{HEALER_HEADER}: missing, but the docs document its API"]
    code = header_code(header)
    for name in HEALER_API_NAMES:
        if not re.search(r"\b" + re.escape(name) + r"\b", code):
            problems.append(
                f"{HEALER_HEADER}: documented healer-service API name `{name}` "
                "does not appear in its code — update docs/API.md or the header")
        if name not in api_md:
            problems.append(
                f"docs/API.md: healer-service API name `{name}` is "
                "undocumented — the HealerService section must cover the "
                "full serving-loop surface")
    if "## Healer service" not in design_md:
        problems.append(
            "docs/DESIGN.md: missing the 'Healer service' section "
            "(snapshot-based planning, epoch-gated admission, sampled "
            "certificate guardrail)")
    if "fg/healer_service.h" not in api_md:
        problems.append(
            "docs/API.md: the HealerService section must name its header "
            "(fg/healer_service.h)")
    return problems


# The self-stabilization gate: the audit/recovery surface documented in
# docs/API.md must exist as code tokens in src/fg/stabilizer.h, the
# dedicated doc must exist and cover every violation-kind string the
# auditor can report (its rules table mirrors the ViolationKind enum),
# and docs/DESIGN.md must keep its recovery section.
STABILIZER_HEADER = "src/fg/stabilizer.h"
STABILIZER_API_NAMES = (
    "Stabilizer",
    "AuditReport",
    "AuditViolation",
    "ViolationKind",
    "RecoveryStats",
    "violation_kind_name",
    "audit",
    "stabilize",
    "clean",
    "summary",
)
VIOLATION_KIND_NAMES = (
    "row-link", "row-aggregate", "row-ownership", "row-slot-backing",
    "rep-invariant", "helper-ancestry", "slot-ghost", "slot-edge",
    "missing-anchor", "split-dead-cluster", "image-drift",
    "multiplicity-drift",
)


def check_stabilizer_sync():
    problems = []
    header = REPO / STABILIZER_HEADER
    doc = REPO / "docs" / "SELF_STABILIZATION.md"
    api_md = (REPO / "docs" / "API.md").read_text()
    design_md = (REPO / "docs" / "DESIGN.md").read_text()
    if not header.exists():
        return [f"{STABILIZER_HEADER}: missing, but the docs document its API"]
    if not doc.exists():
        return ["docs/SELF_STABILIZATION.md: missing (the recovery-mode doc "
                "is required)"]
    code = header_code(header)
    for name in STABILIZER_API_NAMES:
        if not re.search(r"\b" + re.escape(name) + r"\b", code):
            problems.append(
                f"{STABILIZER_HEADER}: documented stabilizer API name "
                f"`{name}` does not appear in its code — update docs/API.md "
                "or the header")
        if name not in api_md:
            problems.append(
                f"docs/API.md: stabilizer API name `{name}` is undocumented "
                "— the Stabilizer section must cover the audit/recovery "
                "surface")
    doc_text = doc.read_text()
    stabilizer_cpp = (REPO / "src" / "fg" / "stabilizer.cpp").read_text()
    for kind in VIOLATION_KIND_NAMES:
        if f'"{kind}"' not in stabilizer_cpp:
            problems.append(
                f"src/fg/stabilizer.cpp: violation kind string \"{kind}\" "
                "not found — the doc's rules table and the enum drifted")
        if f"`{kind}`" not in doc_text:
            problems.append(
                f"docs/SELF_STABILIZATION.md: violation kind `{kind}` is "
                "undocumented — the auditor rules table must mirror "
                "ViolationKind")
    if "## Self-stabilizing recovery" not in design_md:
        problems.append(
            "docs/DESIGN.md: missing the 'Self-stabilizing recovery' section "
            "(audit rules, quarantine closure, pipeline-reusing recovery)")
    if "audit_every" not in doc_text:
        problems.append(
            "docs/SELF_STABILIZATION.md: must describe the serving-loop "
            "wiring (HealerConfig::audit_every)")
    return problems


# The snapshot-subsystem gate (docs/SNAPSHOTS.md): the doc must exist, its
# "## API surface" names must be code tokens in the headers they are
# attributed to, the key producer/consumer names must be documented in
# docs/API.md, the "fgsnap 1" format version string must match between the
# doc and src/snap/snapshot.h, the fgsnap link line must name fg_snap and
# never an engine library (the independence argument, mirroring fgcheck),
# and docs/DESIGN.md must keep its "Durable snapshots" section.
SNAP_VERSION = "fgsnap 1"
SNAP_API_MD_NAMES = (
    "SnapshotWriter",
    "SnapshotRecorder",
    "restore_snapshot",
    "SnapshotRestore",
    "snapshot_every",
    "snapshot_path",
    "to_base_image",
    "from_base_image",
    "apply_wave_delta",
    "try_load",
)


def check_snapshot_sync():
    doc = REPO / "docs" / "SNAPSHOTS.md"
    if not doc.exists():
        return ["docs/SNAPSHOTS.md: missing (the snapshot-format doc is required)"]
    problems = []
    doc_text = doc.read_text()
    api_md = (REPO / "docs" / "API.md").read_text()
    design_md = (REPO / "docs" / "DESIGN.md").read_text()

    marker = "## API surface"
    if marker not in doc_text:
        problems.append(
            "docs/SNAPSHOTS.md: missing the '## API surface' section the sync "
            "check reads")
    else:
        section = doc_text.split(marker, 1)[1]
        entries = API_ENTRY_RE.findall(section)
        if not entries:
            problems.append("docs/SNAPSHOTS.md: API surface section lists no headers")
        for header, names in entries:
            path = REPO / header
            if not path.exists():
                problems.append(
                    f"docs/SNAPSHOTS.md: API surface names missing header {header}")
                continue
            code = header_code(path)
            for name in API_NAME_RE.findall(names):
                if not re.search(r"\b" + re.escape(name) + r"\b", code):
                    problems.append(
                        f"docs/SNAPSHOTS.md: `{name}` is attributed to {header} "
                        "but does not appear in its code — update the doc or "
                        "the header")

    for name in SNAP_API_MD_NAMES:
        if name not in api_md:
            problems.append(
                f"docs/API.md: snapshot API name `{name}` is undocumented — "
                "the durable-snapshot section must cover the producer and "
                "restore surface")

    snap_header = (REPO / "src" / "snap" / "snapshot.h").read_text()
    if f'"{SNAP_VERSION}' not in snap_header:
        problems.append(
            f"src/snap/snapshot.h: format magic \"{SNAP_VERSION}\" not found "
            "— bumping the version means updating this gate and "
            "docs/SNAPSHOTS.md together")
    if f"`{SNAP_VERSION}`" not in doc_text:
        problems.append(
            f"docs/SNAPSHOTS.md: must name the current format version "
            f"(`{SNAP_VERSION}`) — the grammar section is versioned")

    cmake = (REPO / "CMakeLists.txt").read_text()
    link = re.search(r"target_link_libraries\(fgsnap\b([^)]*)\)", cmake)
    if link is None:
        problems.append("CMakeLists.txt: no fgsnap link line found")
    elif (re.search(r"\bfg_core\b", link.group(1)) or
          re.search(r"\bfg_graph\b", link.group(1)) or
          "fg_snap" not in link.group(1)):
        problems.append(
            "CMakeLists.txt: fgsnap must link fg_snap and never an engine "
            "library — a verifier with engine code linked in defeats the "
            "audit (docs/SNAPSHOTS.md)")

    if "## Durable snapshots" not in design_md:
        problems.append(
            "docs/DESIGN.md: missing the 'Durable snapshots' section (base "
            "images, delta log, crash-consistency rules, restore-audit flow)")
    return problems


# The certificate independence gate. The whole value of tools/fgcheck is
# that it cannot share a defect with the engines it audits; that property
# lives in two places the compiler does not enforce: the src/cert include
# list and the fgcheck link line. Both are pinned here, along with the
# doc/code sync for the cert API surface and the format version string.
CERT_VERSION = "fgcert 1"
CERT_FORBIDDEN_INCLUDE_RE = re.compile(
    r'#include\s+"(?:fg|harness|heal|net|adversary)/')
CERT_API_NAMES = {
    "src/cert/certificate.h": (
        "WaveCertificate", "RegionCert", "RtNode", "DegreeClaim",
        "StretchWitness", "EdgeFact", "CostClaim", "CheckResult",
        "StreamResult", "malformed", "check_stream", "structural_text",
        "kDegreeConstant",
    ),
    "src/harness/certificate.h": (
        "CertificateSink", "CertificateWriter", "CertificateCollector",
    ),
}


def check_certificate_independence():
    doc = REPO / "docs" / "CERTIFICATES.md"
    if not doc.exists():
        return ["docs/CERTIFICATES.md: missing (the certificate doc is required)"]
    problems = []
    doc_text = doc.read_text()

    for src in sorted((REPO / "src" / "cert").glob("*.*")):
        for lineno, line in enumerate(src.read_text().splitlines(), 1):
            if CERT_FORBIDDEN_INCLUDE_RE.search(line):
                problems.append(
                    f"{src.relative_to(REPO)}:{lineno}: engine include in the "
                    "certificate checker — src/cert must stay independent of "
                    "the code it audits (docs/CERTIFICATES.md)")

    cmake = (REPO / "CMakeLists.txt").read_text()
    link = re.search(r"target_link_libraries\(fgcheck\b([^)]*)\)", cmake)
    if link is None:
        problems.append("CMakeLists.txt: no fgcheck link line found")
    elif re.search(r"\bfg_core\b", link.group(1)) or "fg_cert" not in link.group(1):
        problems.append(
            "CMakeLists.txt: fgcheck must link fg_cert and never fg_core — "
            "an fgcheck with engine code linked in defeats the audit "
            "(docs/CERTIFICATES.md)")

    for rel, names in CERT_API_NAMES.items():
        path = REPO / rel
        if not path.exists():
            problems.append(f"{rel}: missing, but docs/CERTIFICATES.md documents it")
            continue
        code = header_code(path)
        for name in names:
            if not re.search(r"\b" + re.escape(name) + r"\b", code):
                problems.append(
                    f"{rel}: documented certificate API name `{name}` does "
                    "not appear in its code — update docs/CERTIFICATES.md or "
                    "the header")
            if name not in doc_text:
                problems.append(
                    f"docs/CERTIFICATES.md: certificate API name `{name}` is "
                    "undocumented — the doc must cover the full surface")

    cert_header = (REPO / "src" / "cert" / "certificate.h").read_text()
    if f'"{CERT_VERSION}"' not in cert_header:
        problems.append(
            f"src/cert/certificate.h: format version string \"{CERT_VERSION}\" "
            "not found — bumping the version means updating this gate and "
            "docs/CERTIFICATES.md together")
    if f"`{CERT_VERSION}`" not in doc_text:
        problems.append(
            f"docs/CERTIFICATES.md: must name the current format version "
            f"(`{CERT_VERSION}`) — the grammar section is versioned")
    return problems


def main():
    problems = (check_links() + check_snippet_sync() + check_concurrency_sync() +
                check_graph_api_sync() + check_healer_service_sync() +
                check_stabilizer_sync() + check_snapshot_sync() +
                check_certificate_independence())
    for p in problems:
        print(p, file=sys.stderr)
    if problems:
        sys.exit(1)
    print(f"docs OK: {sum(1 for _ in markdown_files())} markdown files, "
          "links resolve, example snippets in sync, CONCURRENCY.md API names "
          "and C4 wording match the headers, Graph view API in sync (no "
          "unordered_set in the surface), healer-service API in sync, "
          "stabilizer API and violation kinds in sync, snapshot format/API "
          "in sync (fgsnap link line engine-free), certificate checker "
          "independent (includes + fgcheck link line) and its API/version "
          "in sync")


if __name__ == "__main__":
    main()
