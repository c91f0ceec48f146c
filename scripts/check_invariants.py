#!/usr/bin/env python3
"""Repo-invariant linter: structural rules the compiler cannot express.

Complements the Clang thread-safety analysis (docs/static_analysis.md):
TSA proves lock discipline *given* that code uses the annotated
stems::Mutex; this script proves the premises and the cross-cutting
conventions:

  naked-mutex      Raw std::mutex / lock types / condition_variable are
                   forbidden outside src/common/thread_annotations.h.
                   Everything must go through the annotated wrappers, or
                   the thread-safety lane silently loses coverage.

  wall-clock       Virtual-clock code (the discrete-event simulator and
                   everything scheduled on it) must not read the wall
                   clock: steady_clock/system_clock::now() there breaks
                   determinism and sim/threaded equivalence. A read that
                   is *intentionally* wall-clock (observability spans)
                   carries a `// wall-clock: <why>` comment within the
                   preceding five lines. src/sim/ gets no such escape:
                   the clock itself may never consult real time.

  engine-thread    Only the engine thread may touch the Engine. In
                   src/server/server.cc, `engine_->` must not appear in
                   the network-thread section (between the
                   `--- network thread` and `--- engine thread` section
                   markers), and no other file under src/server/ may
                   dereference an Engine at all.

  nodiscard        Status and Result<T> (src/common/status.h) must be
                   declared [[nodiscard]] so a discarded error status is
                   a -Werror build break, not a silent drop.

  atomic-doc       Every std::atomic<> member declaration carries a
                   nearby `relaxed:` or `sync:` comment saying why its
                   memory ordering is sufficient. Undocumented atomics
                   are where the next data race hides.

  schedulable-atomic
                   Atomic members in the concurrent subsystems (src/exec/
                   and src/server/) must be stems::Atomic<T>, not raw
                   std::atomic<T>, so the schedule-exploration harness
                   (src/check/) sees the access as a preemption point.
                   A raw atomic there is invisible to the model checker:
                   every interleaving around it goes untested. Atomics
                   that are genuinely outside any sync protocol (pure
                   statistics read by nobody the checker cares about)
                   carry an allow(schedulable-atomic) suppression.

  policy-by-name   Routing policies are chosen through PolicyRegistry and
                   run as RoutingPolicy objects, never dispatched on their
                   name. Outside src/eddy/policies/ and src/engine/, no
                   code may compare against a built-in policy-name string
                   ("lottery", "benefit_cost", "nary_shj", or the hyphenated
                   RoutingPolicy::name() spellings) with ==, != or
                   compare()/strcmp(). Such a comparison is how a second
                   router grows back: a string switch that re-implements
                   the policies with its own formulas and silently routes
                   every other registered policy some default way.

  stem-storage-fork
                   SteM state (entries, content dedup, column indexes,
                   spill) lives in src/stem/ (StemStorage). No file under
                   src/exec/ may declare a RowRefContentHash container (a
                   content-dedup set) or an unordered_map<Value, ...> (a
                   column index): that is how a second SteM storage grows
                   back beside the threaded ShardedStem, with its own spill
                   semantics and its own I/O accounting.

  stem-lookup-in-storage
                   A SteM probe finds its candidates in one place:
                   StemStorage::Lookup (src/stem/), which picks a column
                   index for equality bindings, an ordered index for range
                   predicates, else every entry; StemStorage::Store is the
                   one insert-or-append build. No file under src/exec/ may
                   name StemIndex, HashStemIndex, MakeStemIndex, LookupEq,
                   LookupRange or AppendToSpilledPartition: that is how a
                   second lookup grows back beside the threaded
                   ShardedStem, with its own index choice (range joins as
                   full scans, StemOptions::index_impl ignored).

  stem-storage-clock-free
                   StemStorage (src/stem/stem_storage.{h,cc}) is the one
                   SteM storage of both executors, and the threaded shards
                   have no simulation clock. Those two files may not
                   include sim/simulation.h, name Simulation or call
                   Schedule(: a spill operation runs synchronously and
                   returns its I/O to the caller, which bills it on its
                   own clock. An event the storage put on the sim clock is
                   how a sim-only deferral path grows back into the
                   storage the threads share.

  counter-by-name  Per-query counters are declared once, in the table of
                   src/obs/query_counters.h, and reach the registry only
                   through PublishQueryCounters (src/obs/query_counters.cc).
                   Outside those two files, no code under src/ or bench/
                   may call GetCounter/GetGauge/GetHistogram("<name>") with
                   a name they own (the table's registry names, plus
                   engine.queries_completed and engine.query_wall_us):
                   a hand-written publication list is how a second copy of
                   the counters grows back and drifts from the table.
                   Tests are exempt; they read the registry to check it.
                   For every registry name the table owns, the checker
                   also verifies that docs/observability.md's published-
                   names table lists it, and that its suffix agrees with
                   its unit column (`_ns`/`_us` wall, `_vus` virtual, no
                   clock suffix on counts and bytes).

Suppression (sparingly): a line, or the line above it, may carry
`// invariant: allow(<rule>) -- <reason>`. The reason is mandatory.

Exit status 0 = clean, 1 = violations (printed one per line as
path:line: [rule] message). Run from anywhere; paths resolve against the
repo root (the parent of this script's directory).
"""

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

# Directories whose code runs on (or defines) the virtual clock. The
# threaded executor (src/exec/), the server (src/server/) and the
# observability layer (src/obs/) are wall-clock land by design.
VIRTUAL_CLOCK_DIRS = (
    "src/sim",
    "src/eddy",
    "src/stem",
    "src/am",
    "src/sm",
    "src/engine",
    "src/spill",
    "src/baseline",
    "src/runtime",
    "src/query",
)

SOURCE_GLOBS = ("src/**/*.h", "src/**/*.cc", "tests/**/*.h", "tests/**/*.cc",
                "bench/**/*.h", "bench/**/*.cc")

ANNOTATIONS_HEADER = "src/common/thread_annotations.h"

NAKED_MUTEX_RE = re.compile(
    r"std::(mutex|timed_mutex|recursive_mutex|shared_mutex|shared_timed_mutex"
    r"|lock_guard|unique_lock|scoped_lock|shared_lock|condition_variable"
    r"|condition_variable_any)\b")
WALL_CLOCK_RE = re.compile(
    r"std::chrono::(steady_clock|system_clock|high_resolution_clock)::now\b")
ATOMIC_MEMBER_RE = re.compile(r"^\s+(?:mutable\s+)?std::atomic<")
ATOMIC_POINTER_RE = re.compile(r"std::atomic<[^<>]*>\s*[*&]")
ATOMIC_DOC_RE = re.compile(r"relaxed[-:]|sync:")
WALL_CLOCK_DOC_RE = re.compile(r"//.*wall-clock:")
ALLOW_RE = re.compile(r"//\s*invariant:\s*allow\(([a-z-]+)\)\s*--\s*\S")

POLICY_NAME = r'"(?:lottery|benefit[_-]cost|nary[_-]shj)"'
POLICY_BY_NAME_RE = re.compile(
    rf"(?:==|!=)\s*{POLICY_NAME}|{POLICY_NAME}\s*(?:==|!=)"
    rf"|(?:compare|strcmp)\s*\([^)]*{POLICY_NAME}")
POLICY_HOME_DIRS = ("src/eddy/policies/", "src/engine/")

STEM_FORK_RE = re.compile(
    r"\bRowRefContentHash\b|\bunordered_map\s*<\s*(?:stems::)?Value\s*,")
STEM_FORK_DIRS = ("src/exec/",)

STEM_LOOKUP_RE = re.compile(
    r"\b(?:StemIndex|HashStemIndex|MakeStemIndex|LookupEq|LookupRange"
    r"|AppendToSpilledPartition)\b")
STEM_LOOKUP_DIRS = ("src/exec/",)

CLOCK_FREE_FILES = ("src/stem/stem_storage.h", "src/stem/stem_storage.cc")
CLOCK_FREE_RE = re.compile(
    r'\bSimulation\b|\bSchedule\s*\(|"sim/simulation\.h"')

COUNTER_TABLE_H = "src/obs/query_counters.h"
COUNTER_TABLE_CC = "src/obs/query_counters.cc"
COUNTER_DOC = "docs/observability.md"
COUNTER_DIRS = ("src/", "bench/")
COUNTER_ENTRY_RE = re.compile(
    r'\bX\(\s*(\w+),\s*(nullptr|"([^"]*)"),\s*(k\w+),\s*(true|false)\s*,')
COUNTER_LITERAL_RE = re.compile(r'"([a-z_]+(?:\.[a-z_]+)+)"')
COUNTER_BY_NAME_RE = re.compile(r'Get(?:Counter|Gauge|Histogram)\(\s*"([^"]+)"')
# Unit column -> the suffix its registry name must carry (None: no clock
# suffix at all).
UNIT_SUFFIX = {
    "kCount": None,
    "kBytes": None,
    "kWallNs": "_ns",
    "kWallUs": "_us",
    "kVirtualUs": "_vus",
}
CLOCK_SUFFIXES = ("_ns", "_us", "_vus")

NET_THREAD_MARKER = "--- network thread"
ENGINE_THREAD_MARKER = "--- engine thread"


def is_comment(line: str) -> bool:
    stripped = line.lstrip()
    return stripped.startswith("//") or stripped.startswith("*")


def allowed(lines, i, rule):
    """True if line i (0-based) or the line above carries a matching
    `// invariant: allow(<rule>) -- reason` suppression."""
    for j in (i, i - 1):
        if j < 0:
            continue
        m = ALLOW_RE.search(lines[j])
        if m and m.group(1) == rule:
            return True
    return False


def check_file(rel, lines, errors):
    in_net_section = False
    for i, line in enumerate(lines):
        lineno = i + 1

        # naked-mutex ---------------------------------------------------
        if rel != ANNOTATIONS_HEADER and not is_comment(line):
            m = NAKED_MUTEX_RE.search(line)
            if m and not allowed(lines, i, "naked-mutex"):
                errors.append(
                    f"{rel}:{lineno}: [naked-mutex] raw std::{m.group(1)}; "
                    f"use stems::Mutex / MutexLock / CondVar from "
                    f"{ANNOTATIONS_HEADER} so the thread-safety analysis "
                    f"sees it")

        # wall-clock ----------------------------------------------------
        if rel.startswith(VIRTUAL_CLOCK_DIRS) and not is_comment(line):
            m = WALL_CLOCK_RE.search(line)
            if m and not allowed(lines, i, "wall-clock"):
                documented = any(
                    WALL_CLOCK_DOC_RE.search(lines[j])
                    for j in range(max(0, i - 5), i + 1))
                if rel.startswith("src/sim/"):
                    errors.append(
                        f"{rel}:{lineno}: [wall-clock] "
                        f"{m.group(1)}::now() inside the simulator core; "
                        f"the virtual clock must never consult real time "
                        f"(no marker escape in src/sim/)")
                elif not documented:
                    errors.append(
                        f"{rel}:{lineno}: [wall-clock] "
                        f"{m.group(1)}::now() in a virtual-clock path "
                        f"without a `// wall-clock: <why>` marker in the "
                        f"preceding five lines")

        # engine-thread -------------------------------------------------
        if rel == "src/server/server.cc":
            if NET_THREAD_MARKER in line:
                in_net_section = True
            elif ENGINE_THREAD_MARKER in line:
                in_net_section = False
            elif (in_net_section and "engine_->" in line
                  and not is_comment(line)
                  and not allowed(lines, i, "engine-thread")):
                errors.append(
                    f"{rel}:{lineno}: [engine-thread] engine_-> in the "
                    f"network-thread section; only the engine thread may "
                    f"touch the Engine (server.h threading contract)")
        elif rel.startswith("src/server/") and "engine_->" in line:
            if not is_comment(line) and not allowed(lines, i, "engine-thread"):
                errors.append(
                    f"{rel}:{lineno}: [engine-thread] engine_-> outside "
                    f"server.cc; Engine access is confined to the server's "
                    f"engine thread")

        # atomic-doc ----------------------------------------------------
        if (rel.startswith("src/") and ATOMIC_MEMBER_RE.search(line)
                and not ATOMIC_POINTER_RE.search(line)):
            # Pointers/references to atomics are aliases, not new shared
            # state — the owning declaration carries the doc. The ten-line
            # window lets one comment cover a small group of members.
            documented = any(
                ATOMIC_DOC_RE.search(lines[j])
                for j in range(max(0, i - 10), i + 1))
            if not documented and not allowed(lines, i, "atomic-doc"):
                errors.append(
                    f"{rel}:{lineno}: [atomic-doc] std::atomic member "
                    f"without a nearby `relaxed:` or `sync:` comment "
                    f"explaining why its ordering suffices")

        # policy-by-name ------------------------------------------------
        if (not rel.startswith(POLICY_HOME_DIRS) and not is_comment(line)
                and POLICY_BY_NAME_RE.search(line)
                and not allowed(lines, i, "policy-by-name")):
            errors.append(
                f"{rel}:{lineno}: [policy-by-name] comparison against a "
                f"built-in routing-policy name; create the policy through "
                f"PolicyRegistry and call it instead of dispatching on its "
                f"name (a second router)")

        # stem-storage-fork ---------------------------------------------
        if (rel.startswith(STEM_FORK_DIRS) and not is_comment(line)
                and STEM_FORK_RE.search(line)
                and not allowed(lines, i, "stem-storage-fork")):
            errors.append(
                f"{rel}:{lineno}: [stem-storage-fork] content-dedup set or "
                f"value-keyed column index in src/exec/; SteM state lives "
                f"in src/stem/ (StemStorage) — hold a StemStorage instead "
                f"of forking one")

        # stem-lookup-in-storage ----------------------------------------
        if rel.startswith(STEM_LOOKUP_DIRS) and not is_comment(line):
            m = STEM_LOOKUP_RE.search(line)
            if m and not allowed(lines, i, "stem-lookup-in-storage"):
                errors.append(
                    f"{rel}:{lineno}: [stem-lookup-in-storage] "
                    f"{m.group(0)} in src/exec/; SteM lookup and build live "
                    f"in src/stem/ — call StemStorage::Lookup / Store "
                    f"instead of searching or appending yourself")

        # stem-storage-clock-free ---------------------------------------
        if (rel in CLOCK_FREE_FILES and not is_comment(line)
                and CLOCK_FREE_RE.search(line)
                and not allowed(lines, i, "stem-storage-clock-free")):
            errors.append(
                f"{rel}:{lineno}: [stem-storage-clock-free] simulation "
                f"clock in StemStorage; the storage both executors share "
                f"schedules no events — run the operation synchronously "
                f"and let the caller bill its I/O")

        # schedulable-atomic --------------------------------------------
        if (rel.startswith(("src/exec/", "src/server/"))
                and ATOMIC_MEMBER_RE.search(line)
                and not ATOMIC_POINTER_RE.search(line)
                and not allowed(lines, i, "schedulable-atomic")):
            errors.append(
                f"{rel}:{lineno}: [schedulable-atomic] raw std::atomic "
                f"member in a schedule-explored subsystem; use "
                f"stems::Atomic<T> ({ANNOTATIONS_HEADER}) so the model "
                f"checker treats it as a preemption point, or add "
                f"`// invariant: allow(schedulable-atomic) -- <reason>`")


def load_counter_table(errors):
    """Parses the counter table; returns the registry names it owns. Checks
    each table name's unit suffix and its row in the published-names doc."""
    header = (REPO_ROOT / COUNTER_TABLE_H).read_text(encoding="utf-8")
    doc = (REPO_ROOT / COUNTER_DOC).read_text(encoding="utf-8")
    section = doc.split("### Published names", 1)[-1].split("\n#", 1)[0]
    documented = set(re.findall(r"^\|\s*`([^`]+)`", section, re.M))
    owned = set()
    entries = 0
    for m in COUNTER_ENTRY_RE.finditer(header):
        entries += 1
        name, unit = m.group(3), m.group(4)
        if name is None:
            continue
        owned.add(name)
        lineno = header.count("\n", 0, m.start()) + 1
        where = f"{COUNTER_TABLE_H}:{lineno}: [counter-by-name]"
        if unit not in UNIT_SUFFIX:
            errors.append(f"{where} {name}: unknown unit {unit}")
        elif UNIT_SUFFIX[unit] is None:
            if name.endswith(CLOCK_SUFFIXES):
                errors.append(f"{where} {name} carries a clock suffix but "
                              f"its unit is {unit}")
        elif not name.endswith(UNIT_SUFFIX[unit]) or (
                unit != "kVirtualUs" and name.endswith("_vus")):
            errors.append(f"{where} {name}: unit {unit} needs the suffix "
                          f"{UNIT_SUFFIX[unit]}")
        if name not in documented:
            errors.append(f"{where} {name} is missing from the "
                          f"published-names table of {COUNTER_DOC}")
    if entries == 0:
        errors.append(f"{COUNTER_TABLE_H}:1: [counter-by-name] no "
                      f"X(field, name, unit, rollup, help) entries parsed")
    publish = (REPO_ROOT / COUNTER_TABLE_CC).read_text(encoding="utf-8")
    for name in COUNTER_LITERAL_RE.findall(publish):
        owned.add(name)
        if name not in documented:
            errors.append(f"{COUNTER_TABLE_CC}:1: [counter-by-name] {name} "
                          f"is missing from the published-names table of "
                          f"{COUNTER_DOC}")
    return owned


def check_counter_by_name(rel, lines, owned, errors):
    if (not rel.startswith(COUNTER_DIRS)
            or rel in (COUNTER_TABLE_H, COUNTER_TABLE_CC)):
        return
    text = "\n".join(lines)
    for m in COUNTER_BY_NAME_RE.finditer(text):
        i = text.count("\n", 0, m.start())
        name = m.group(1)
        if (name in owned and not is_comment(lines[i])
                and not allowed(lines, i, "counter-by-name")):
            errors.append(
                f"{rel}:{i + 1}: [counter-by-name] registry lookup of "
                f"\"{name}\", a per-query counter the table in "
                f"{COUNTER_TABLE_H} owns; fill QueryCounters and let "
                f"PublishQueryCounters publish it")


def check_nodiscard(errors):
    status_h = REPO_ROOT / "src/common/status.h"
    text = status_h.read_text(encoding="utf-8")
    for cls in ("Status", "Result"):
        pattern = rf"class\s+\[\[nodiscard\]\]\s+{cls}\b"
        if not re.search(pattern, text):
            errors.append(
                f"src/common/status.h:1: [nodiscard] class {cls} is not "
                f"declared [[nodiscard]]; discarded error statuses would "
                f"compile silently")


def main():
    errors = []
    seen = set()
    owned_counters = load_counter_table(errors)
    for pattern in SOURCE_GLOBS:
        for path in sorted(REPO_ROOT.glob(pattern)):
            rel = path.relative_to(REPO_ROOT).as_posix()
            if rel in seen:
                continue
            seen.add(rel)
            lines = path.read_text(encoding="utf-8").splitlines()
            check_file(rel, lines, errors)
            check_counter_by_name(rel, lines, owned_counters, errors)
    check_nodiscard(errors)

    if errors:
        for e in errors:
            print(e)
        print(f"\ncheck_invariants: {len(errors)} violation(s)",
              file=sys.stderr)
        return 1
    print(f"check_invariants: OK ({len(seen)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
