#!/usr/bin/env python3
"""simlint — DPDPU's determinism & invariant linter.

Every figure this repo reproduces is gated by a bit-exact comparison of
simulated metrics against bench/BASELINE.json. That gate only catches
nondeterminism *after* it lands; simlint rejects the patterns that
introduce it (and a few correctness footguns around them) at review time.

Rules:
  R1  banned-nondeterminism  wall-clock reads / ambient randomness in
                             sim-visible code (std::chrono clocks, rand(),
                             srand(), std::random_device, mt19937, argless
                             time(), gettimeofday, clock_gettime, ...).
  R2  unordered-emission     iteration over an unordered_map/unordered_set
                             inside a function that emits metrics or logs
                             or schedules events, without sorting first.
                             Hash-table order is salted per-process: it
                             must never reach output or the event heap.
  R3  pointer-keyed-order    ordered containers / hashes / comparators
                             keyed on raw pointer values. Addresses vary
                             run to run (ASLR, allocator), so any ordering
                             derived from them is nondeterministic.
  R4  dropped-status         `(void)` launder of a Status/Result-returning
                             call, and regression of the [[nodiscard]]
                             markers on common::Status / common::Result /
                             common::Buffer that make the compiler flag
                             silently-dropped errors.
  R5  uninit-config-field    trivially-typed fields of *Config/*Options/
                             *Spec structs without a default member
                             initializer (indeterminate reads are both UB
                             and a nondeterminism source).
  R6  same-time-scheduling   zero-delay scheduling (`Schedule(0, ...)`,
                             `ScheduleAt(now(), ...)`) and raw-`this`
                             lambda captures in Schedule/ScheduleAt calls.
                             Same-time rescheduling widens the tie-break
                             surface simrace has to reason about, and a
                             raw `this` in a heap-held closure is a
                             use-after-free once the object dies before
                             its fire time. Both have legitimate uses —
                             every one needs a reasoned allow naming the
                             lifetime/ordering guarantee.
  R7  shared-rng-in-callback a Pcg32 captured by reference into a lambda
                             and drawn there. Callbacks fire in event
                             order, so a generator shared across request
                             streams keys its draw *sequence* to
                             same-timestamp tie-breaking — exactly the
                             drift the bench gate and simex then report
                             as a schedule dependence. Derive a per-request
                             generator instead:
                             Pcg32(SplitMix64(seed ^ stream ^ counter)).

Suppression:
  * inline, same or previous line:  // simlint:allow(R1): <reason>
  * file-level, tools/simlint/allowlist.txt:  <path> <rule> <reason>
  Both require a non-empty reason; a bare suppression is itself an error,
  and so is a stale one: an inline allow that suppresses nothing, a
  file-level entry whose rule no longer fires in the (scanned) file, or a
  file-level entry whose file is gone from the tree all fail the lint.

Usage:
  python3 tools/simlint/simlint.py              # lint src/ bench/ examples/
  python3 tools/simlint/simlint.py src/netsub   # lint a subtree
  python3 tools/simlint/simlint.py --list-rules
"""

import argparse
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import lintcommon  # noqa: E402

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
DEFAULT_ROOTS = ("src", "bench", "examples")
DEFAULT_ALLOWLIST = os.path.join("tools", "simlint", "allowlist.txt")

RULES = {
    "R1": "banned nondeterminism (wall clocks, rand, random_device, ...)",
    "R2": "unordered-container iteration in a metric/log/schedule path",
    "R3": "ordering derived from raw pointer values",
    "R4": "dropped or laundered Status/Result (and [[nodiscard]] regression)",
    "R5": "uninitialized trivially-typed field in a Config/Options/Spec",
    "R6": "same-timestamp scheduling / raw-`this` capture in a scheduled "
          "callback",
    "R7": "shared Pcg32 drawn inside a by-reference lambda capture",
}


Violation = lintcommon.Violation


# ---------------------------------------------------------------------------
# Source preprocessing: blank out comments and string/char literals so rule
# regexes never match prose or quoted text. Line structure is preserved
# (every stripped character becomes a space; newlines survive).
# ---------------------------------------------------------------------------

strip_comments_and_strings = lintcommon.strip_comments_and_strings


# ---------------------------------------------------------------------------
# Suppressions.
# ---------------------------------------------------------------------------

def inline_suppressions(original_text, path, errors):
    """Maps rule -> {covered line: line of the allow comment itself}."""
    return lintcommon.inline_suppressions(
        original_text, path, errors, "simlint", "R[1-7]")


def load_allowlist(path):
    """Returns {(relpath, rule): reason}; raises on malformed lines."""
    return lintcommon.load_allowlist(
        path, lambda rule: None if rule in RULES
        else f"unknown rule {rule!r}")


# ---------------------------------------------------------------------------
# Light structural parsing: function bodies and struct bodies.
# ---------------------------------------------------------------------------

match_brace = lintcommon.match_brace


FUNC_OPEN = re.compile(r"\)[\s\w:&<>,*\[\]]*?\{")


def iter_functions(stripped):
    """Yields (start_line, body) for every `...) ... {` function body."""
    pos = 0
    while True:
        m = FUNC_OPEN.search(stripped, pos)
        if not m:
            return
        open_idx = m.end() - 1
        end_idx = match_brace(stripped, open_idx)
        start_line = stripped.count("\n", 0, open_idx) + 1
        yield start_line, stripped[open_idx:end_idx], open_idx
        pos = open_idx + 1


# ---------------------------------------------------------------------------
# R1: banned nondeterminism.
# ---------------------------------------------------------------------------

R1_PATTERNS = [
    (re.compile(r"std::chrono::(system_clock|steady_clock|"
                r"high_resolution_clock)"),
     "std::chrono clock read"),
    (re.compile(r"(?<![\w:])rand\s*\(\s*\)"), "rand()"),
    (re.compile(r"(?<![\w:])srand\s*\("), "srand()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\bmt19937"),
     "std::mt19937 (use common::Rng: seeded, cross-platform)"),
    (re.compile(r"(?<![\w:.])time\s*\(\s*(NULL|nullptr|0)?\s*\)"),
     "argless time()"),
    (re.compile(r"\b(gettimeofday|clock_gettime|localtime|gmtime)\s*\("),
     "wall-clock syscall"),
]


def check_r1(path, stripped, report):
    for lineno, line in enumerate(stripped.splitlines(), start=1):
        for pattern, what in R1_PATTERNS:
            if pattern.search(line):
                report(Violation(
                    path, lineno, "R1",
                    f"{what}: nondeterministic in sim-visible code; use "
                    "sim::Simulator::now() / common::Rng (or allowlist a "
                    "wall-clock-only measurement path)"))


# ---------------------------------------------------------------------------
# R2: unordered iteration in emission paths.
# ---------------------------------------------------------------------------

UNORDERED_DECL = re.compile(
    r"unordered_(?:map|set)\s*<[^;{}]*?>\s+(\w+)\s*(?:;|=|\{)")
EMISSION = re.compile(
    r"EmitJsonMetric|EmitWallClockMetrics|DPDPU_LOG|printf\s*\(|"
    r"std::cout|std::cerr|(?<![\w.])puts\s*\(|"
    r"(?:\.|->)Schedule(?:At)?\s*\(")
RANGE_FOR = re.compile(r"for\s*\(\s*[^;()]*?:\s*([^()]+?)\s*\)")
SORT_CALL = re.compile(r"\b(?:std::)?(?:stable_)?sort\s*\(")


def check_r2(path, stripped, report):
    unordered_vars = set(UNORDERED_DECL.findall(stripped))
    if not unordered_vars:
        return
    for start_line, body, _ in iter_functions(stripped):
        if not EMISSION.search(body):
            continue
        for m in RANGE_FOR.finditer(body):
            iterated = m.group(1)
            names = set(re.findall(r"\w+", iterated))
            hits = names & unordered_vars
            if not hits:
                continue
            # "Sorted first" escape hatch: a sort() anywhere earlier in the
            # same function body means the author already canonicalized.
            if SORT_CALL.search(body, 0, m.start()):
                continue
            lineno = start_line + body.count("\n", 0, m.start())
            report(Violation(
                path, lineno, "R2",
                f"iterating unordered container '{sorted(hits)[0]}' in a "
                "function that emits metrics/logs or schedules events; "
                "hash order is per-process — copy keys out and sort first"))


# ---------------------------------------------------------------------------
# R3: pointer-derived ordering.
# ---------------------------------------------------------------------------

R3_PATTERNS = [
    (re.compile(r"\b(?:std::)?(?:unordered_)?(?:map|set)\s*<\s*"
                r"(?:const\s+)?[\w:]+\s*\*"),
     "container keyed on a raw pointer"),
    (re.compile(r"std::hash\s*<\s*(?:const\s+)?[\w:]+\s*\*\s*>"),
     "std::hash over a raw pointer"),
    (re.compile(r"std::less\s*<\s*(?:const\s+)?[\w:]+\s*\*\s*>"),
     "std::less over a raw pointer"),
]


def check_r3(path, stripped, report):
    for lineno, line in enumerate(stripped.splitlines(), start=1):
        for pattern, what in R3_PATTERNS:
            if pattern.search(line):
                report(Violation(
                    path, lineno, "R3",
                    f"{what}: pointer values differ across runs (ASLR, "
                    "allocator); key on a stable id instead"))


# ---------------------------------------------------------------------------
# R4: dropped / laundered Status, and [[nodiscard]] regression.
# ---------------------------------------------------------------------------

VOID_LAUNDER = re.compile(r"\(\s*void\s*\)\s*[\w.>-]+\s*\(")


def check_r4(path, stripped, report):
    for lineno, line in enumerate(stripped.splitlines(), start=1):
        if VOID_LAUNDER.search(line):
            report(Violation(
                path, lineno, "R4",
                "(void)-launder of a function result defeats the "
                "[[nodiscard]] sweep; handle the Status or annotate "
                "with a reason"))


def check_r4_nodiscard_markers(repo_root, report):
    expectations = [
        (os.path.join("src", "common", "status.h"),
         re.compile(r"class\s+\[\[nodiscard\]\]\s+Status\b"),
         "common::Status must stay `class [[nodiscard]] Status`"),
        (os.path.join("src", "common", "result.h"),
         re.compile(r"class\s+\[\[nodiscard\]\]\s+Result\b"),
         "common::Result must stay `class [[nodiscard]] Result`"),
        (os.path.join("src", "common", "buffer.h"),
         re.compile(r"class\s+\[\[nodiscard\]\]\s+Buffer\b"),
         "common::Buffer must stay `class [[nodiscard]] Buffer`"),
    ]
    for rel, pattern, message in expectations:
        full = os.path.join(repo_root, rel)
        if not os.path.exists(full):
            continue
        with open(full) as f:
            if not pattern.search(f.read()):
                report(Violation(rel, 1, "R4", message))


# ---------------------------------------------------------------------------
# R5: uninitialized trivially-typed config fields.
# ---------------------------------------------------------------------------

CONFIG_STRUCT = re.compile(r"struct\s+(\w*(?:Config|Options|Spec))\s*\{")
TRIVIAL_TYPES = {
    "bool", "char", "short", "int", "long", "unsigned", "float", "double",
    "size_t", "ssize_t", "uintptr_t", "intptr_t",
    "int8_t", "int16_t", "int32_t", "int64_t",
    "uint8_t", "uint16_t", "uint32_t", "uint64_t",
    "SimTime", "NodeId", "MrKey", "FileId", "LogLevel",
}
MEMBER_DECL = re.compile(
    r"^\s*(?:const\s+|mutable\s+)*"
    r"([\w:]+(?:\s*<[^;]*>)?(?:\s*\*+)?)"   # type
    r"\s+(\w+)\s*(;|=|\{)")


def split_top_level_statements(body):
    """Yields (offset, stmt) for depth-1 statements of a brace body."""
    depth = 0
    start = 1  # skip opening brace
    i = 1
    while i < len(body):
        c = body[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth < 0:
                break
            if depth == 0:
                yield start, body[start:i + 1]
                start = i + 1
        elif c == ";" and depth == 0:
            yield start, body[start:i + 1]
            start = i + 1
        i += 1


def check_r5(path, stripped, report):
    for m in CONFIG_STRUCT.finditer(stripped):
        struct_name = m.group(1)
        open_idx = stripped.index("{", m.start())
        body = stripped[open_idx:match_brace(stripped, open_idx)]
        for offset, stmt in split_top_level_statements(body):
            if "(" in stmt or "static" in stmt or "constexpr" in stmt:
                continue  # member function / class constant
            dm = MEMBER_DECL.match(stmt.strip())
            if not dm:
                continue
            type_name, field, terminator = dm.groups()
            base = type_name.split("<")[0].split("::")[-1].rstrip("*&")
            is_pointer = "*" in type_name
            if terminator == ";" and (base in TRIVIAL_TYPES or is_pointer):
                lineno = (stripped.count("\n", 0, open_idx + offset) + 1)
                report(Violation(
                    path, lineno, "R5",
                    f"{struct_name}::{field} ({type_name.strip()}) has no "
                    "default initializer; an indeterminate config field is "
                    "UB and run-to-run noise — add `= ...` or `{}`"))


# ---------------------------------------------------------------------------
# R6: same-timestamp scheduling and raw-`this` captures in scheduled
# callbacks.
# ---------------------------------------------------------------------------

R6_ZERO_DELAY = re.compile(r"(?:\.|->)Schedule\s*\(\s*0\s*,")
# ScheduleAt(<expr ending in now()>, ...) — `now() + delay` does not match
# (the comma must directly follow the call), so only exact same-time
# scheduling trips this.
R6_AT_NOW = re.compile(r"(?:\.|->)ScheduleAt\s*\([^;(]*?\bnow\s*\(\s*\)\s*,")
R6_SCHED_CALL = re.compile(r"(?:\.|->)Schedule(?:At)?\s*\(")
R6_THIS_CAPTURE = re.compile(r"\[[^\]\[]*\bthis\b[^\]\[]*\]")


def check_r6(path, stripped, report):
    for lineno, line in enumerate(stripped.splitlines(), start=1):
        if R6_ZERO_DELAY.search(line) or R6_AT_NOW.search(line):
            report(Violation(
                path, lineno, "R6",
                "zero-delay scheduling runs the callback at the *same* "
                "timestamp: the new event lands in the current tie-break "
                "bucket, where ordering is policy-dependent — add a real "
                "latency, or allow with the reason the same-time chain is "
                "causally ordered (parent edges cover it)"))
    # Raw-`this` captured into a scheduled closure: the closure sits on
    # the event heap and cannot be canceled, so it outlives any lifetime
    # the compiler can see. Scan the window between `Schedule(` and the
    # lambda body's `{` (capture lists always precede it).
    for m in R6_SCHED_CALL.finditer(stripped):
        window = stripped[m.end():m.end() + 400]
        brace = window.find("{")
        semi = window.find(";")
        cut = min(x for x in (brace, semi, len(window)) if x >= 0)
        if R6_THIS_CAPTURE.search(window[:cut]):
            lineno = stripped.count("\n", 0, m.start()) + 1
            report(Violation(
                path, lineno, "R6",
                "raw `this` captured into a scheduled callback: events "
                "cannot be canceled, so this is a use-after-free if the "
                "object dies first — capture a shared/weak liveness token "
                "(see RemoteStorageClient's alive_), or allow with the "
                "lifetime guarantee"))


# ---------------------------------------------------------------------------
# R7: a shared Pcg32 drawn inside a by-reference lambda capture. The draw
# *sequence* of a generator shared across callbacks is keyed to the order
# those callbacks fire — i.e. to same-timestamp tie-breaking — which is
# exactly the drift the bench gate's tie-break runs and simex report as a
# schedule dependence.
# Copy captures are fine (each closure owns an independent stream), and so
# is a generator declared inside the lambda (the per-request
# Pcg32(SplitMix64(seed ^ stream ^ counter)) pattern).
# ---------------------------------------------------------------------------

R7_GENERATOR_DECL = re.compile(r"\bPcg32\s+(\w+)\s*[({=;]")
# A lambda introducer: `[` not preceded by an identifier/`)`/`]` (which
# would make it a subscript), then optional params / mutable / return
# type, then the body brace.
R7_LAMBDA = re.compile(
    r"(?<![\w)\]])\[([^\[\]]*)\]\s*(?:\([^()]*\))?\s*"
    r"(?:mutable\s*)?(?:noexcept\s*)?(?:->[^{;]*?)?\{")


def _captures_by_ref(capture, name):
    items = [item.strip() for item in capture.split(",") if item.strip()]
    if "&" + name in items:
        return True
    if "&" in items:
        # Default ref capture applies unless the name is an explicit
        # copy item (`rng` or an init-capture `rng = ...`).
        for item in items:
            if item == name or re.match(rf"{re.escape(name)}\s*=", item):
                return False
        return True
    return False


def check_r7(path, stripped, report):
    decls = {}  # name -> [decl offsets]
    for m in R7_GENERATOR_DECL.finditer(stripped):
        decls.setdefault(m.group(1), []).append(m.start())
    if not decls:
        return
    lambdas = []  # (capture list, body start, body end)
    for m in R7_LAMBDA.finditer(stripped):
        open_idx = m.end() - 1
        lambdas.append((m.group(1), open_idx, match_brace(stripped, open_idx)))
    if not lambdas:
        return
    names = "|".join(re.escape(n) for n in sorted(decls))
    # Draws: `rng.NextFoo(...)` and the pass-a-generator form
    # `zipf.Next(rng)` / `Shuffle(v, rng)`.
    draw = re.compile(
        rf"\b({names})\s*\.\s*Next\w*\s*\(|"
        rf"\.\s*Next\w*\s*\(\s*({names})\s*[,)]")
    seen = set()
    for m in draw.finditer(stripped):
        name = m.group(1) or m.group(2)
        pos = m.start()
        for capture, body_start, body_end in lambdas:
            if not body_start < pos < body_end:
                continue
            # Declared inside this lambda (per-request generator): clean.
            if any(body_start < d < body_end for d in decls[name]):
                continue
            if not _captures_by_ref(capture, name):
                continue
            lineno = stripped.count("\n", 0, pos) + 1
            if (lineno, name) in seen:
                break
            seen.add((lineno, name))
            report(Violation(
                path, lineno, "R7",
                f"Pcg32 '{name}' is drawn inside a by-reference lambda "
                "capture: callbacks fire in event order, so the draw "
                "sequence depends on same-timestamp tie-breaking — derive "
                "a per-request generator "
                "(Pcg32(SplitMix64(seed ^ stream ^ counter))) or draw "
                "before scheduling"))
            break


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------

CHECKS = [check_r1, check_r2, check_r3, check_r4, check_r5, check_r6,
          check_r7]


def lint_text(path, text, file_allow=None, errors=None,
              used_file_rules=None):
    """Lints one translation unit; returns surviving violations.

    `file_allow` maps rule -> reason for file-level allowlist entries;
    rules that actually suppressed a violation are added to
    `used_file_rules` (when given) so the caller can flag stale entries.
    `errors`, when given, collects malformed-suppression diagnostics.
    Inline allows that suppress nothing are themselves violations.
    """
    file_allow = file_allow or {}
    errors = errors if errors is not None else []
    allowed_lines = inline_suppressions(text, path, errors)
    stripped = strip_comments_and_strings(text)
    raw = []
    for check in CHECKS:
        check(path, stripped, raw.append)
    survivors = []
    used_inline = set()  # (rule, line of the allow comment)
    for v in raw:
        covered = allowed_lines.get(v.rule, {})
        if v.line in covered:
            used_inline.add((v.rule, covered[v.line]))
            continue
        if v.rule in file_allow:
            if used_file_rules is not None:
                used_file_rules.add(v.rule)
            continue
        survivors.append(v)
    survivors.extend(
        lintcommon.stale_inline_allows(path, allowed_lines, used_inline))
    return survivors + errors


collect_files = lintcommon.collect_files


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="DPDPU determinism & invariant linter")
    parser.add_argument("roots", nargs="*", default=list(DEFAULT_ROOTS),
                        help="files or directories relative to the repo "
                             f"root (default: {' '.join(DEFAULT_ROOTS)})")
    parser.add_argument("--repo-root", default=REPO_ROOT)
    parser.add_argument("--allowlist", default=None,
                        help="allowlist file (default: "
                             f"<repo>/{DEFAULT_ALLOWLIST})")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, summary in sorted(RULES.items()):
            print(f"{rule}  {summary}")
        return 0

    allowlist_path = args.allowlist or os.path.join(
        args.repo_root, DEFAULT_ALLOWLIST)
    allowlist = load_allowlist(allowlist_path)

    violations = []
    scanned = set()
    suppressing_keys = set()  # entries that suppressed >= 1 violation
    for full in collect_files(args.repo_root, args.roots):
        rel = os.path.relpath(full, args.repo_root)
        scanned.add(rel)
        file_allow = {}
        for (entry_path, rule), reason in allowlist.items():
            if entry_path == rel:
                file_allow[rule] = reason
        used_rules = set()
        with open(full) as f:
            text = f.read()
        violations.extend(
            lint_text(rel, text, file_allow, used_file_rules=used_rules))
        suppressing_keys.update((rel, rule) for rule in used_rules)

    violations.extend(lintcommon.stale_allowlist_entries(
        allowlist, suppressing_keys, scanned, args.repo_root,
        allowlist_path))

    for v in violations:
        print(v)
    if violations:
        print(f"simlint: {len(violations)} violation(s)")
        return 1
    print("simlint: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
