#!/usr/bin/env python3
"""Loop-discipline lint for the loopsim tree.

The simulator's central methodological rule ("Loose Loops Sink Chips"
section 6, inherited from ASIM) is that no pipeline stage may act on
global knowledge: feedback signals must travel through the typed
FeedbackPort layer (src/sim/feedback_port.hh), which stamps each
message with its write cycle and declared loop delay so audit builds
can verify the discipline. This linter statically rejects the code
shapes that would let a refactor sneak around that layer:

  feedback-bypass   A feedback event type (EventType::BranchRedirect,
                    LoadMissKill, OperandMissKill, TlbTrap, OrderTrap,
                    PayloadDelivery) or a migrated signal struct
                    (BranchResolveMsg / LoadResolveMsg / OperandMissMsg
                    brace-construction) is used with no FeedbackPort
                    send()/read() call nearby: the signal would skip
                    the stamped port and the audit check with it.

  determinism       rand()/srand()/time()/std::chrono::*_clock::now()
                    in simulation code. Runs must be exactly
                    reproducible from their seeds; the only sanctioned
                    randomness is the seeded PCG in base/random.

  bare-output       std::cout / printf() outside base/logging, and raw
                    std::cerr outside base/logging + base/debug. All
                    user-facing output goes through the logging layer
                    (or an ostream parameter the caller controls) so
                    quiet mode and report capture keep working; debug
                    traces go through debug::emit, whose
                    one-write-per-line discipline keeps them
                    unscrambled under parallel campaigns.

  raw-getenv        std::getenv()/getenv() outside base/knobs. Every
                    LOOPSIM_* environment knob is read through the one
                    registry there, which parses the whole environment
                    once, strictly, before any campaign worker starts;
                    a private getenv parser would bring back the
                    disagreeing grammars the registry replaced.

A finding is waived by annotating the offending line (or the line
directly above it) with `// loop:exempt(<reason>)`. The reason is
mandatory; the annotation is the reviewable record of why the pattern
is legitimate (e.g. wall-clock telemetry that never feeds simulated
time). Reasons prefixed `analyze:` target the loopsim-analyze AST
checks (tools/analyze, DESIGN.md §15) rather than these regexes, and
are ignored by --check-stale-exempts.

When the loopsim-analyze binary is built (it needs the Clang dev
package), the feedback-bypass and determinism regexes are superseded
by its AST versions, which see through typedefs, helper functions and
`using clock = ...` aliases; run with --analyzer-available to retire
them and keep only the rules the analyzer does not cover. The full
regex set remains the documented fallback for LLVM-less builds.

--check-stale-exempts flags `loop:exempt(...)` annotations whose line
(or the line below, the two places a waiver can cover) no longer
triggers any regex rule: a waiver that outlives its hazard is a
misleading review record and must be deleted.

Exit status: 0 when clean, 1 when findings were printed, 2 on usage
errors. Run with --self-test to check the linter against the fixture
tree (tools/lint_fixtures), which contains every banned pattern once
plus exempted uses that must stay clean.
"""

import argparse
import re
import sys
from pathlib import Path

SOURCE_SUFFIXES = {".cc", ".hh", ".cpp", ".hpp"}

EXEMPT_RE = re.compile(r"//\s*loop:exempt\([^)]+\)")
EXEMPT_REASON_RE = re.compile(r"//\s*loop:exempt\(([^)]+)\)")

ALL_RULES = frozenset({"feedback-bypass", "determinism", "bare-output",
                       "raw-getenv"})
# Rules with AST successors in loopsim-analyze (tools/analyze); the
# regex versions retire when the analyzer is available.
SUPERSEDED_BY_ANALYZER = frozenset({"feedback-bypass", "determinism"})

# --- feedback-bypass -------------------------------------------------
FEEDBACK_EVENT_RE = re.compile(
    r"EventType::(BranchRedirect|LoadMissKill|OperandMissKill|"
    r"TlbTrap|OrderTrap|PayloadDelivery)\b")
SIGNAL_STRUCT_RE = re.compile(
    r"\b(BranchResolveMsg|LoadResolveMsg|OperandMissMsg)\s*\{")
PORT_CALL_RE = re.compile(
    r"\.\s*(send|read|readStamped)\s*\(|Port\.(send|read|readStamped)\b")
# A port call within this many lines of the event/struct use counts as
# "the signal goes through the port".
PORT_PROXIMITY = 15
# Directories whose sources carry the migrated loops.
FEEDBACK_DIRS = ("core", "dra")

# --- determinism -----------------------------------------------------
DETERMINISM_RES = [
    (re.compile(r"\b(std::)?rand\s*\(\s*\)"), "rand()"),
    (re.compile(r"\b(std::)?srand\s*\("), "srand()"),
    (re.compile(r"\b(std::)?time\s*\(\s*(NULL|nullptr|0)?\s*\)"),
     "time()"),
    (re.compile(
        r"(steady_clock|system_clock|high_resolution_clock)::now"),
     "std::chrono::*_clock::now()"),
]
# The seeded PCG implementation is the one sanctioned randomness source.
DETERMINISM_ALLOWED = ("base/random.hh", "base/random.cc")

# --- bare-output -----------------------------------------------------
OUTPUT_ALLOWED = ("base/logging.hh", "base/logging.cc")
# std::cerr is additionally sanctioned in base/debug.cc: debug::emit is
# the single-write line sink the raw-cerr ban funnels everyone toward.
CERR_ALLOWED = OUTPUT_ALLOWED + ("base/debug.cc",)
OUTPUT_RES = [
    (re.compile(r"\bstd::cout\b"), "std::cout", OUTPUT_ALLOWED),
    (re.compile(r"\b(std::)?printf\s*\("), "printf()", OUTPUT_ALLOWED),
    (re.compile(r"\bstd::cerr\b"), "std::cerr", CERR_ALLOWED),
]

# --- raw-getenv ------------------------------------------------------
GETENV_RE = re.compile(r"\b(std::)?(secure_)?getenv\s*\(")
# The knob registry is the one place the environment is read.
GETENV_ALLOWED = ("base/knobs.hh", "base/knobs.cc")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_line_comment(line):
    """Drop // comments so commented-out code is not flagged (the
    exemption annotation is read from the raw line instead)."""
    idx = line.find("//")
    return line if idx < 0 else line[:idx]


def is_exempt(raw_lines, i):
    """Line i (0-based) is waived by an annotation on it or above it."""
    if EXEMPT_RE.search(raw_lines[i]):
        return True
    return i > 0 and EXEMPT_RE.search(raw_lines[i - 1]) is not None


def rel_posix(path, root):
    return path.relative_to(root).as_posix()


def lint_file(path, display, findings, rules=ALL_RULES,
              honor_exempts=True):
    try:
        raw_lines = path.read_text(errors="replace").splitlines()
    except OSError as err:
        findings.append(Finding(display, 0, "io", str(err)))
        return
    code_lines = [strip_line_comment(line) for line in raw_lines]

    def waived(i):
        return honor_exempts and is_exempt(raw_lines, i)

    in_feedback_dir = any(f"/{d}/" in f"/{display}" or
                          display.startswith(f"{d}/")
                          for d in FEEDBACK_DIRS)
    port_lines = {i for i, line in enumerate(code_lines)
                  if PORT_CALL_RE.search(line)}

    def port_nearby(i):
        return any(abs(i - j) <= PORT_PROXIMITY for j in port_lines)

    for i, line in enumerate(code_lines):
        if in_feedback_dir and "feedback-bypass" in rules:
            m = FEEDBACK_EVENT_RE.search(line)
            if m and not port_nearby(i) and not waived(i):
                findings.append(Finding(
                    display, i + 1, "feedback-bypass",
                    f"feedback event EventType::{m.group(1)} with no "
                    f"FeedbackPort send()/read() within "
                    f"{PORT_PROXIMITY} lines: the signal bypasses the "
                    f"stamped port"))
            m = SIGNAL_STRUCT_RE.search(line)
            if m and not port_nearby(i) and not waived(i):
                findings.append(Finding(
                    display, i + 1, "feedback-bypass",
                    f"signal struct {m.group(1)} constructed outside a "
                    f"FeedbackPort send()/read(): feedback payloads "
                    f"travel only through ports"))

        if display not in DETERMINISM_ALLOWED and \
                "determinism" in rules:
            for pattern, name in DETERMINISM_RES:
                if pattern.search(line) and not waived(i):
                    findings.append(Finding(
                        display, i + 1, "determinism",
                        f"{name} in simulation code: runs must be "
                        f"reproducible from their seeds (use the "
                        f"seeded base/random PCG)"))

        if "raw-getenv" in rules and display not in GETENV_ALLOWED and \
                GETENV_RE.search(line) and not waived(i):
            findings.append(Finding(
                display, i + 1, "raw-getenv",
                "getenv() outside base/knobs: add the variable to the "
                "knob registry and read it through knobs::env()"))

        if "bare-output" not in rules:
            continue
        for pattern, name, allowed in OUTPUT_RES:
            if display in allowed:
                continue
            if pattern.search(line) and not waived(i):
                findings.append(Finding(
                    display, i + 1, "bare-output",
                    f"{name} outside its sanctioned files: route "
                    f"output through the logging layer, debug::emit, "
                    f"or an ostream parameter"))


def lint_tree(root, rules=ALL_RULES, honor_exempts=True):
    findings = []
    files = sorted(p for p in root.rglob("*")
                   if p.suffix in SOURCE_SUFFIXES and p.is_file())
    for path in files:
        lint_file(path, rel_posix(path, root), findings, rules,
                  honor_exempts)
    return findings


def stale_exempts(root):
    """Exempt annotations whose line (or the line below) no longer
    trips any regex rule. `analyze:`-prefixed reasons are waivers for
    the AST checks in tools/analyze and are skipped here."""
    findings = lint_tree(root, honor_exempts=False)
    live = {}
    for f in findings:
        live.setdefault(f.path, set()).add(f.line)
    stale = []
    files = sorted(p for p in root.rglob("*")
                   if p.suffix in SOURCE_SUFFIXES and p.is_file())
    for path in files:
        display = rel_posix(path, root)
        try:
            raw_lines = path.read_text(errors="replace").splitlines()
        except OSError:
            continue
        covered = live.get(display, set())
        for i, line in enumerate(raw_lines):
            m = EXEMPT_REASON_RE.search(line)
            if not m:
                continue
            if m.group(1).strip().startswith("analyze:"):
                continue
            # A waiver covers its own line and the line below it.
            if (i + 1) in covered or (i + 2) in covered:
                continue
            stale.append(Finding(
                display, i + 1, "stale-exempt",
                f"loop:exempt({m.group(1).strip()}) no longer "
                f"matches any rule here: delete the waiver or prefix "
                f"the reason with `analyze:` if it targets the AST "
                f"checks"))
    return stale


def self_test(fixture_root):
    """The fixture tree must trip every rule and honour exemptions."""
    findings = lint_tree(fixture_root)
    by_rule = {}
    for f in findings:
        by_rule.setdefault(f.rule, []).append(f)

    failures = []
    expected = {
        "feedback-bypass": 3,  # event schedule, case label, struct
        "determinism": 4,      # rand, srand, time, clock::now
        "bare-output": 3,      # std::cout, printf, std::cerr
        "raw-getenv": 2,       # std::getenv, getenv
    }
    for rule, count in expected.items():
        got = len(by_rule.get(rule, []))
        if got != count:
            failures.append(
                f"rule {rule}: expected {count} fixture findings, "
                f"got {got}")
    flagged_clean = [f for f in findings
                     if Path(f.path).name.startswith("clean_")]
    for f in flagged_clean:
        failures.append(f"clean/exempted fixture flagged: {f}")

    # --analyzer-available retires the superseded rules and nothing
    # else: only the bare-output and raw-getenv findings must remain.
    reduced = lint_tree(fixture_root,
                        rules=ALL_RULES - SUPERSEDED_BY_ANALYZER)
    leftover = {f.rule for f in reduced}
    if leftover != {"bare-output", "raw-getenv"}:
        failures.append(
            f"--analyzer-available mode kept rules {sorted(leftover)},"
            f" expected only bare-output and raw-getenv")

    # Stale-waiver detection: the deliberate stale fixture must be
    # the one and only report — live waivers and analyze:-prefixed
    # waivers stay silent.
    stale = stale_exempts(fixture_root)
    stale_names = sorted(Path(f.path).name for f in stale)
    if stale_names != ["stale_exempt.cc"]:
        failures.append(
            f"stale-exempt check reported {stale_names}, expected "
            f"exactly ['stale_exempt.cc']")

    if failures:
        for line in failures:
            print(f"self-test FAILED: {line}", file=sys.stderr)
        for f in findings:
            print(f"  (finding) {f}", file=sys.stderr)
        return 1
    print(f"self-test OK: {len(findings)} expected findings across "
          f"{len(expected)} rules, clean fixtures untouched")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        description="loop-discipline lint for loopsim")
    parser.add_argument(
        "--root", type=Path, default=None,
        help="tree to scan (default: <repo>/src next to this script)")
    parser.add_argument(
        "--self-test", action="store_true",
        help="scan tools/lint_fixtures and verify expected findings")
    parser.add_argument(
        "--analyzer-available", action="store_true",
        help="retire the regex rules superseded by loopsim-analyze "
             "(feedback-bypass, determinism); use when the AST "
             "checks run in the same pipeline")
    parser.add_argument(
        "--check-stale-exempts", action="store_true",
        help="flag loop:exempt(...) waivers whose line no longer "
             "trips any regex rule (analyze:-prefixed reasons are "
             "the AST checks' waivers and are skipped)")
    args = parser.parse_args(argv)

    script_dir = Path(__file__).resolve().parent
    if args.self_test:
        return self_test(script_dir / "lint_fixtures")

    root = args.root or script_dir.parent / "src"
    if not root.is_dir():
        print(f"loop_lint: no such tree: {root}", file=sys.stderr)
        return 2

    if args.check_stale_exempts:
        stale = stale_exempts(root.resolve())
        for f in stale:
            print(f)
        if stale:
            print(f"loop_lint: {len(stale)} stale waiver(s) in "
                  f"{root}", file=sys.stderr)
            return 1
        print(f"loop_lint: no stale waivers ({root})")
        return 0

    rules = ALL_RULES
    if args.analyzer_available:
        rules = ALL_RULES - SUPERSEDED_BY_ANALYZER
    findings = lint_tree(root.resolve(), rules)
    for f in findings:
        print(f)
    if findings:
        print(f"loop_lint: {len(findings)} finding(s) in {root}",
              file=sys.stderr)
        return 1
    print(f"loop_lint: clean ({root})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
